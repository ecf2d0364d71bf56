"""Co-order checks, witness sets, shift searches, matching, finite oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from enumorder import coorder, listings
from enumorder.coorder import (
    FuelExhausted,
    GapEmpty,
    MatchSuccess,
    RankStream,
    _cell_witness,
    finite_coorder,
    match_listing,
    prefix_coorder,
    search_shift_witnesses,
)
from enumorder.listings import (
    DEDUP_RUN_LIMIT,
    ListingExhausted,
    SetSpec,
    add_finite,
    build_A,
    build_T,
    builtin_harmonic,
    builtin_thirds,
    finite_listing,
    rationals_in_interval,
)

from helpers import (
    OracleSizeError,
    all_order_patterns,
    brute_force_coorder_oracle,
    minimal_witness_scan,
    order_pattern,
    pattern_by_counting,
    project_first,
    project_second,
    raises_exactly,
    random_spec,
    shift,
    valued_witnesses,
    witness_pairs,
    witness_values,
)


def F(*args):
    return Fraction(*args)


# --- order patterns -------------------------------------------------------------


def test_pattern_of_ascending_listing_is_identity():
    assert order_pattern(build_T(1).listing(), 4) == [0, 1, 2, 3]


def test_pattern_of_harmonic_is_reversal():
    assert order_pattern(builtin_harmonic().listing(), 4) == [3, 2, 1, 0]


def test_pattern_of_empty_prefix():
    assert order_pattern(builtin_harmonic().listing(), 0) == []


def test_pattern_shortfall_reports_length():
    with raises_exactly(ListingExhausted, "listing ended after 1 values"):
        order_pattern(finite_listing([F(1)]).listing(), 4)


def test_pattern_against_counting_oracle():
    rng = random.Random(401)
    for _ in range(60):
        spec = random_spec(rng)
        values = spec.listing().try_prefix(rng.randrange(0, 30))
        length = len(values)
        assert order_pattern(spec.listing(), length) == pattern_by_counting(values)


# --- prefix co-order -------------------------------------------------------------


def test_coorder_is_reflexive():
    for factory in (builtin_harmonic, builtin_thirds, lambda: build_A(2)):
        assert prefix_coorder(factory().listing(), factory().listing(), 30) is None


def test_harmonic_vs_thirds_first_witness():
    h, g = builtin_harmonic().listing(), builtin_thirds().listing()
    w = prefix_coorder(h, g, 2)
    assert w == (0, 1)
    assert witness_values(h, g, 0, 0, w) == (F(1), F(1, 2), F(0), F(1, 3))


def test_ascending_blocks_agree():
    assert prefix_coorder(build_T(1).listing(), build_T(3).listing(), 100) is None


def test_coorder_shortfall_is_distinct_error():
    with pytest.raises(ListingExhausted):
        prefix_coorder(finite_listing([F(1)]).listing(), builtin_thirds().listing(), 5)


def test_verdict_matches_pattern_equality_randomized():
    rng = random.Random(402)
    for _ in range(80):
        spec_a, spec_b = random_spec(rng), random_spec(rng)
        length = min(
            rng.randrange(0, 40),
            len(spec_a.listing().try_prefix(40)),
            len(spec_b.listing().try_prefix(40)),
        )
        h, g = spec_a.listing(), spec_b.listing()
        verdict = prefix_coorder(h, g, length)
        patterns_equal = order_pattern(spec_a.listing(), length) == order_pattern(
            spec_b.listing(), length
        )
        assert (verdict is None) == patterns_equal


def test_verdict_kind_is_symmetric():
    rng = random.Random(403)
    for _ in range(40):
        spec_a, spec_b = random_spec(rng), random_spec(rng)
        length = min(
            20,
            len(spec_a.listing().try_prefix(20)),
            len(spec_b.listing().try_prefix(20)),
        )
        forward = prefix_coorder(spec_a.listing(), spec_b.listing(), length)
        backward = prefix_coorder(spec_b.listing(), spec_a.listing(), length)
        assert (forward is None) == (backward is None)


def test_disagree_witness_is_first_in_scan_order():
    # Independent re-derivation of the witness via the defining scan.
    h = builtin_harmonic().listing()
    g = build_A(2).listing()
    w = prefix_coorder(h, g, 12)
    assert w is not None
    hv, gv = h.prefix(12), g.prefix(12)
    expected = next(
        (i, j)
        for j in range(12)
        for i in range(j)
        if (hv[i] < hv[j]) != (gv[i] < gv[j])
    )
    assert w == expected


# --- witness sets -----------------------------------------------------------------


def test_witness_pairs_empty_for_equal_shifted_listings():
    assert witness_pairs(builtin_harmonic().listing(), builtin_harmonic().listing(), 2, 2, 20) == []


def test_witness_pairs_harmonic_thirds():
    h, g = builtin_harmonic().listing(), builtin_thirds().listing()
    pairs = witness_pairs(h, g, 0, 0, 3)
    assert pairs == [(1, 0), (2, 0), (2, 1)]
    assert witness_values(h, g, 0, 0, pairs[0]) == (F(1, 2), F(1), F(1, 3), F(0))


def test_witness_pairs_shortfall():
    with pytest.raises(ListingExhausted):
        witness_pairs(finite_listing([F(1), F(2)]).listing(), builtin_thirds().listing(), 0, 0, 5)


def test_projections():
    pairs = witness_pairs(builtin_harmonic().listing(), builtin_thirds().listing(), 0, 0, 3)
    assert project_first(pairs) == {1, 2}
    assert project_second(pairs) == {0, 1}
    assert project_first([]) == set()
    assert project_second([]) == set()
    assert len(project_first(pairs)) <= len(pairs)
    assert len(project_second(pairs)) <= len(pairs)


def test_transposition_law_randomized():
    rng = random.Random(404)
    for _ in range(40):
        spec_a, spec_b = random_spec(rng), random_spec(rng)
        m, n = rng.randrange(0, 4), rng.randrange(0, 4)
        length = min(
            15,
            max(0, len(spec_a.listing().try_prefix(20)) - m),
            max(0, len(spec_b.listing().try_prefix(20)) - n),
        )
        h, g = spec_a.listing(), spec_b.listing()
        forward = witness_pairs(h, g, m, n, length)
        backward = witness_pairs(g, h, n, m, length)
        transposed = {
            (j, i, g_j, g_i, h_j, h_i)
            for i, j, h_i, h_j, g_i, g_j in valued_witnesses(h, g, m, n, forward)
        }
        assert transposed == valued_witnesses(g, h, n, m, backward)


def test_shift_consistency_law_randomized():
    rng = random.Random(405)
    for _ in range(30):
        spec_a, spec_b = random_spec(rng), random_spec(rng)
        m, n = rng.randrange(0, 4), rng.randrange(0, 4)
        length = min(
            12,
            max(0, len(spec_a.listing().try_prefix(20)) - m),
            max(0, len(spec_b.listing().try_prefix(20)) - n),
        )
        h, g = spec_a.listing(), spec_b.listing()
        h_shifted, g_shifted = shift(spec_a.listing(), m), shift(spec_b.listing(), n)
        direct = witness_pairs(h, g, m, n, length)
        pre_shifted = witness_pairs(h_shifted, g_shifted, 0, 0, length)
        assert direct == pre_shifted
        assert valued_witnesses(h, g, m, n, direct) == valued_witnesses(
            h_shifted, g_shifted, 0, 0, pre_shifted
        )


# --- shift-pair search -------------------------------------------------------------


def test_equal_listings_leave_diagonal_clean():
    report = search_shift_witnesses(
        builtin_harmonic().listing(), builtin_harmonic().listing(), 3, 3, 40
    )
    for cell in report.cells:
        if cell.m == cell.n:
            assert cell.witness is None


def test_shifted_self_agreement_cell():
    h = builtin_harmonic().listing()
    g = shift(builtin_harmonic().listing(), 5)
    report = search_shift_witnesses(h, g, 5, 0, 100)
    by_shift = {(c.m, c.n): c.witness for c in report.cells}
    assert by_shift[(5, 0)] is None


def test_union_families_have_witnesses_everywhere():
    report = search_shift_witnesses(
        build_A(1).listing(), build_A(2).listing(), 10, 10, 200
    )
    assert all(c.witness is not None for c in report.cells)
    assert len(report.cells) == 121


def test_minimal_witness_rule_against_exhaustive_scan():
    h = build_A(1).listing()
    g = build_A(2).listing()
    report = search_shift_witnesses(h, g, 2, 2, 30)
    hv, gv = h.prefix(32), g.prefix(32)
    for cell in report.cells:
        m, n = cell.m, cell.n
        candidates = [
            (i, j)
            for i in range(30)
            for j in range(30)
            if i != j and hv[i + m] < hv[j + m] and gv[i + n] > gv[j + n]
        ]
        best = min(candidates, key=lambda p: (max(p), p))
        assert cell.witness == best


# h = 1..41 against g = 1..40 and one last value that splits at depth 40:
# below every earlier value, so index 0 disagrees first, or between 39 and
# 40, so only index 39 disagrees.
DEEP_H = [F(k) for k in range(1, 42)]
DEEP_SPLITS = [(F(1, 2), (0, 40), (0, 39)), (F(79, 2), (39, 40), (38, 39))]


@pytest.mark.parametrize("last, unshifted, shifted", DEEP_SPLITS)
def test_witness_read_off_at_a_deep_split(last, unshifted, shifted):
    def pair():
        g = [F(k) for k in range(1, 41)] + [last]
        return finite_listing(DEEP_H).listing(), finite_listing(g).listing()

    assert minimal_witness_scan(*pair(), 0, 0, 41) == unshifted
    assert search_shift_witnesses(*pair(), 0, 0, 41).cells[0].witness == unshifted
    assert prefix_coorder(*pair(), 41) == unshifted
    assert minimal_witness_scan(*pair(), 1, 1, 40) == shifted
    assert search_shift_witnesses(*pair(), 1, 1, 40).cells[-1] == (1, 1, shifted)


def test_a_split_no_earlier_index_explains_fails_loudly():
    # Two streams of one ascending listing, one with a tampered rank: depth 3
    # splits although every earlier index orders alike in both listings.
    hs, gs = RankStream(builtin_thirds().listing(), 0), RankStream(builtin_thirds().listing(), 0)
    hs.draw(5)
    assert hs.ranks[0][3] == 3
    hs.ranks[0][3] = 0
    with pytest.raises(RuntimeError, match=r"cell \(0, 0\) splits at depth 3"):
        _cell_witness(hs, gs, 0, 0, 10, 10)


def test_witness_values_satisfy_inequalities():
    h, g = builtin_harmonic().listing(), build_A(2).listing()
    report = search_shift_witnesses(h, g, 4, 4, 60)
    for cell in report.cells:
        w = cell.witness
        if w is not None:
            h_i, h_j, g_i, g_j = witness_values(h, g, cell.m, cell.n, w)
            assert h_i < h_j
            assert g_i > g_j


# --- matching ----------------------------------------------------------------------


def test_match_three_element_sets_all_listings():
    target = finite_listing([F(10), F(20), F(30)])
    for perm in itertools.permutations([F(1), F(2), F(3)]):
        h = finite_listing(list(perm))
        outcome = match_listing(h, target, 3, 100)
        assert isinstance(outcome, MatchSuccess)
        rebuilt = finite_listing(list(outcome.values)).listing()
        assert prefix_coorder(finite_listing(list(perm)).listing(), rebuilt, 3) is None


def test_match_harmonic_into_thirds_refuted_at_step_one():
    outcome = match_listing(builtin_harmonic(), builtin_thirds(), 10, 1000)
    assert isinstance(outcome, GapEmpty) and outcome.refutes
    assert outcome.step == 1
    assert outcome.lo is None
    assert outcome.hi == F(0)


def test_match_gap_fixed_by_the_picks_refutes_nothing():
    # First-fit's picks, not the sets, leave these gaps empty: A:2 ∪ {-5} has
    # a listing co-ordered with A:2's, as 1 + ω + ω* ≅ ω + ω*, and A:3 is no ω.
    fixed = match_listing(build_A(2), add_finite(build_A(2), [F(-5)]), 20, 20000)
    assert isinstance(fixed, GapEmpty)
    assert (fixed.step, fixed.lo, fixed.hi, fixed.refutes) == (2, F(-5), F(0), False)
    fixed = match_listing(build_A(3), rationals_in_interval(F(0), F(1)), 20, 10_000)
    assert isinstance(fixed, GapEmpty)
    assert (fixed.step, fixed.lo, fixed.hi, fixed.refutes) == (1, F(1), None, False)


def test_match_harmonic_into_dense_interval():
    outcome = match_listing(
        builtin_harmonic(), rationals_in_interval(F(0), F(1)), 10, 1000
    )
    assert isinstance(outcome, MatchSuccess)
    rebuilt = finite_listing(list(outcome.values)).listing()
    assert prefix_coorder(builtin_harmonic().listing(), rebuilt, 10) is None


def test_match_soundness_at_every_constructed_length():
    outcome = match_listing(
        builtin_harmonic(), rationals_in_interval(F(0), F(1)), 8, 2000
    )
    assert isinstance(outcome, MatchSuccess)
    for k in range(1, 9):
        rebuilt = finite_listing(list(outcome.values)).listing()
        assert prefix_coorder(builtin_harmonic().listing(), rebuilt, k) is None


def test_match_ascending_into_closed_interval_hits_right_endpoint():
    # The interval's maximum is listed first, so an ascending input is
    # soundly refuted once that maximum is consumed.
    outcome = match_listing(
        builtin_thirds(), rationals_in_interval(F(-1), F(1)), 8, 2000
    )
    assert isinstance(outcome, GapEmpty) and outcome.refutes
    assert outcome.lo == F(1)
    assert outcome.hi is None


def test_match_draws_only_up_to_its_last_pick():
    # First-fit stops drawing at the first value that fits, so the last
    # value drawn is a pick; the eager matcher drew all 100,000.
    outcome = match_listing(
        builtin_harmonic(), rationals_in_interval(F(0), F(1)), 50, 100_000
    )
    assert isinstance(outcome, MatchSuccess)
    assert outcome.drawn == max(outcome.picks) + 1 == 755


def test_match_restarts_exactly_when_the_target_ends_within_fuel():
    # First-fit takes 2 for h(0) = 2 and then finds no value above it for
    # h(1) = 3. The stream's end shows the target is {1, 2}, so the rerun
    # checks feasibility and places h(0) at 1, leaving 2 above it.
    outcome = match_listing(
        finite_listing([F(2), F(3)]), finite_listing([F(2), F(1)]), 2, 10
    )
    assert type(outcome) is MatchSuccess
    assert outcome == MatchSuccess((F(1), F(2)), (1, 0), 2)


@pytest.mark.parametrize(
    "target",
    [
        # The stream ends within fuel, so the match restarts exactly.
        lambda: finite_listing([F(v) for v in "5 -1 7/2 0 9 1/3 -4 2 11/2 3".split()]),
        lambda: rationals_in_interval(F(-5), F(5)),  # first-fit throughout
    ],
    ids=["exact", "first-fit"],
)
def test_match_builds_a_fraction_only_for_each_value_it_reports(monkeypatch, target):
    # A:3 inserts into the middle of its rank window, so each step's gap has
    # picks on both sides. Order facts come from integer ranks and key
    # products; a Fraction is built for each of the 8 reported values alone.
    h, target = build_A(3), target()
    built = []

    class Counted(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(coorder, "Fraction", Counted)
    monkeypatch.setattr(listings, "Fraction", Counted)
    outcome = match_listing(h, target, 8, 5000)
    assert isinstance(outcome, MatchSuccess) and len(outcome.values) == 8
    assert len(built) == 8


def test_match_without_oracle_is_inconclusive():
    bare = SetSpec("thirds-bare", builtin_thirds().make_stream)
    outcome = match_listing(builtin_harmonic(), bare, 10, 300)
    assert isinstance(outcome, FuelExhausted)
    assert outcome.drawn == 300


def test_match_cut_off_target_is_not_refuted():
    # One value, then a duplicate run long enough to trip the cut-off: the
    # set is infinite, so a one-value pool must not count as the whole target.
    def stream():
        yield 0, 1
        yield from [(0, 1)] * DEDUP_RUN_LIMIT
        yield from ((n, 1) for n in itertools.count(1))

    plateau = SetSpec("plateau", stream)
    outcome = match_listing(finite_listing([F(1), F(2)]), plateau, 2, 20000)
    assert isinstance(outcome, FuelExhausted)
    assert outcome.cut_off
    assert outcome.drawn == 1


def test_match_cut_off_input_is_an_error():
    # The input lists 0 and 1, then repeats 1 until the duplicate limit cuts
    # it off: its values past the cut are unknown, so no match is certified.
    def stream():
        yield 0, 1
        yield from itertools.repeat((1, 1))

    plateau = SetSpec("plateau", stream)
    with raises_exactly(ListingExhausted, "listing cut off after 2 values"):
        match_listing(plateau, builtin_thirds(), 5, 1000)
    # An input that ends is matched whole.
    outcome = match_listing(finite_listing([F(0), F(1)]), builtin_thirds(), 5, 1000)
    assert isinstance(outcome, MatchSuccess)
    assert outcome.values == (F(0), F(1, 3))


def test_match_finite_pair_smaller_than_prefix_is_refuted():
    outcome = match_listing(
        finite_listing([F(1), F(2), F(3)]), finite_listing([F(5), F(9)]), 3, 50
    )
    assert isinstance(outcome, GapEmpty) and outcome.refutes


def test_match_trace_is_consistent():
    outcome = match_listing(
        finite_listing([F(1), F(2)]), finite_listing([F(5), F(9)]), 2, 50
    )
    assert isinstance(outcome, MatchSuccess)
    assert outcome.values == (F(5), F(9))
    assert outcome.drawn == 2
    assert len(outcome.picks) == 2


# --- finite sets ---------------------------------------------------------------------


def test_finite_coorder_examples():
    assert finite_coorder([F(1, 2), F(3), F(5)], [F(-1), F(0), F(7)])
    assert not finite_coorder([F(1)], [F(1), F(2)])
    values = [F(1), F(7, 2), F(-3)]
    assert finite_coorder(values, values)


def test_finite_coorder_rejects_duplicates():
    with raises_exactly(ValueError, "finite co-order inputs must be duplicate-free"):
        finite_coorder([F(1), F(1)], [F(2)])


def test_oracle_small_examples():
    assert brute_force_coorder_oracle([F(5)], [F(-2)])
    assert brute_force_coorder_oracle([], [])
    assert not brute_force_coorder_oracle([], [F(1)])


def test_oracle_size_cap():
    big = [F(k) for k in range(9)]
    with pytest.raises(OracleSizeError):
        brute_force_coorder_oracle(big, big)


def test_oracle_agrees_with_finite_coorder_small_exhaustive():
    grid = [F(k) for k in range(-2, 3)]
    subsets = [
        list(c) for size in range(0, 4) for c in itertools.combinations(grid, size)
    ]
    for a in subsets:
        for b in subsets:
            assert finite_coorder(a, b) == brute_force_coorder_oracle(a, b)


def test_pattern_sets_depend_only_on_order():
    assert all_order_patterns([F(1), F(2)]) == all_order_patterns([F(-7), F(0)])
