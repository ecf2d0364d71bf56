"""Listings: builtins, transforms, determinism, injectivity, enumeration."""

import random
from fractions import Fraction
from itertools import count, islice

import pytest

from enumorder import listings
from enumorder.listings import (
    DEDUP_RUN_LIMIT,
    MAX_POWER_BITS,
    Listing,
    ListingCutOff,
    ListingExhausted,
    SetSpec,
    add_finite,
    build_A,
    build_T,
    builtin_dyadic,
    builtin_harmonic,
    builtin_thirds,
    finite_listing,
    in_gap,
    interleave,
    rationals_in_interval,
    remove_finite,
    shift_spec,
)
from enumorder.ordertype import fin
from enumorder.seqlang import parse, seq_spec

from helpers import (
    as_values,
    build_A_by_interleave,
    build_T_by_addition,
    key,
    keyed,
    minus_finite_oracle_eager,
    raises_exactly,
    rationals,
    shift,
    spec_factories,
)


def F(*args):
    return Fraction(*args)


# --- builtins ----------------------------------------------------------------


def test_harmonic_values():
    ls = builtin_harmonic().listing()
    assert ls.value_at(0) == F(1)
    assert ls.value_at(1) == F(1, 2)
    assert ls.value_at(9) == F(1, 10)


def test_thirds_values():
    ls = builtin_thirds().listing()
    assert ls.value_at(0) == F(0)
    assert ls.value_at(1) == F(1, 3)
    assert ls.value_at(6) == F(2)


def test_dyadic_consecutive_indices():
    indices = finite_listing([F(0), F(1), F(2), F(3)])
    ls = builtin_dyadic(indices).listing()
    assert ls.prefix(4) == [F(1), F(1, 2), F(1, 4), F(1, 8)]


def test_dyadic_arbitrary_indices():
    indices = finite_listing([F(3), F(1), F(2)])
    ls = builtin_dyadic(indices).listing()
    assert ls.prefix(3) == [F(1, 8), F(1, 2), F(1, 4)]


def test_dyadic_empty_index_stream():
    ls = builtin_dyadic(finite_listing([])).listing()
    assert ls.try_prefix(5) == []


def test_dyadic_listings_each_replay_the_index_spec():
    starts = []

    def stream():
        starts.append(len(starts))
        yield from keyed((F(2), F(0), F(1)))

    spec = builtin_dyadic(SetSpec("indices", stream))
    first, second = spec.listing(), spec.listing()
    assert first.prefix(2) == [F(1, 4), F(1)]
    assert second.prefix(3) == [F(1, 4), F(1), F(1, 2)]
    assert first.prefix(3) == second.prefix(3)
    assert starts == [0, 1]


def test_dyadic_rejects_non_natural_indices():
    for bad in (F(1, 2), F(-1)):
        ls = builtin_dyadic(finite_listing([bad])).listing()
        message = f"index listing produced {bad} at position 0; expected a natural number"
        with raises_exactly(ValueError, message):
            ls.value_at(0)


def test_block_family_values():
    assert build_T(1).listing().prefix(4) == [F(0), F(1, 2), F(2, 3), F(3, 4)]
    assert build_T(2).listing().prefix(4) == [F(2), F(3, 2), F(4, 3), F(5, 4)]
    assert build_T(3).listing().prefix(3) == [F(2), F(5, 2), F(8, 3)]


def test_block_family_rejects_bad_index():
    with pytest.raises(ValueError):
        build_T(0)
    with pytest.raises(ValueError):
        build_A(0)


def test_block_family_monotonicity_and_bounds():
    for i in range(1, 7):
        values = build_T(i).listing().prefix(150)
        if i % 2:
            assert all(a < b for a, b in zip(values, values[1:]))
            assert all(i - 1 <= v < i for v in values)
        else:
            assert all(a > b for a, b in zip(values, values[1:]))
            assert all(i - 1 < v <= i for v in values)


def test_neighbouring_blocks_share_integer_boundary():
    # T:2 ends at 2 and T:3 starts at 2: the ranges overlap in exactly that
    # point, so the union family relies on duplicate skipping.
    assert F(2) in build_T(2).listing().prefix(1)
    assert F(2) in build_T(3).listing().prefix(1)
    a3 = build_A(3).listing().prefix(200)
    assert a3.count(F(2)) == 1


def test_union_family_single_block_equals_block():
    assert build_A(1).listing().prefix(50) == build_T(1).listing().prefix(50)


def test_union_family_round_robin_prefix():
    assert build_A(2).listing().prefix(4) == [F(0), F(2), F(1, 2), F(3, 2)]


def test_union_family_against_round_robin_oracle():
    # Independent reconstruction: rotate the block listings, skip repeats.
    for i in (2, 3, 4):
        blocks = [build_T(s).listing() for s in range(1, i + 1)]
        seen = set()
        expected = []
        positions = [0] * i
        while len(expected) < 120:
            for t in range(i):
                v = blocks[t].value_at(positions[t])
                positions[t] += 1
                if v not in seen:
                    seen.add(v)
                    expected.append(v)
        got = build_A(i).listing().prefix(120)
        assert got == expected[:120]


def test_closed_forms_list_what_the_predecessors_listed():
    for i in range(1, 13):
        assert build_T(i).listing().prefix(3000) == build_T_by_addition(i).listing().prefix(3000)
        assert build_A(i).listing().prefix(3000) == build_A_by_interleave(i).listing().prefix(3000)


@pytest.mark.parametrize("i", [2, 5, 10])
def test_union_family_raw_stream_is_injective(i):
    # Before any listing's dedup: round 1 alone skips the shared boundaries.
    keys = list(islice(build_A(i).make_stream(), 20_000))
    assert len(keys) == 20_000
    assert len(set(keys)) == len(keys)


def test_union_family_value_set_is_union_of_blocks():
    a3 = set(build_A(3).listing().prefix(400))
    union = set()
    for s in (1, 2, 3):
        block = set(build_T(s).listing().prefix(140))
        assert set(build_T(s).listing().prefix(100)) <= a3
        union |= block
    assert a3 <= union


# --- transforms ----------------------------------------------------------------


def test_dyadic_refuses_powers_over_the_bit_cap():
    # 2**m has m + 1 bits.
    indices = finite_listing([F(MAX_POWER_BITS - 1), F(MAX_POWER_BITS)])
    ls = builtin_dyadic(indices).listing()
    assert ls.value_at(0) == F(1, 2 ** (MAX_POWER_BITS - 1))
    with pytest.raises(ValueError, match=f"exceeds the {MAX_POWER_BITS}-bit cap"):
        ls.value_at(1)


def test_remove_finite_empty_is_identity():
    spec = builtin_harmonic()
    assert remove_finite(spec, []) is spec


def test_remove_finite_filters():
    spec = remove_finite(builtin_harmonic(), [F(1)])
    assert spec.listing().prefix(3) == [F(1, 2), F(1, 3), F(1, 4)]


def test_remove_finite_keeps_infinite_block_descriptor():
    spec = remove_finite(builtin_harmonic(), [F(1)])
    assert spec.descriptor == builtin_harmonic().descriptor


def test_remove_finite_recomputes_finite_size():
    spec = remove_finite(finite_listing([F(1), F(2), F(3)]), [F(2), F(9)])
    assert spec.descriptor == fin(2)
    assert spec.listing().try_prefix(10) == [F(1), F(3)]


def test_remove_finite_keeps_the_cut_off():
    # 10,004 fives, then n: the repeats cut the listing off after one value,
    # and dropping that value leaves none before the cut.
    def stream():
        for n in count(1):
            yield key(F(5) if n < 10_005 else F(n))

    ls = remove_finite(SetSpec("plateau", stream), [F(5)]).listing()
    assert ls.try_prefix(2) == []
    assert ls.is_cut_off()


def test_dedup_compares_values_not_their_forms():
    # Streams yield keys in lowest terms, so a value given in two forms (an
    # int and a Fraction, a reduced and an unreduced quotient) is one key.
    ls = interleave([finite_listing([F(1, 2), 1]), finite_listing([F(1), F(2, 4)])]).listing()
    assert ls.try_prefix(4) == [F(1, 2), F(1)]
    with pytest.raises(ListingExhausted, match="ended after 2 values"):
        ls.value_at(2)


def test_add_finite_prepends_sorted():
    spec = add_finite(builtin_thirds(), [F(-5)])
    assert spec.listing().prefix(3) == [F(-5), F(0), F(1, 3)]
    two = add_finite(builtin_thirds(), [F(-1), F(-7)])
    assert two.listing().prefix(3) == [F(-7), F(-1), F(0)]


def test_add_finite_rejects_present_values():
    with pytest.raises(ValueError):
        add_finite(builtin_thirds(), [F(1, 3)])


def test_add_finite_rejects_duplicates():
    with raises_exactly(ValueError, "added values must be pairwise distinct"):
        add_finite(builtin_thirds(), [F(-5), F(-5)])


def test_interleave_single_is_identity():
    spec = interleave([builtin_harmonic()])
    assert spec.listing().prefix(10) == builtin_harmonic().listing().prefix(10)


def test_interleave_dedups_overlapping_ranges():
    spec = interleave([build_T(2), build_T(3)])
    values = spec.listing().prefix(100)
    assert len(set(values)) == len(values)
    assert values.count(F(2)) == 1


def test_interleave_matches_union_family():
    left = interleave([build_T(1), build_T(2)]).listing().prefix(100)
    assert left == build_A(2).listing().prefix(100)


def test_interleave_requires_inputs():
    with pytest.raises(ValueError):
        interleave([])


def test_interleave_drops_exhausted_inputs():
    spec = interleave([finite_listing([F(10), F(20)]), builtin_thirds()])
    assert spec.listing().prefix(6) == [F(10), F(0), F(20), F(1, 3), F(2, 3), F(1)]


def test_shift_spec_drops_listed_prefix():
    spec = shift_spec(builtin_harmonic(), 1)
    assert spec.listing().prefix(2) == [F(1, 2), F(1, 3)]
    assert shift_spec(builtin_harmonic(), 0) is not None


# --- canonical enumeration ----------------------------------------------------


def test_rationals_enumerates_small_heights_in_order():
    first = list(islice(rationals(), 6))
    assert first == [F(1), F(-1), F(2), F(1, 2), F(-2), F(-1, 2)]


def test_rationals_complete_for_small_fractions():
    # Every reduced p/q with |p|, q <= 5 has height <= 5, so it appears
    # within the first five blocks.
    universe = {
        F(p, q)
        for p in range(-5, 6)
        for q in range(1, 6)
        if p != 0 and max(abs(F(p, q).numerator), F(p, q).denominator) <= 5
    }
    produced = set(islice(rationals(), 200))
    assert universe <= produced


def test_rationals_includes_zero_late():
    produced = list(islice(rationals(), 30000))
    assert F(0) in produced
    assert produced.index(F(0)) > 1000


def test_rationals_never_repeat():
    produced = list(islice(rationals(), 10000))
    assert len(set(produced)) == len(produced)


def test_interval_contains_all_small_fractions():
    spec = rationals_in_interval(F(0), F(1))
    produced = set(spec.listing().prefix(6000))
    for q in range(1, 6):
        for p in range(0, q + 1):
            assert F(p, q) in produced


def test_interval_first_values():
    spec = rationals_in_interval(F(0), F(1))
    assert F(1, 2) in spec.listing().prefix(5)


def test_interval_no_repeats_in_long_prefix():
    values = rationals_in_interval(F(0), F(1)).listing().prefix(10_000)
    assert len(set(values)) == len(values)


def test_interval_degenerate_is_single_element():
    spec = rationals_in_interval(F(2, 7), F(2, 7))
    assert spec.listing().try_prefix(5) == [F(2, 7)]
    assert spec.descriptor == fin(1)


def test_interval_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        rationals_in_interval(F(1), F(0))


def test_interval_gap_oracle():
    oracle = rationals_in_interval(F(0), F(1)).gap_oracle
    assert oracle(None, F(1, 10))
    assert not oracle(None, F(0))
    assert oracle(F(1, 3), F(1, 2))
    assert not oracle(F(1), None)
    assert oracle(F(1, 2), None)


def test_interval_gap_oracle_on_a_grid():
    # Ends on a grid of quarters: a nonempty meet of (lo, hi) with [a, b],
    # a < b, is an interval of length >= 1/4 and holds an eighth strictly.
    grid = [F(k, 4) for k in range(-6, 7)]
    for a in grid:
        for b in (v for v in grid if v > a):
            oracle = rationals_in_interval(a, b).gap_oracle
            eighths = [F(k, 8) for k in range(int(8 * a), int(8 * b) + 1)]
            for lo in [None, *grid]:
                for hi in [None, *grid]:
                    meets = any(in_gap(v, lo, hi) for v in eighths)
                    assert oracle(lo, hi) == meets, (a, b, lo, hi)


# --- finite listings ----------------------------------------------------------


def test_finite_listing_empty():
    assert finite_listing([]).listing().try_prefix(3) == []


def test_finite_listing_order_preserved():
    spec = finite_listing([F(3), F(1, 2), F(5)])
    assert spec.listing().prefix(3) == [F(3), F(1, 2), F(5)]
    assert spec.descriptor == fin(3)


def test_finite_listing_rejects_duplicates():
    with raises_exactly(ValueError, "finite listing values must be pairwise distinct"):
        finite_listing([F(1), F(1)])


def test_exhaustion_carries_actual_length():
    ls = finite_listing([F(1), F(2)]).listing()
    with raises_exactly(ListingExhausted, "listing ended after 2 values"):
        ls.value_at(5)


# --- listing invariants ---------------------------------------------------------


def test_replay_determinism_across_pool():
    for factory in spec_factories():
        spec = factory()
        first = spec.listing().try_prefix(60)
        second = spec.listing().try_prefix(60)
        assert first == second, spec.name


def test_injectivity_across_pool():
    for factory in spec_factories():
        values = factory().listing().try_prefix(200)
        assert len(set(values)) == len(values)


def test_gap_oracles_agree_with_enumeration():
    # Sampled soundness check: whenever the oracle says a gap is empty, no
    # enumerated value may fall inside it; when it says nonempty, some value
    # within a longer prefix should (for these spot intervals it does).
    rng = random.Random(7)
    for factory in spec_factories():
        spec = factory()
        if spec.gap_oracle is None:
            continue
        values = spec.listing().try_prefix(800)
        for _ in range(25):
            lo = F(rng.randrange(-8, 8), rng.randrange(1, 5))
            hi = lo + F(rng.randrange(0, 6), rng.randrange(1, 4))
            inside = [v for v in values if lo < v < hi]
            if inside:
                assert spec.gap_oracle(lo, hi), (spec.name, lo, hi)
            if not spec.gap_oracle(lo, hi):
                assert not inside, (spec.name, lo, hi)


def test_gap_oracle_unknown_through_every_combinator():
    # A .seq set has no gap oracle; shifting, deleting, adding or joining
    # it must keep that unknown, while the same edits of harmonic keep one.
    edits = (
        lambda s: shift_spec(s, 2),
        lambda s: remove_finite(s, [F(1, 2)]),
        lambda s: add_finite(s, [F(5)]),
        lambda s: interleave([s, builtin_thirds()]),
        lambda s: interleave([builtin_thirds(), s]),
    )
    for edit in edits:
        assert edit(seq_spec(parse("1/n"), 0, "seq")).gap_oracle is None
        assert edit(builtin_harmonic()).gap_oracle is not None


def test_dedup_run_limit_finishes_constant_streams():
    def constant():
        while True:
            yield key(F(1))

    ls = Listing(constant())
    assert ls.try_prefix(5) == [F(1)]
    # Cut off by the duplicate limit, which is not an end of the stream.
    with raises_exactly(ListingExhausted, "listing cut off after 1 values"):
        ls.value_at(1)
    assert ls.is_cut_off()


def test_cut_off_carries_through_derived_listings():
    def plateau():
        yield from keyed([F(0)] * (DEDUP_RUN_LIMIT + 1))
        yield from keyed(F(n) for n in count(1))

    spec = SetSpec("plateau", plateau)
    walk = iter(spec.listing())
    assert Fraction(*next(walk)) == F(0)
    with pytest.raises(ListingCutOff):
        next(walk)
    derived = [
        shift(spec.listing(), 1),
        shift_spec(spec, 1).listing(),
        interleave([spec, finite_listing([F(-1), F(-2), F(-3)])]).listing(),
    ]
    for ls in derived:
        with pytest.raises(ListingExhausted, match="cut off"):
            ls.prefix(10)
        assert ls.is_cut_off()
    # The union stops where its first input was cut off.
    assert derived[2].try_prefix(10) == [F(0), F(-1)]


def test_real_end_is_not_a_cut_off():
    ls = finite_listing([F(1), F(1, 2)]).listing()
    assert ls.try_prefix(5) == [F(1), F(1, 2)]
    with pytest.raises(ListingExhausted, match="ended after 2 values"):
        ls.prefix(5)
    assert not ls.is_cut_off()


def test_dedup_run_limit_counts_only_consecutive_duplicates():
    def stream():
        for n in range(1, 4):
            yield from keyed([F(n)] * (DEDUP_RUN_LIMIT - 1))

    ls = Listing(stream())
    assert as_values(ls) == [F(1), F(2), F(3)]
    with pytest.raises(ListingExhausted, match="ended after 3 values"):
        ls.value_at(3)
    assert not ls.is_cut_off()


def test_a_stream_error_recurs_at_the_same_index():
    def stream():
        yield key(F(1))
        yield key(F(2))
        raise ValueError("boom")

    def seq_listing():
        return seq_spec(parse("1/(n-3)"), 1, "seq:1/(n-3)").listing()

    # Left to itself, a generator that raised reads as ended afterwards, and
    # the map stream of a .seq definition goes on to the values past the error.
    for make, error, message in [
        (lambda: Listing(stream()), ValueError, "boom"),
        (seq_listing, ZeroDivisionError, r"division by zero at \(i=1, n=3\)"),
        (lambda: interleave([SetSpec("boom", stream)]).listing(), ValueError, "boom"),
    ]:
        ls = make()
        for read in (lambda: ls.prefix(5), lambda: ls.value_at(2), lambda: list(ls)):
            with pytest.raises(error, match=message):
                read()
        assert ls.try_prefix(2) == make().try_prefix(2)
        with pytest.raises(error, match=message):
            ls.try_prefix(3)


def test_keys_are_the_values_keys_index_for_index():
    def keys_of(ls):
        return [(v.numerator, v.denominator) for v in ls.try_prefix(len(ls.keys))]

    for factory in spec_factories():
        spec = factory()
        ls = spec.listing()
        ls.try_prefix(300)
        assert ls.keys == keys_of(ls), spec.name
    # A .seq stream that failed, with its error replayed.
    ls = seq_spec(parse("1/(n-3)"), 1, "seq:1/(n-3)").listing()
    for read in (lambda: ls.prefix(5), lambda: ls.value_at(4)):
        with raises_exactly(ZeroDivisionError, "division by zero at (i=1, n=3)"):
            read()
    assert as_values(ls.keys) == [F(-1, 2), F(-1)]
    assert ls.keys == keys_of(ls)

    # Cut off by the duplicate limit, after two values and their repeats.
    def repeats():
        yield from keyed([F(1), F(1, 2), F(1), F(1, 2)])
        while True:
            yield key(F(1))

    ls = Listing(repeats())
    assert ls.try_prefix(5) == [F(1), F(1, 2)]
    assert ls.is_cut_off()
    assert ls.keys == keys_of(ls) == [(1, 1), (1, 2)]


# --- gap oracles of finite deletions ------------------------------------------------


def test_deletion_oracles_match_eagerly_sorted_ones():
    bounds = [None, *(F(k, 6) for k in range(-7, 19))]
    for make_base in (
        builtin_harmonic,
        builtin_thirds,
        lambda: build_T(2),
        lambda: build_A(3),
        lambda: rationals_in_interval(F(0), F(1)),
    ):
        base = make_base()
        removed = base.listing().try_prefix(7)
        for spec, points in (
            (shift_spec(base, 7), removed),
            (remove_finite(base, [removed[5], removed[2], F(99)]), [removed[5], removed[2], F(99)]),
        ):
            eager = minus_finite_oracle_eager(base.gap_oracle, points)
            for lo in bounds:
                for hi in bounds:
                    assert spec.gap_oracle(lo, hi) == eager(lo, hi), (spec.name, lo, hi)


class _Unordered(Fraction):
    """A rational that refuses to be ordered."""

    def __lt__(self, other):
        raise AssertionError("compared")


def test_shift_sorts_removed_values_only_when_the_oracle_is_asked(monkeypatch):
    # Every value the listings module builds from a key refuses to be ordered.
    monkeypatch.setattr(listings, "Fraction", _Unordered)
    base = SetSpec("unordered", lambda: ((k, 1) for k in count(1)), None, lambda lo, hi: True)
    shifted = shift_spec(base, 5)
    assert shifted.listing().try_prefix(2) == [F(6), F(7)]
    with pytest.raises(AssertionError, match="compared"):
        shifted.gap_oracle(None, None)
