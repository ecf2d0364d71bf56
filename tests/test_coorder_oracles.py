"""The shift search and the projection sweep against their predecessors,
over random spec pairs, shifts and lengths: every cell against the per-cell
insertion-rank loop and the exhaustive pair scan, and the rank streams the
cells share against ``bisect_left`` on sorted ``Fraction`` lists.

Each side is a spec from the shared pool or a short listing that ends, is
cut off (as the duplicate limit cuts a listing off) or goes on, so many
draws ask for more values than a listing has. A witness found before a
listing runs short is reported; when the verdict needs values a listing
lacks, both sides must raise the same ``ListingExhausted``, with the
message an eager draw of h's prefix, then g's, raises.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from enumorder.coorder import (
    Cell,
    RankStream,
    WitnessReport,
    prefix_coorder,
    search_shift_witnesses,
    witness_projections,
)
from enumorder.listings import (
    DEDUP_RUN_LIMIT,
    Listing,
    ListingCutOff,
    ListingExhausted,
    build_A,
    build_T,
    builtin_harmonic,
    builtin_thirds,
    finite_listing,
)
from enumorder.seqlang import parse, seq_spec

from helpers import (
    WIDE,
    as_values,
    keyed,
    minimal_witness,
    minimal_witness_scan,
    prefix_coorder_scan,
    project_first,
    project_second,
    raises_exactly,
    spec_factories,
    witness_pairs,
    witness_projections_by_fractions,
    witness_values,
)

SPEC_COUNT = len(spec_factories())
# A side is a spec pool index, or short values with how their stream ends.
specs = st.one_of(
    st.integers(0, SPEC_COUNT - 1),
    st.tuples(
        st.lists(st.integers(-12, 12), unique=True, max_size=10),
        st.sampled_from(("ended", "cut off", "infinite")),
    ),
)
shifts = st.integers(0, 3)
lengths = st.integers(0, 40)
oracle_settings = settings(max_examples=300, deadline=None, derandomize=True)


def short_listing(values, end):
    """The values, then the stream ends, is cut off, or goes on ascending."""

    def stream():
        yield from keyed(map(Fraction, values))
        if end == "cut off":
            raise ListingCutOff
        if end == "infinite":
            top = max(values, default=0)
            yield from keyed(Fraction(top + k) for k in count(1))

    return Listing(stream())


def listing(side):
    if isinstance(side, int):
        return spec_factories()[side]().listing()
    return short_listing(*side)


def listings(a, b):
    return listing(a), listing(b)


@dataclass(frozen=True)
class Exhausted:
    message: str


def outcome(fn, *args):
    """The result, or the ``ListingExhausted`` message in its place."""
    try:
        return fn(*args)
    except ListingExhausted as exc:
        return Exhausted(str(exc))


def typed(result):
    """The result beside its type, and a report's cells each beside theirs:
    a report and its cells are NamedTuples, whose == ignores the type."""
    if isinstance(result, WitnessReport):
        return WitnessReport, [(type(c), c) for c in result.cells]
    return type(result), result


@oracle_settings
@given(specs, specs, lengths)
def test_check_matches_pairwise_scan(a, b, length):
    fast = outcome(prefix_coorder, *listings(a, b), length)
    assert fast == outcome(prefix_coorder_scan, *listings(a, b), length)


def search_by_cells(h, g, m_max, n_max, length):
    """The shift search as one per-cell oracle loop per cell, in cell order,
    on the same two listings."""
    cells = [
        Cell(m, n, minimal_witness(h, g, m, n, length, h_need=length + m_max))
        for m in range(m_max + 1)
        for n in range(n_max + 1)
    ]
    return WitnessReport(tuple(cells))


@oracle_settings
@given(specs, specs, shifts, shifts, lengths)
# Cell (0, 0) splits at d = 2 with witness (2, 1); cell (0, 1) is a candidate.
@example(
    ([WIDE[0], WIDE[2], WIDE[1], WIDE[3]], "infinite"),
    ([WIDE[0], WIDE[1], WIDE[3], WIDE[2]], "infinite"),
    1,
    1,
    6,
)
def test_every_search_cell_matches_the_oracle(a, b, m_max, n_max, length):
    # When a cell needs values a listing lacks, the search raises the
    # shortfall of an eager draw of h's values, then g's.
    report = outcome(search_shift_witnesses, *listings(a, b), m_max, n_max, length)
    expected_report = outcome(search_by_cells, *listings(a, b), m_max, n_max, length)
    assert typed(report) == typed(expected_report)
    h, g = listings(a, b)
    expected = [
        outcome(minimal_witness_scan, h, g, m, n, length)
        for m in range(m_max + 1)
        for n in range(n_max + 1)
    ]
    if any(isinstance(cell, Exhausted) for cell in expected):
        h, g = listings(a, b)
        eager = outcome(lambda: (h.prefix(length + m_max), g.prefix(length + n_max)))
        assert isinstance(eager, Exhausted)
        assert typed(report) == typed(eager)
        return
    assert [(c.m, c.n) for c in report.cells] == [
        (m, n) for m in range(m_max + 1) for n in range(n_max + 1)
    ]
    assert [c.witness for c in report.cells] == expected


def test_a_search_ranks_listings_drawn_further_than_it_has_ranked():
    # A rank stream counts what it ranked, not what its listing holds: a
    # listing drawn before the search, by a prefix or by a check on the same
    # two objects, is ranked from index 0 all the same.
    def drawn_by_prefix(h, g):
        h.try_prefix(300)
        g.try_prefix(300)

    def drawn_by_check(h, g):
        outcome(prefix_coorder, h, g, 60)

    for a in range(SPEC_COUNT):
        for b in range(SPEC_COUNT):
            expected = outcome(search_by_cells, *listings(a, b), 3, 3, 60)
            for draw in (drawn_by_prefix, drawn_by_check):
                h, g = listings(a, b)
                draw(h, g)
                report = outcome(search_shift_witnesses, h, g, 3, 3, 60)
                assert typed(report) == typed(expected), (a, b, draw.__name__)


@oracle_settings
@given(specs, specs, shifts, shifts, lengths)
def test_minimal_witness_matches_the_exhaustive_scan(a, b, m, n, length):
    expected = outcome(minimal_witness_scan, *listings(a, b), m, n, length)
    assert outcome(minimal_witness, *listings(a, b), m, n, length) == expected


def ranked_projections(h, g, m, n, length, extra=0):
    """``witness_projections`` on each listing's global ranks, drawn
    ``extra`` values past what the projection reads."""
    hr = RankStream(h, 0).global_ranks(length + m + extra)
    gr = RankStream(g, 0).global_ranks(length + n + extra)
    return witness_projections(hr, gr, m, n, length)


@oracle_settings
@given(specs, specs, shifts, shifts, lengths)
def test_sweep_matches_projected_pairs(a, b, m, n, length):
    sweep = outcome(ranked_projections, *listings(a, b), m, n, length)
    assert sweep == outcome(witness_projections_by_fractions, *listings(a, b), m, n, length)
    pairs = outcome(witness_pairs, *listings(a, b), m, n, length)
    if isinstance(pairs, Exhausted):
        assert sweep == pairs
        return
    assert sweep == (project_first(pairs), project_second(pairs))


@oracle_settings
@given(specs, specs, shifts, shifts, lengths, st.integers(1, 30))
def test_sweep_reads_ranks_from_a_longer_window(a, b, m, n, length, extra):
    # As witness_growth reads them: ranks from one window drawn past the
    # projection keep the values' order, so the sets do not change.
    sweep = outcome(ranked_projections, *listings(a, b), m, n, length, extra)
    assume(not isinstance(sweep, Exhausted))
    assert sweep == witness_projections_by_fractions(*listings(a, b), m, n, length)


# --- the shortfall rule, case by case -----------------------------------------------


def plateau():
    """One value, then a duplicate run that trips the cut-off."""
    return Listing((0, 1) for _ in range(DEDUP_RUN_LIMIT + 1))


def values(*texts):
    return short_listing([Fraction(t) for t in texts], "ended")


def thirds():
    return builtin_thirds().listing()


F = Fraction
# A witness is expected beside the four values it compares.
SHORTFALL_CASES = [
    # h short, split before its end: the witness stands.
    (lambda: (values(3, "1/2"), thirds()), ((0, 1), (F(3), F(1, 2), F(0), F(1, 3)))),
    # h short, ends before the split.
    (lambda: (values("1/2", 3), thirds()), Exhausted("listing ended after 2 values")),
    # g short, on either side of the split.
    (lambda: (thirds(), values(3, "1/2")), ((0, 1), (F(0), F(1, 3), F(3), F(1, 2)))),
    (lambda: (thirds(), values("1/2", 3)), Exhausted("listing ended after 2 values")),
    # Both short: split before either end, or h named first though g ends first.
    (lambda: (values(3, "1/2", 4), values("1/2", 3)), ((0, 1), (F(3), F(1, 2), F(1, 2), F(3)))),
    (lambda: (values("1/2", 3, 4), values("1/2", 3)), Exhausted("listing ended after 3 values")),
    # Cut off by the duplicate limit, before any split is possible.
    (lambda: (plateau(), thirds()), Exhausted("listing cut off after 1 values")),
    (lambda: (thirds(), plateau()), Exhausted("listing cut off after 1 values")),
]


def in_index_order(w):
    return min(w), max(w)


def valued(make, find):
    """The witness ``find`` reports on a case's listings, beside the four
    values it compares there; or the shortfall it raises."""
    h, g = make()
    w = outcome(find, h, g)
    if isinstance(w, Exhausted):
        return w
    return w, witness_values(h, g, 0, 0, w)


@pytest.mark.parametrize("make, expected", SHORTFALL_CASES, ids=range(len(SHORTFALL_CASES)))
def test_shortfall_rule_cases(make, expected):
    assert valued(make, lambda h, g: prefix_coorder(h, g, 5)) == expected
    assert valued(make, lambda h, g: prefix_coorder_scan(h, g, 5)) == expected
    cell = lambda h, g: in_index_order(search_shift_witnesses(h, g, 0, 0, 5).cells[0].witness)
    assert valued(make, cell) == expected


def test_search_shortfall_names_h_as_its_largest_shift_would():
    # g ends inside cell (0, 0), where h has the 2 values it needs; cell
    # (1, 0) would need 3, so an eager draw of h's values before g's names h.
    report = outcome(search_shift_witnesses, values("1/2", 3), values("1/2"), 1, 0, 2)
    assert typed(report) == typed(Exhausted("listing ended after 2 values"))


# --- the rank streams the cells share ----------------------------------------------

BIG = 2**64
rationals = st.one_of(
    st.fractions(max_denominator=12).filter(lambda v: abs(v) <= 12),
    st.builds(Fraction, st.integers(-4 * BIG, 4 * BIG), st.integers(BIG, 3 * BIG)),
    # Beyond 4,300 digits, where int-to-text conversion would refuse.
    st.builds(lambda k: Fraction(2**20000 + k, 3), st.integers(-3, 3)),
)
# A value alone, or beside its negation in either order.
groups = st.one_of(
    rationals.map(lambda v: [v]),
    st.builds(lambda v, sign: [sign * v, -sign * v], rationals, st.sampled_from((1, -1))),
)
distinct_values = st.lists(groups, max_size=16).map(
    lambda drawn: list(dict.fromkeys(v for group in drawn for v in group))
)


def shaped(values, shape, runs):
    """The values as drawn, or sorted into one shape: ascending, descending,
    zigzag (smallest, largest, next smallest, next largest, ...: each insert
    past the second lands inside the window), or dealt round robin from
    ``runs`` ascending runs, as ``A:i`` lists its blocks."""
    if shape == "as drawn":
        return values
    ordered = sorted(values)
    if shape == "ascending":
        return ordered
    if shape == "descending":
        return ordered[::-1]
    if shape == "zigzag":
        ends = zip(ordered[: (len(ordered) + 1) // 2], ordered[::-1])
        return list(dict.fromkeys(v for pair in ends for v in pair))
    size = -(-len(ordered) // runs)
    blocks = [ordered[k * size : (k + 1) * size] for k in range(runs)]
    return [block[t] for t in range(size) for block in blocks if t < len(block)]


# Half the listings as drawn, half in one of the four shapes.
shapes = st.one_of(
    st.just("as drawn"),
    st.sampled_from(["ascending", "descending", "zigzag", "round robin"]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(distinct_values, shapes, st.integers(2, 4), st.integers(0, 4))
@example(list(map(Fraction, range(200))), "ascending", 2, 3)
@example(list(map(Fraction, range(200))), "descending", 2, 3)
@example(list(map(Fraction, range(200))), "zigzag", 2, 3)
@example(list(map(Fraction, range(200))), "round robin", 3, 3)
# Each new key is compared with the window's last key, then its first, and
# bisected between them only when it lands inside. Windows of 0, 1 and 2 keys:
@example([Fraction(1)], "as drawn", 2, 0)
@example([Fraction(2), Fraction(1)], "as drawn", 2, 1)
@example([Fraction(1), Fraction(2)], "as drawn", 2, 1)
@example([Fraction(1), Fraction(3), Fraction(2)], "as drawn", 2, 2)
@example([Fraction(1), Fraction(3), Fraction(0)], "as drawn", 2, 2)
@example([Fraction(1), Fraction(3), Fraction(4)], "as drawn", 2, 2)
# Keys that land second-to-last, then second, so that both end checks fail.
@example(list(map(Fraction, [0, 10, 5, 9, 1, 8, 2])), "as drawn", 2, 3)
# Keys that alternate between the two ends.
@example([Fraction((-1) ** k * (k // 2 + 1)) for k in range(200)], "as drawn", 2, 4)
def test_rank_stream_equals_bisection_on_fractions(drawn, shape, runs, heads):
    values = shaped(drawn, shape, runs)
    assert sorted(values) == sorted(drawn)
    stream = RankStream(Listing(keyed(values)), heads)
    if values:
        stream.draw(len(values) - 1)
    assert as_values(stream.listing.keys) == values
    for m in range(heads + 1):
        expected = [
            bisect_left(sorted(values[m:t]), values[t]) for t in range(m, len(values))
        ]
        assert stream.ranks[m] == expected


# --- what a search draws --------------------------------------------------------------


def counted_listing(spec):
    """A listing of the spec, and a one-item list counting the values it drew."""
    drawn = [0]

    def stream():
        for key in spec.listing():
            drawn[0] += 1
            yield key

    return Listing(stream()), drawn


def refuted_pair(seed):
    """A seeded spec pair whose 4 x 4 search, to length 60, witnesses every cell."""
    rng = random.Random(seed)
    factories = spec_factories()
    while True:
        a, b = rng.choice(factories), rng.choice(factories)
        report = outcome(search_shift_witnesses, a().listing(), b().listing(), 4, 4, 60)
        if isinstance(report, WitnessReport) and all(
            c.witness is not None for c in report.cells
        ):
            return a(), b(), 4, 4, 60


@pytest.mark.parametrize("case", ["A:1/A:2", 1, 2, 3, 4])
def test_search_draws_only_to_the_deepest_witness(case):
    # Every cell is witnessed, so each listing is drawn exactly as far as
    # the deepest cell reads it: its shift plus its split depth plus one.
    if case == "A:1/A:2":
        h_spec, g_spec, m_max, n_max, length = build_A(1), build_A(2), 10, 10, 500
    else:
        h_spec, g_spec, m_max, n_max, length = refuted_pair(seed=case)
    (h, h_drawn), (g, g_drawn) = counted_listing(h_spec), counted_listing(g_spec)
    report = search_shift_witnesses(h, g, m_max, n_max, length)
    assert all(c.witness is not None for c in report.cells)
    depth = {(c.m, c.n): max(c.witness) + 1 for c in report.cells}
    assert h_drawn[0] == max(m + d for (m, _), d in depth.items())
    assert g_drawn[0] == max(n + d for (_, n), d in depth.items())


# --- the lockstep loop ------------------------------------------------------------------


def seq_member(text):
    return seq_spec(parse(text), 1, f"seq:{text}")


# Pairs with no witness in any cell: check's single cell, then 2 x 2 boxes as
# type2 --mmax 1 --nmax 1 searches them, with .seq listings on either side.
NO_WITNESS = [
    (builtin_thirds, lambda: build_T(1), 0, 0),
    (lambda: seq_member("(7*n + 3) / (2*n + 5)"), builtin_thirds, 0, 0),
    (builtin_harmonic, lambda: build_T(2), 1, 1),
    (lambda: seq_member("(n + 4) / (3*n + 1)"), builtin_harmonic, 1, 1),
    (lambda: seq_member("(7*n + 3) / (2*n + 5)"), lambda: seq_member("n/3"), 1, 1),
]


@pytest.mark.parametrize("make_h, make_g, m_max, n_max", NO_WITNESS)
def test_no_witness_search_draws_each_listing_to_its_largest_window(make_h, make_g, m_max, n_max):
    # Every cell ranks both windows to the whole length in lockstep, so each
    # listing is drawn to the end of its largest window and no further.
    length = 300
    (h, h_drawn), (g, g_drawn) = counted_listing(make_h()), counted_listing(make_g())
    report = search_shift_witnesses(h, g, m_max, n_max, length)
    assert all(c.witness is None for c in report.cells)
    assert (h_drawn[0], g_drawn[0]) == (length + m_max, length + n_max)


@pytest.mark.parametrize("side", ["h", "g"])
def test_a_seq_listing_failing_in_lockstep_fails_at_its_own_index(side):
    # n + 0/(n-50) ascends with thirds up to index 48 and divides by zero at
    # n = 50, index 49. A failing h stops the loop before g(49) is drawn; a
    # failing g first has h drawn to the search's need, length + m_max.
    failing, other = seq_member("n + 0/(n-50)"), builtin_thirds()
    (h, h_drawn), (g, g_drawn) = map(counted_listing, (failing, other)[:: 1 if side == "h" else -1])
    with raises_exactly(ZeroDivisionError, "division by zero at (i=1, n=50)"):
        search_shift_witnesses(h, g, 1, 1, 100)
    assert (h_drawn[0], g_drawn[0]) == ((49, 49) if side == "h" else (101, 49))
    failed = h if side == "h" else g
    assert failed.value_at(48) == 49
    with raises_exactly(ZeroDivisionError, "division by zero at (i=1, n=50)"):
        failed.value_at(49)


@pytest.mark.parametrize("h_size, g_size", [(10, 5), (5, 10)])
def test_both_listings_short_in_lockstep_raise_h_shortfall_first(h_size, g_size):
    # Both ascend, so the loop runs until the shorter one ends; h's shortfall
    # is raised either way, as an eager draw of h before g would raise it.
    h_spec, g_spec = (finite_listing([Fraction(k) for k in range(size)]) for size in (h_size, g_size))
    (h, h_drawn), (g, g_drawn) = counted_listing(h_spec), counted_listing(g_spec)
    with raises_exactly(ListingExhausted, f"listing ended after {h_size} values"):
        prefix_coorder(h, g, 20)
    assert (h_drawn[0], g_drawn[0]) == (h_size, min(h_size, g_size))
