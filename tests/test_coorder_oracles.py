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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumorder.coorder import (
    Cell,
    RankStream,
    WitnessPair,
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
    builtin_thirds,
)

from helpers import (
    WIDE,
    minimal_witness,
    minimal_witness_scan,
    prefix_coorder_scan,
    project_first,
    project_second,
    spec_factories,
    witness_pairs,
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
        yield from map(Fraction, values)
        if end == "cut off":
            raise ListingCutOff
        if end == "infinite":
            top = max(values, default=0)
            yield from (Fraction(top + k) for k in count(1))

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
    assert report == outcome(search_by_cells, *listings(a, b), m_max, n_max, length)
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
        assert report == eager
        return
    assert [(c.m, c.n) for c in report.cells] == [
        (m, n) for m in range(m_max + 1) for n in range(n_max + 1)
    ]
    assert [c.witness for c in report.cells] == expected


@oracle_settings
@given(specs, specs, shifts, shifts, lengths)
def test_minimal_witness_matches_the_exhaustive_scan(a, b, m, n, length):
    expected = outcome(minimal_witness_scan, *listings(a, b), m, n, length)
    assert outcome(minimal_witness, *listings(a, b), m, n, length) == expected


@oracle_settings
@given(specs, specs, shifts, shifts, lengths)
def test_sweep_matches_projected_pairs(a, b, m, n, length):
    sweep = outcome(witness_projections, *listings(a, b), m, n, length)
    pairs = outcome(witness_pairs, *listings(a, b), m, n, length)
    if isinstance(pairs, Exhausted):
        assert sweep == pairs
        return
    assert sweep == (project_first(pairs), project_second(pairs))


# --- the shortfall rule, case by case -----------------------------------------------


def plateau():
    """One value, then a duplicate run that trips the cut-off."""
    return Listing(Fraction(0) for _ in range(DEDUP_RUN_LIMIT + 1))


def values(*texts):
    return short_listing([Fraction(t) for t in texts], "ended")


def thirds():
    return builtin_thirds().listing()


F = Fraction
SHORTFALL_CASES = [
    # h short, split before its end: the witness stands.
    (lambda: (values(3, "1/2"), thirds()), WitnessPair(0, 1, F(3), F(1, 2), F(0), F(1, 3))),
    # h short, ends before the split.
    (lambda: (values("1/2", 3), thirds()), Exhausted("listing ended after 2 values")),
    # g short, on either side of the split.
    (lambda: (thirds(), values(3, "1/2")), WitnessPair(0, 1, F(0), F(1, 3), F(3), F(1, 2))),
    (lambda: (thirds(), values("1/2", 3)), Exhausted("listing ended after 2 values")),
    # Both short: split before either end, or h named first though g ends first.
    (lambda: (values(3, "1/2", 4), values("1/2", 3)), WitnessPair(0, 1, F(3), F(1, 2), F(1, 2), F(3))),
    (lambda: (values("1/2", 3, 4), values("1/2", 3)), Exhausted("listing ended after 3 values")),
    # Cut off by the duplicate limit, before any split is possible.
    (lambda: (plateau(), thirds()), Exhausted("listing cut off after 1 values")),
    (lambda: (thirds(), plateau()), Exhausted("listing cut off after 1 values")),
]


def in_index_order(w):
    if w.i < w.j:
        return w
    return WitnessPair(w.j, w.i, w.h_j, w.h_i, w.g_j, w.g_i)


@pytest.mark.parametrize("make, expected", SHORTFALL_CASES, ids=range(len(SHORTFALL_CASES)))
def test_shortfall_rule_cases(make, expected):
    assert outcome(prefix_coorder, *make(), 5) == expected
    assert outcome(prefix_coorder_scan, *make(), 5) == expected
    cells = outcome(search_shift_witnesses, *make(), 0, 0, 5)
    if isinstance(expected, Exhausted):
        assert cells == expected
    else:
        assert in_index_order(cells.cells[0].witness) == expected


def test_search_shortfall_names_h_as_its_largest_shift_would():
    # g ends inside cell (0, 0), where h has the 2 values it needs; cell
    # (1, 0) would need 3, so an eager draw of h's values before g's names h.
    report = outcome(search_shift_witnesses, values("1/2", 3), values("1/2"), 1, 0, 2)
    assert report == Exhausted("listing ended after 2 values")


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(distinct_values, st.integers(0, 4))
def test_rank_stream_equals_bisection_on_fractions(values, heads):
    stream = RankStream(Listing(iter(values)), heads)
    if values:
        stream.draw(len(values) - 1)
    assert stream.values == values
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
        for value in spec.listing():
            drawn[0] += 1
            yield value

    return Listing(stream()), drawn


def refuted_pair(seed):
    """A seeded spec pair whose 4 x 4 search, to length 60, witnesses every cell."""
    rng = random.Random(seed)
    factories = spec_factories()
    while True:
        a, b = rng.choice(factories), rng.choice(factories)
        report = outcome(search_shift_witnesses, a().listing(), b().listing(), 4, 4, 60)
        if isinstance(report, WitnessReport) and report.all_witnessed():
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
    assert report.all_witnessed()
    depth = {(c.m, c.n): max(c.witness.i, c.witness.j) + 1 for c in report.cells}
    assert h_drawn[0] == max(m + d for (m, _), d in depth.items())
    assert g_drawn[0] == max(n + d for (_, n), d in depth.items())
