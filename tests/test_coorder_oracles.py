"""The insertion-rank locator and the projection sweep against their
brute-force predecessors, over random spec pairs, shifts and lengths.

Short finite listings are in the spec pool, so some draws ask for more
values than a listing has; both sides must then raise the same
``ListingExhausted``.
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from enumorder.coorder import (
    first_split,
    prefix_coorder,
    project_first,
    project_second,
    search_shift_witnesses,
    witness_pairs,
    witness_projections,
)
from enumorder.listings import ListingExhausted

from helpers import minimal_witness_scan, prefix_coorder_scan, spec_factories

SPEC_COUNT = len(spec_factories())
specs = st.integers(0, SPEC_COUNT - 1)
shifts = st.integers(0, 3)
lengths = st.integers(0, 40)
oracle_settings = settings(max_examples=150, deadline=None, derandomize=True)


def listings(a, b):
    factories = spec_factories()
    return factories[a]().listing(), factories[b]().listing()


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


@oracle_settings
@given(specs, specs, shifts, shifts, lengths)
def test_every_search_cell_matches_the_oracle(a, b, m_max, n_max, length):
    h, g = listings(a, b)
    report = outcome(search_shift_witnesses, h, g, m_max, n_max, length)
    h, g = listings(a, b)
    values = outcome(lambda: (h.prefix(length + m_max), g.prefix(length + n_max)))
    if isinstance(values, Exhausted):
        assert report == values
        return
    hv, gv = values
    assert [(c.m, c.n) for c in report.cells] == [
        (m, n) for m in range(m_max + 1) for n in range(n_max + 1)
    ]
    for cell in report.cells:
        assert cell.witness == minimal_witness_scan(hv, gv, cell.m, cell.n, length)


@oracle_settings
@given(specs, specs, shifts, shifts, lengths)
def test_first_split_is_the_minimal_witness_depth(a, b, m, n, length):
    h, g = listings(a, b)
    values = outcome(lambda: (h.prefix(length + m), g.prefix(length + n)))
    if isinstance(values, Exhausted):
        return
    hv, gv = values
    witness = minimal_witness_scan(hv, gv, m, n, length)
    expected = None if witness is None else max(witness.i, witness.j)
    assert first_split(hv, gv, m, n, length) == expected


@oracle_settings
@given(specs, specs, shifts, shifts, lengths)
def test_sweep_matches_projected_pairs(a, b, m, n, length):
    sweep = outcome(witness_projections, *listings(a, b), m, n, length)
    pairs = outcome(witness_pairs, *listings(a, b), m, n, length)
    if isinstance(pairs, Exhausted):
        assert sweep == pairs
        return
    assert sweep == (project_first(pairs), project_second(pairs))
