"""Co-order checking, disagreement witnesses, shift searches, and matching.

Two listings agree on a prefix of length N (are co-ordered there) when the
relative order of every index pair coincides, equivalently when their order
patterns — the rank permutations of the prefixes — are equal. A witness is
the index pair (i, j) the listings order oppositely; the four values it
compares are the listings' values there. Disagreement has that finite
certificate and agreement has none, so a check, like each shift cell below,
returns a witness or None.

Shifted disagreement sets generalize this: for shifts (m, n), the witness
pairs are all (i, j) with ``h(i+m) < h(j+m)`` and ``g(i+n) > g(j+n)``. A
shift pair with no witness below the search bound is only a candidate for
agreement-after-shifting, never a proof: the tool certifies witnesses, not
their absence.

A search ranks each listing once, in a :class:`RankStream` that all its
shift cells share; ``check`` is the (0, 0) cell of a search.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Sequence

from .listings import Listing, ListingCutOff, ListingExhausted, SetSpec
from .ordertype import OMEGA, OMEGA_STAR


class RankStream:
    """One listing's values as drawn, each ranked in every window that starts
    at a head index 0..``heads``.

    ``ranks[m][d]`` is the insertion rank of value m + d among values
    m..m+d-1. The values' keys stay in the listing (``listing.keys``),
    which may be drawn further than the stream has ranked; each ranked key
    goes into one sorted window. A new value t gets its rank G(t) among
    values 0..t-1 by a comparison with the window's last key, then its
    first, and by bisection between them when it lands inside: a monotone
    listing lands at one end every time. The rank in the window from m is
    G(t) minus #{k < m : value k < value t}, from at most ``heads``
    comparisons with the head keys. Keys compare by ``a * q < p * b``,
    which is exact: a key is in lowest terms with a positive denominator.
    """

    def __init__(self, listing: Listing, heads: int):
        self.listing = listing
        self.ranks: list[list[int]] = [[] for _ in range(heads + 1)]
        self._window: list[tuple[int, int]] = []
        self._heads: list[tuple[int, int]] = []

    def draw(self, t: int) -> None:
        """Draw and rank the values up to index t."""
        while len(self.ranks[0]) <= t:
            self.step()

    def step(self) -> None:
        """Draw and rank the next value."""
        listing, window, heads, ranks = self.listing, self._window, self._heads, self.ranks
        keys, ranked = listing.keys, ranks[0]
        k = len(ranked)
        if k == len(keys):
            listing.draw(k + 1)
        key = p, q = keys[k]
        # An empty window's last key is (-1, 0), below every key.
        lo = len(window)
        a, b = window[-1] if lo else (-1, 0)
        if a * q < p * b:
            window.append(key)
        else:
            lo, hi = 0, lo - 1
            a, b = window[0]
            if a * q < p * b:
                lo = 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    a, b = window[mid]
                    if a * q < p * b:
                        lo = mid + 1
                    else:
                        hi = mid
            window.insert(lo, key)
        ranked.append(lo)
        if heads:
            for m, (a, b) in enumerate(heads, 1):
                lo -= a * q < p * b
                ranks[m].append(lo)
        if len(heads) < len(ranks) - 1:
            heads.append(key)

    def global_ranks(self, length: int) -> list[int]:
        """Entry k is the rank of value k, for k < ``length``, among all the
        values ranked so far: integers in the values' order."""
        self.draw(length - 1)
        rank = {key: r for r, key in enumerate(self._window)}
        return [rank[key] for key in self.listing.keys[:length]]


def _cell_witness(
    hs: RankStream, gs: RankStream, m: int, n: int, length: int, h_need: int
) -> tuple[int, int] | None:
    """The minimal witness of cell (m, n) below ``length``; None for a
    candidate.

    The split depth d is the first at which the windows of ``hs`` from m and
    of ``gs`` from n rank their value d differently. The ranks both streams
    already hold are compared first; h(m + d), then g(n + d), is drawn only
    past them, so once both are past their heads each depth ranks at most
    one new value of each, in lockstep up to the split. When a read of g
    fails, ``h_need`` values of h are drawn first, so a shortfall of h is
    raised before one of g.

    The earlier indices that disagree with d sit between its two insertion
    ranks, so they all lie on one side of h(m + d): below it exactly when
    h's rank of d is the larger. The first index i with
    ``(h_i < h_d) != (g_i < g_d)``, found by comparing the listings' keys, is
    the witness, reported as (i, d) when it lies below and as (d, i)
    otherwise. A split with no such index can only come from ranks that do
    not match the keys, and raises ``RuntimeError`` rather than report a
    wrong pair.
    """
    hr, gr = hs.ranks[m], gs.ranks[n]
    h_step, g_step = hs.step, gs.step
    for d in range(length):
        while len(hr) <= d:
            h_step()
        try:
            while len(gr) <= d:
                g_step()
        except Exception:
            hs.listing.draw(h_need)
            raise
        if hr[d] != gr[d]:
            break
    else:
        return None
    hk, gk = hs.listing.keys, gs.listing.keys
    hp, hq = hk[m + d]
    gp, gq = gk[n + d]
    for i in range(d):
        a, b = hk[m + i]
        c, e = gk[n + i]
        if (a * hq < hp * b) != (c * gq < gp * e):
            break
    else:
        raise RuntimeError(f"cell ({m}, {n}) splits at depth {d} with no disagreeing index")
    return (i, d) if hr[d] > gr[d] else (d, i)


def prefix_coorder(h: Listing, g: Listing, length: int) -> tuple[int, int] | None:
    """The disagreement witness on prefixes of the given length, or None
    when they agree.

    Agreement holds exactly when the two order patterns are equal; it has no
    finite certificate, so None is all it returns. The witness is the first
    violating pair when scanning j upward and, inside each j, i upward over
    i < j: the (0, 0) cell of :func:`search_shift_witnesses`, put in i < j
    order.

    Only indices up to the first split j are drawn, so a witness is
    reported even from a listing shorter than ``length``; the shortfall
    error is raised only when agreement would need the missing values.
    """
    w = search_shift_witnesses(h, g, 0, 0, length).cells[0].witness
    return None if w is None else (min(w), max(w))


def witness_projections(
    hr: Sequence[int], gr: Sequence[int], m: int, n: int, length: int
) -> tuple[set[int], set[int]]:
    """The first and second indices of the witness pairs under shifts
    (m, n) with both indices below ``length``, without building the pairs,
    from at least ``length + m`` values of h, ``hr``, and ``length + n`` of
    g, ``gr``: the values or any integers in their order, such as
    :meth:`RankStream.global_ranks`.

    Index i is a first index iff some point with a larger h-value has a
    smaller g-value, and j is a second index iff some point with a smaller
    h-value has a larger g-value. One sort by h and two running extremes of
    g, the minimum from the top and the maximum from the bottom.
    """
    by_h = sorted(range(length), key=lambda k: hr[k + m])
    g_by_h = [gr[k + n] for k in by_h]
    max_below = list(accumulate(g_by_h, max))
    min_above = list(accumulate(reversed(g_by_h), min))[::-1]
    first = {k for t, k in enumerate(by_h[:-1]) if min_above[t + 1] < g_by_h[t]}
    second = {k for t, k in enumerate(by_h[1:], 1) if max_below[t - 1] > g_by_h[t]}
    return first, second


class Cell(NamedTuple):
    """One shift pair's search outcome; ``witness is None`` means no witness
    was found below the bound — a candidate, explicitly inconclusive."""

    m: int
    n: int
    witness: tuple[int, int] | None


class WitnessReport(NamedTuple):
    cells: tuple[Cell, ...]


# Default bounds of a shift search, shared by the command line (for check's
# prefix too) and the experiments.
DEFAULT_M_MAX = 10
DEFAULT_N_MAX = 10
DEFAULT_PREFIX = 500


def search_shift_witnesses(
    h: Listing, g: Listing, m_max: int, n_max: int, length: int
) -> WitnessReport:
    """Minimal witness (or candidate marker) for every shift pair up to the
    bounds, with both indices below ``length``.

    The witness of cell (m, n) has the smallest max(i, j), ties in
    lexicographic (i, j) order. When indices 0..d-1 of its windows agree,
    their values sort into the same index order in both windows, so index d
    adds a disagreement exactly when its insertion ranks differ, and the
    first such d is that smallest max(i, j).

    Each listing has one :class:`RankStream`, shared by every cell: O(N log
    N) comparisons for N drawn values, plus at most ``m_max`` (or ``n_max``)
    per value. A cell compares two integer rank streams up to its split
    depth, and compares values only there, to read off the witness.

    Each cell draws only up to its shift plus its split depth plus one,
    h(m + d) before g(n + d). A witness is reported even from a listing too
    short for the whole search; the shortfall error is raised only for a
    cell that needs the missing values, with the message an eager draw of
    ``length + m_max`` values of ``h``, then ``length + n_max`` of ``g``,
    would give.
    """
    hs, gs = RankStream(h, m_max), RankStream(g, n_max)
    cells = []
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            witness = _cell_witness(hs, gs, m, n, length, length + m_max)
            cells.append(Cell(m, n, witness))
    return WitnessReport(tuple(cells))


# ---------------------------------------------------------------------------
# Greedy matching construction
# ---------------------------------------------------------------------------


class MatchSuccess(NamedTuple):
    """A target prefix co-ordered with the requested prefix of the input.

    ``picks`` records, per step, the position in the target's listing of the
    chosen element. ``drawn`` counts the target values actually drawn: up
    to the last value a first-fit pick needed, or the whole target when its
    listing ended within the fuel. It never exceeds the fuel.
    """

    values: tuple[Fraction, ...]
    picks: tuple[int, ...]
    drawn: int


class GapEmpty(NamedTuple):
    """The open gap a step needs holds no usable element of the target.

    ``refutes`` marks a sound refutation: no listing of the whole target is
    co-ordered with the input's whole listing (such a pair of listings is an
    order isomorphism). So it refutes when the target is finite and smaller
    than the prefix, or when the input's set is an ω (ω*) and the gap is
    unbounded above (below), past a target maximum (minimum) that ω (ω*)
    lacks. Any other empty gap was fixed by the earlier picks, not the sets."""

    step: int
    lo: Fraction | None
    hi: Fraction | None
    refutes: bool
    detail: str


class FuelExhausted(NamedTuple):
    """Inconclusive: the draw budget ran out before a fitting element
    appeared. ``cut_off`` marks a pool stopped early by the duplicate limit,
    so the target may still hold more values than were drawn."""

    step: int
    drawn: int
    cut_off: bool


MatchOutcome = MatchSuccess | GapEmpty | FuelExhausted


def _exact_match(hs: RankStream, listing: Listing) -> MatchOutcome:
    """Greedy matching into a target known to be exactly the values of
    ``listing``, which has ended, for the input ranked in ``hs``.

    Each pick is the first pool value, in listing order, that leaves the
    rest of the input pattern embeddable. Any r distinct values inside a
    gap realize any r-element pattern, so embeddability is a count per gap:
    the values on each side of the pick inside its target gap must cover
    the input values still to come on that side of h(k) inside its input
    gap. On integer ranks both counts are rank differences (no placed value
    lies inside a gap), so the feasible picks are one rank window. Every
    other gap passed at the previous step and is unchanged, so once the
    pool holds as many values as the pattern, no window is ever empty.
    The input's ranks and the pool's come from rank streams over the keys.
    """
    keys, size = listing.keys, len(hs.ranks[0])
    if len(keys) < size:
        return GapEmpty(0, None, None, True, "target exhausted; no usable element in gap")
    pool_ranks = RankStream(listing, 0).global_ranks(len(keys))
    placed: list[int] = []  # input ranks placed so far, ascending
    matched: list[int] = []  # pool ranks of the picks, ascending alongside
    picks: list[int] = []
    for k, (t, r) in enumerate(zip(hs.ranks[0], hs.global_ranks(size))):
        h_lo, g_lo = (placed[t - 1], matched[t - 1]) if t else (-1, -1)
        h_hi, g_hi = (placed[t], matched[t]) if t < k else (size, len(keys))
        first, last = g_lo + (r - h_lo), g_hi - (h_hi - r)
        pick = next(p for p, q in enumerate(pool_ranks) if first <= q <= last)
        placed.insert(t, r)
        matched.insert(t, pool_ranks[pick])
        picks.append(pick)
    return MatchSuccess(tuple(Fraction(*keys[p]) for p in picks), tuple(picks), len(keys))


def match_listing(
    h: SetSpec, target: SetSpec, prefix_len: int, fuel: int
) -> MatchOutcome:
    """Greedily build a listing prefix of ``target`` co-ordered with the
    listing of ``h``.

    At step k the value h(k) ranks somewhere among h(0..k-1); the pick must
    land strictly inside the open gap between the corresponding already
    chosen target values (unbounded at the ends). Both bounds come from h(k)'s
    insertion rank t, read off a :class:`RankStream` of ``h``: co-order puts
    the pick between entries t - 1 and t of the chosen values, kept sorted.

    Picks are first-fit in listing order. The target is drawn lazily, at
    most ``fuel`` values in all: a step scans the values already drawn and
    draws more only when none fits, stopping at the first new value that
    does. The scan walks the target listing's keys, and a value lies in the
    gap when its key passes the products against both bound keys, the exact
    ``a * q < p * b`` of :class:`RankStream`: it builds and compares no
    ``Fraction``; only the values an outcome reports are built. If no
    value within fuel fits, a gap oracle may still certify the gap empty.
    That refutes only where ``h``'s descriptor is a lone ``W`` (``W*``)
    block and the gap is unbounded above (below); elsewhere the picks fixed
    the gap (see :class:`GapEmpty`). Without the oracle the outcome is an
    inconclusive :class:`FuelExhausted` after the full fuel, or after a
    cut-off by the duplicate limit.

    When the target's stream ends within fuel, its full content is known,
    and the match restarts from step 0 with every pick checked against the
    remaining pattern (:func:`_exact_match`), so a match is found whenever
    one exists. That restart picks the same values a completed first-fit
    run would have: each first-fit pick is feasible, as its own completion
    shows.

    A listing of ``h`` that ends before ``prefix_len`` is matched whole.
    One cut off before it raises :class:`ListingExhausted`: its values past
    the cut are unknown, not absent.
    """
    h_listing = h.listing()
    try:
        h_listing.draw(prefix_len)
    except ListingExhausted:
        if h_listing.is_cut_off():
            raise
    hs = RankStream(h_listing, 0)
    hs.draw(len(h_listing.keys) - 1)
    omega, omega_star = h.descriptor == OMEGA, h.descriptor == OMEGA_STAR
    listing = target.listing()
    walk = iter(listing)
    keys = listing.keys
    matched: list[int] = []  # listing positions of the picks, by value
    picks: list[int] = []
    for k, t in enumerate(hs.ranks[0]):
        # A gap end is a key too; an unbounded end is (-1, 0) below or (1, 0)
        # above, which every key with a positive denominator passes.
        lp, lq = keys[matched[t - 1]] if t else (-1, 0)
        hp, hq = keys[matched[t]] if t < k else (1, 0)
        pick = next(
            (p for p, (a, b) in enumerate(keys) if lp * b < a * lq and a * hq < hp * b), None
        )
        cut_off = False
        while pick is None and len(keys) < fuel:
            try:
                a, b = next(walk)
            except StopIteration:
                return _exact_match(hs, listing)
            except ListingCutOff:
                cut_off = True
                break
            if lp * b < a * lq and a * hq < hp * b:
                pick = len(keys) - 1
        if pick is None:
            lo = Fraction(*keys[matched[t - 1]]) if t else None
            hi = Fraction(*keys[matched[t]]) if t < k else None
            if target.gap_oracle is not None and not target.gap_oracle(lo, hi):
                refutes = (omega and hi is None) or (omega_star and lo is None)
                detail = "gap oracle certifies the gap empty"
                if not refutes:
                    detail += "; the earlier picks fixed this gap, so nothing is refuted"
                return GapEmpty(k, lo, hi, refutes, detail)
            return FuelExhausted(k, len(keys), cut_off)
        matched.insert(t, pick)
        picks.append(pick)
    return MatchSuccess(tuple(Fraction(*keys[p]) for p in picks), tuple(picks), len(keys))


# ---------------------------------------------------------------------------
# Finite sets
# ---------------------------------------------------------------------------


def finite_coorder(a_values: list[Fraction], b_values: list[Fraction]) -> bool:
    """Finite sets are co-ordered exactly when their cardinalities match:
    listing both in ascending order gives identical patterns."""
    for values in (a_values, b_values):
        if len(set(values)) != len(values):
            raise ValueError("finite co-order inputs must be duplicate-free")
    return len(a_values) == len(b_values)
