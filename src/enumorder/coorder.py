"""Co-order checking, disagreement witnesses, shift searches, and matching.

Two listings agree on a prefix of length N (are co-ordered there) when the
relative order of every index pair coincides, equivalently when their order
patterns — the rank permutations of the prefixes — are equal. A witness pair
records two indices the listings order oppositely, together with the four
compared values. Disagreement has that finite certificate and agreement has
none, so a check, like each shift cell below, returns a witness or None.

Shifted disagreement sets generalize this: for shifts (m, n), the witness
pairs are all (i, j) with ``h(i+m) < h(j+m)`` and ``g(i+n) > g(j+n)``. A
shift pair with no witness below the search bound is only a candidate for
agreement-after-shifting, never a proof: the tool certifies witnesses, not
their absence.

A search ranks each listing once, in a :class:`RankStream` that all its
shift cells share; ``check`` is the (0, 0) cell of a search.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice

from .listings import DuplicateValuesError, Listing, ListingCutOff, SetSpec
from .ordertype import Direction, block_signature


@dataclass(frozen=True)
class WitnessPair:
    """An index pair ordered oppositely by two listings.

    Exactly one of ``h_i < h_j`` and ``g_i < g_j`` holds; the four fields
    record the compared values (after shifting, when shifts are in play —
    the indices themselves are pre-shift).
    """

    i: int
    j: int
    h_i: Fraction
    h_j: Fraction
    g_i: Fraction
    g_j: Fraction


def _ranks(values: list[Fraction]) -> list[int]:
    """Entry k is the rank of values[k] among the (distinct) values."""
    ranks = [0] * len(values)
    for rank, index in enumerate(sorted(range(len(values)), key=values.__getitem__)):
        ranks[index] = rank
    return ranks


class RankStream:
    """One listing's values as drawn, each ranked in every window that starts
    at a head index 0..``heads``.

    ``ranks[m][d]`` is the insertion rank of value m + d among values
    m..m+d-1. Each drawn value is kept twice in listing order, as
    ``values`` and as its (numerator, denominator) pair in ``keys``, and
    its pair goes into one sorted window. A new value t gets its rank G(t)
    among values 0..t-1 by bisection, and the rank in the window from m is
    G(t) minus #{k < m : value k < value t}, from at most ``heads``
    comparisons with the head values. Pairs compare by ``a * q < p * b``,
    which is exact: a Fraction keeps lowest terms with a positive
    denominator.
    """

    def __init__(self, listing: Listing, heads: int):
        self.listing = listing
        self.values: list[Fraction] = []
        self.keys: list[tuple[int, int]] = []
        self.ranks: list[list[int]] = [[] for _ in range(heads + 1)]
        self._window: list[tuple[int, int]] = []
        self._heads: list[tuple[int, int]] = []

    def draw(self, t: int) -> None:
        """Draw and rank the values up to index t."""
        window, heads, keys, ranks = self._window, self._heads, self.keys, self.ranks
        while len(keys) <= t:
            value = self.listing.value_at(len(keys))
            key = p, q = value.numerator, value.denominator
            lo, hi = 0, len(window)
            while lo < hi:
                mid = (lo + hi) // 2
                a, b = window[mid]
                if a * q < p * b:
                    lo = mid + 1
                else:
                    hi = mid
            window.insert(lo, key)
            ranks[0].append(lo)
            for m, (a, b) in enumerate(heads, 1):
                lo -= a * q < p * b
                ranks[m].append(lo)
            if len(heads) < len(ranks) - 1:
                heads.append(key)
            keys.append(key)
            self.values.append(value)


def _cell_witness(
    hs: RankStream, gs: RankStream, m: int, n: int, length: int, h_need: int
) -> WitnessPair | None:
    """The minimal witness of cell (m, n) below ``length``; None for a
    candidate.

    The split depth d is the first at which the windows of ``hs`` from m and
    of ``gs`` from n rank their value d differently. The ranks both streams
    already hold are compared first; h(m + d), then g(n + d), is drawn only
    past them. When a read of g fails, ``h_need`` values of h are drawn
    first, so a shortfall of h is raised before one of g.

    The earlier indices that disagree with d sit between its two insertion
    ranks, so they all lie on one side of h(m + d): below it exactly when
    h's rank of d is the larger. The first index i with
    ``(h_i < h_d) != (g_i < g_d)``, found by comparing the streams' keys, is
    the witness, reported as (i, d) when it lies below and as (d, i)
    otherwise.
    """
    hr, gr = hs.ranks[m], gs.ranks[n]
    d = 0
    while True:
        span = min(len(hr), len(gr), length)
        while d < span and hr[d] == gr[d]:
            d += 1
        if d < span:
            break
        if d == length:
            return None
        hs.draw(m + d)
        try:
            gs.draw(n + d)
        except Exception:
            hs.listing.prefix(h_need)
            raise
    hp, hq = hs.keys[m + d]
    gp, gq = gs.keys[n + d]
    earlier = zip(islice(hs.keys, m, m + d), islice(gs.keys, n, n + d))
    i = next(
        i
        for i, ((a, b), (c, e)) in enumerate(earlier)
        if (a * hq < hp * b) != (c * gq < gp * e)
    )
    hv, gv = hs.values, gs.values
    h_i, h_d, g_i, g_d = hv[m + i], hv[m + d], gv[n + i], gv[n + d]
    if hr[d] > gr[d]:
        return WitnessPair(i, d, h_i, h_d, g_i, g_d)
    return WitnessPair(d, i, h_d, h_i, g_d, g_i)


def prefix_coorder(h: Listing, g: Listing, length: int) -> WitnessPair | None:
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
    if w is not None and w.i > w.j:
        return WitnessPair(w.j, w.i, w.h_j, w.h_i, w.g_j, w.g_i)
    return w


def witness_projections(
    h: Listing, g: Listing, m: int, n: int, length: int
) -> tuple[set[int], set[int]]:
    """The first and second indices of the witness pairs under shifts
    (m, n) with both indices below ``length``, without building the pairs.

    Index i is a first index iff some point with a larger h-value has a
    smaller g-value, and j is a second index iff some point with a smaller
    h-value has a larger g-value. One sort by h and two running extremes of
    g, the minimum from the top and the maximum from the bottom: O(length
    log length) exact comparisons.
    """
    hv = h.prefix(length + m)
    gv = g.prefix(length + n)
    by_h = sorted(range(length), key=lambda k: hv[k + m])
    g_by_h = [gv[k + n] for k in by_h]
    max_below = list(accumulate(g_by_h, max))
    min_above = list(accumulate(reversed(g_by_h), min))[::-1]
    first = {k for t, k in enumerate(by_h[:-1]) if min_above[t + 1] < g_by_h[t]}
    second = {k for t, k in enumerate(by_h[1:], 1) if max_below[t - 1] > g_by_h[t]}
    return first, second


@dataclass(frozen=True)
class Cell:
    """One shift pair's search outcome; ``witness is None`` means no witness
    was found below the bound — a candidate, explicitly inconclusive."""

    m: int
    n: int
    witness: WitnessPair | None


@dataclass(frozen=True)
class WitnessReport:
    cells: tuple[Cell, ...]

    def all_witnessed(self) -> bool:
        return all(cell.witness is not None for cell in self.cells)


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


@dataclass(frozen=True)
class MatchSuccess:
    """A target prefix co-ordered with the requested prefix of the input.

    ``picks`` records, per step, the position in the target's listing of the
    chosen element. ``drawn`` counts the target values actually drawn: up
    to the last value a first-fit pick needed, or the whole target when its
    listing ended within the fuel. It never exceeds the fuel.
    """

    values: tuple[Fraction, ...]
    picks: tuple[int, ...]
    drawn: int


@dataclass(frozen=True)
class GapEmpty:
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


@dataclass(frozen=True)
class FuelExhausted:
    """Inconclusive: the draw budget ran out before a fitting element
    appeared. ``cut_off`` marks a pool stopped early by the duplicate limit,
    so the target may still hold more values than were drawn."""

    step: int
    drawn: int
    cut_off: bool


MatchOutcome = MatchSuccess | GapEmpty | FuelExhausted


def _exact_match(h_ranks: list[int], pool: list[Fraction]) -> MatchOutcome:
    """Greedy matching into a target known to be exactly ``pool``.

    Each pick is the first pool value, in listing order, that leaves the
    rest of the input pattern embeddable. Any r distinct values inside a
    gap realize any r-element pattern, so embeddability is a count per gap:
    the values on each side of the pick inside its target gap must cover
    the input values still to come on that side of h(k) inside its input
    gap. On integer ranks both counts are rank differences (no placed value
    lies inside a gap), so the feasible picks are one rank window. Every
    other gap passed at the previous step and is unchanged, so once the
    pool holds as many values as the pattern, no window is ever empty.
    """
    if len(pool) < len(h_ranks):
        return GapEmpty(0, None, None, True, "target exhausted; no usable element in gap")
    pool_ranks = _ranks(pool)
    placed: list[int] = []  # input ranks placed so far, ascending
    matched: list[int] = []  # pool ranks of the picks, ascending alongside
    chosen: list[Fraction] = []
    picks: list[int] = []
    for k, r in enumerate(h_ranks):
        t = bisect_left(placed, r)
        h_lo, g_lo = (placed[t - 1], matched[t - 1]) if t else (-1, -1)
        h_hi, g_hi = (placed[t], matched[t]) if t < k else (len(h_ranks), len(pool))
        first, last = g_lo + (r - h_lo), g_hi - (h_hi - r)
        pick = next(p for p, q in enumerate(pool_ranks) if first <= q <= last)
        placed.insert(t, r)
        matched.insert(t, pool_ranks[pick])
        chosen.append(pool[pick])
        picks.append(pick)
    return MatchSuccess(tuple(chosen), tuple(picks), len(pool))


def match_listing(
    h: SetSpec, target: SetSpec, prefix_len: int, fuel: int
) -> MatchOutcome:
    """Greedily build a listing prefix of ``target`` co-ordered with the
    listing of ``h``.

    At step k the value h(k) ranks somewhere among h(0..k-1); the pick must
    land strictly inside the open gap between the corresponding already
    chosen target values (unbounded at the ends). Both bounds come from one
    bisection: the ranks of the placed input values and the chosen target
    values are kept sorted side by side, and co-order makes them align.

    Picks are first-fit in listing order. The target is drawn lazily, at
    most ``fuel`` values in all: a step scans the values already drawn and
    draws more only when none fits, stopping at the first new value that
    does. Each drawn value is kept beside its (numerator, denominator) key,
    and it lies in the gap when its key passes the products against both
    bound keys, the exact ``a * q < p * b`` of :class:`RankStream`: the scan
    makes no ``Fraction`` comparison. If no value within fuel fits, a gap
    oracle may still certify the gap empty. That refutes only where ``h``'s
    descriptor is a lone ``W`` (``W*``) block and the gap is unbounded above
    (below); elsewhere the picks fixed the gap (see :class:`GapEmpty`).
    Without the oracle the outcome is an inconclusive :class:`FuelExhausted`
    after the full fuel, or after a cut-off by the duplicate limit.

    When the target's stream ends within fuel, its full content is known,
    and the match restarts from step 0 with every pick checked against the
    remaining pattern (:func:`_exact_match`), so a match is found whenever
    one exists. That restart picks the same values a completed first-fit
    run would have: each first-fit pick is feasible, as its own completion
    shows.
    """
    h_ranks = _ranks(h.listing().try_prefix(prefix_len))
    signature = block_signature(h.descriptor)
    omega, omega_star = signature == [Direction.ASC], signature == [Direction.DESC]
    walk = iter(target.listing())
    pool: list[Fraction] = []
    keys: list[tuple[int, int]] = []  # (numerator, denominator) of each pool value
    placed: list[int] = []  # input ranks placed so far, ascending
    matched: list[int] = []  # pool positions of the picks, by value alongside
    picks: list[int] = []
    for k, r in enumerate(h_ranks):
        t = bisect_left(placed, r)
        # A gap end is a key too; an unbounded end is (-1, 0) below or (1, 0)
        # above, which every key with a positive denominator passes.
        lp, lq = keys[matched[t - 1]] if t else (-1, 0)
        hp, hq = keys[matched[t]] if t < k else (1, 0)
        pick = next(
            (p for p, (a, b) in enumerate(keys) if lp * b < a * lq and a * hq < hp * b), None
        )
        cut_off = False
        while pick is None and len(pool) < fuel:
            try:
                value = next(walk)
            except StopIteration:
                return _exact_match(h_ranks, pool)
            except ListingCutOff:
                cut_off = True
                break
            a, b = value.numerator, value.denominator
            pool.append(value)
            keys.append((a, b))
            if lp * b < a * lq and a * hq < hp * b:
                pick = len(pool) - 1
        if pick is None:
            lo = pool[matched[t - 1]] if t else None
            hi = pool[matched[t]] if t < k else None
            if target.gap_oracle is not None and not target.gap_oracle(lo, hi):
                refutes = (omega and hi is None) or (omega_star and lo is None)
                detail = "gap oracle certifies the gap empty"
                if not refutes:
                    detail += "; the earlier picks fixed this gap, so nothing is refuted"
                return GapEmpty(k, lo, hi, refutes, detail)
            return FuelExhausted(k, len(pool), cut_off)
        placed.insert(t, r)
        matched.insert(t, pick)
        picks.append(pick)
    return MatchSuccess(tuple(pool[p] for p in picks), tuple(picks), len(pool))


# ---------------------------------------------------------------------------
# Finite sets
# ---------------------------------------------------------------------------


def finite_coorder(a_values: list[Fraction], b_values: list[Fraction]) -> bool:
    """Finite sets are co-ordered exactly when their cardinalities match:
    listing both in ascending order gives identical patterns."""
    for values in (a_values, b_values):
        if len(set(values)) != len(values):
            raise DuplicateValuesError("finite co-order inputs must be duplicate-free")
    return len(a_values) == len(b_values)
