"""Co-order checking, disagreement witnesses, shift searches, and matching.

Two listings agree on a prefix of length N (are co-ordered there) when the
relative order of every index pair coincides, equivalently when their order
patterns — the rank permutations of the prefixes — are equal. A witness pair
records two indices the listings order oppositely, together with the four
compared values.

Shifted disagreement sets generalize this: for shifts (m, n), the witness
pairs are all (i, j) with ``h(i+m) < h(j+m)`` and ``g(i+n) > g(j+n)``. A
shift pair with no witness below the search bound is only a candidate for
agreement-after-shifting, never a proof: the tool certifies witnesses, not
their absence.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, permutations
from typing import NamedTuple

from .listings import DuplicateValuesError, Listing, SetSpec, in_gap


class OracleSizeError(ValueError):
    """Input exceeds the brute-force oracle's factorial-search cap."""


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


class ShiftPair(NamedTuple):
    m: int
    n: int


@dataclass(frozen=True)
class Agree:
    n: int


@dataclass(frozen=True)
class Disagree:
    witness: WitnessPair


CoorderVerdict = Agree | Disagree


def order_pattern(h: Listing, length: int) -> list[int]:
    """Rank sequence of the prefix: entry k counts indices t with h(t) < h(k).

    A permutation of 0..length-1, since listings are injective.
    """
    values = h.prefix(length)
    by_value = sorted(range(length), key=values.__getitem__)
    ranks = [0] * length
    for rank, index in enumerate(by_value):
        ranks[index] = rank
    return ranks


def first_split(
    hv: list[Fraction], gv: list[Fraction], m: int, n: int, length: int
) -> int | None:
    """Smallest d below ``length`` such that some index pair with larger
    index d is ordered oppositely by the windows ``hv[m:]`` and ``gv[n:]``;
    None when the two length-``length`` windows are co-ordered.

    When indices 0..d-1 agree, their values sort into the same index order
    in both windows, and the indices below index d form a prefix of that
    order in each. So index d adds a disagreement exactly when its insertion
    ranks differ, and the first such d is the minimal max(i, j) over all
    disagreeing pairs. Each window keeps its values seen so far sorted, so
    reaching depth d costs O(d log d) exact comparisons, however long the
    windows are.
    """
    seen_h: list[Fraction] = []
    seen_g: list[Fraction] = []
    for d in range(length):
        h_value, g_value = hv[d + m], gv[d + n]
        rank = bisect_left(seen_h, h_value)
        if bisect_left(seen_g, g_value) != rank:
            return d
        seen_h.insert(rank, h_value)
        seen_g.insert(rank, g_value)
    return None


def prefix_coorder(h: Listing, g: Listing, length: int) -> CoorderVerdict:
    """Check co-order on prefixes of the given length.

    Agreement holds exactly when the two order patterns are equal. On
    disagreement, the witness is the first violating pair when scanning j
    upward and, inside each j, i upward over i < j.
    """
    hv = h.prefix(length)
    gv = g.prefix(length)
    j = first_split(hv, gv, 0, 0, length)
    if j is None:
        return Agree(length)
    i = next(i for i in range(j) if (hv[i] < hv[j]) != (gv[i] < gv[j]))
    return Disagree(WitnessPair(i, j, hv[i], hv[j], gv[i], gv[j]))


def witness_pairs(
    h: Listing, g: Listing, m: int, n: int, length: int
) -> list[WitnessPair]:
    """All witness pairs under shifts (m, n) with both indices below
    ``length``, in lexicographic (i, j) order."""
    hv = h.prefix(length + m)
    gv = g.prefix(length + n)
    found = []
    for i in range(length):
        for j in range(length):
            if i != j and hv[i + m] < hv[j + m] and gv[i + n] > gv[j + n]:
                found.append(
                    WitnessPair(i, j, hv[i + m], hv[j + m], gv[i + n], gv[j + n])
                )
    return found


def project_first(pairs: list[WitnessPair]) -> set[int]:
    """Indices appearing as the first component of some witness pair."""
    return {p.i for p in pairs}


def project_second(pairs: list[WitnessPair]) -> set[int]:
    """Indices appearing as the second component of some witness pair."""
    return {p.j for p in pairs}


def witness_projections(
    h: Listing, g: Listing, m: int, n: int, length: int
) -> tuple[set[int], set[int]]:
    """``project_first`` and ``project_second`` of :func:`witness_pairs`,
    without building the pairs.

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
    m_max: int
    n_max: int
    prefix: int
    cells: tuple[Cell, ...]

    def all_witnessed(self) -> bool:
        return all(cell.witness is not None for cell in self.cells)

    def candidates(self) -> list[Cell]:
        return [cell for cell in self.cells if cell.witness is None]


def _minimal_witness(
    hv: list[Fraction], gv: list[Fraction], m: int, n: int, length: int
) -> WitnessPair | None:
    # Smallest max(i, j) first, ties in lexicographic (i, j) order: every
    # (i, d) with i < d comes before every (d, j).
    d = first_split(hv, gv, m, n, length)
    if d is None:
        return None
    hd, gd = hv[d + m], gv[d + n]
    for i in range(d):
        if hv[i + m] < hd and gv[i + n] > gd:
            return WitnessPair(i, d, hv[i + m], hd, gv[i + n], gd)
    j = next(j for j in range(d) if hd < hv[j + m] and gd > gv[j + n])
    return WitnessPair(d, j, hd, hv[j + m], gd, gv[j + n])


def search_shift_witnesses(
    h: Listing, g: Listing, m_max: int, n_max: int, length: int
) -> WitnessReport:
    """Minimal witness (or candidate marker) for every shift pair up to the
    bounds, with both indices below ``length``."""
    hv = h.prefix(length + m_max)
    gv = g.prefix(length + n_max)
    cells = []
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            cells.append(Cell(m, n, _minimal_witness(hv, gv, m, n, length)))
    return WitnessReport(m_max, n_max, length, tuple(cells))


# ---------------------------------------------------------------------------
# Greedy matching construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchSuccess:
    """A target prefix co-ordered with the requested prefix of the input.

    ``picks`` records, per step, the position in the target's listing of the
    chosen element; ``drawn`` is the number of fresh elements consumed.
    """

    values: tuple[Fraction, ...]
    picks: tuple[int, ...]
    drawn: int


@dataclass(frozen=True)
class GapEmpty:
    """Sound refutation for this input listing: the required open gap holds
    no usable element of the target."""

    step: int
    lo: Fraction | None
    hi: Fraction | None
    partial: tuple[Fraction, ...]
    detail: str


@dataclass(frozen=True)
class FuelExhausted:
    """Inconclusive: the draw budget ran out before a fitting element
    appeared. ``cut_off`` marks a pool stopped early by the duplicate limit,
    so the target may still hold more values than were drawn."""

    step: int
    partial: tuple[Fraction, ...]
    drawn: int
    cut_off: bool


MatchOutcome = MatchSuccess | GapEmpty | FuelExhausted


def _exact_feasible(
    hv: list[Fraction],
    k: int,
    chosen: list[Fraction],
    candidate: Fraction,
    pool: list[Fraction],
    used: list[bool],
    pick_index: int,
) -> bool:
    """With the target fully known, can the remaining pattern still embed if
    the candidate is placed at step k?

    Bucket the future input values by the placed input values and the unused
    pool by the placed target values: ranks align, and any r distinct values
    inside a gap realize any r-element pattern, so per-gap counting is exact.
    """
    h_bounds = sorted(hv[: k + 1])
    g_bounds = sorted(chosen + [candidate])
    need = [0] * (k + 2)
    for f in range(k + 1, len(hv)):
        need[bisect_left(h_bounds, hv[f])] += 1
    have = [0] * (k + 2)
    for p, value in enumerate(pool):
        if not used[p] and p != pick_index:
            have[bisect_left(g_bounds, value)] += 1
    return all(have[t] >= need[t] for t in range(k + 2))


def match_listing(
    h: Listing, target: SetSpec, prefix_len: int, fuel: int
) -> MatchOutcome:
    """Greedily build a listing prefix of ``target`` co-ordered with ``h``.

    At step k the value h(k) ranks somewhere among h(0..k-1); the pick must
    land strictly inside the open gap between the corresponding already
    chosen target values (unbounded at the ends). The target's listing is
    probed up front — at most ``fuel`` fresh values, stopping early if the
    stream ends — and picks scan the drawn pool in listing order.

    When the probe exhausts the target (its stream ends, rather than being
    cut off by the duplicate limit), its full content is known and every
    pick is feasibility-checked against the remaining pattern, so a match is
    found whenever one exists. Otherwise picks are plain first-fit; if no
    drawn value fits, a gap oracle may still certify the gap empty (a sound
    refutation for this ``h``), and failing that the outcome is an
    inconclusive :class:`FuelExhausted`.
    """
    hv = h.try_prefix(prefix_len)
    target_listing = target.listing()
    pool = target_listing.try_prefix(fuel)
    exhausted = target_listing.is_exhausted()
    used = [False] * len(pool)
    chosen: list[Fraction] = []
    picks: list[int] = []

    for k in range(len(hv)):
        lo: Fraction | None = None
        hi: Fraction | None = None
        for t in range(k):
            if hv[t] < hv[k]:
                if lo is None or chosen[t] > lo:
                    lo = chosen[t]
            else:
                if hi is None or chosen[t] < hi:
                    hi = chosen[t]
        pick = None
        for p, value in enumerate(pool):
            if used[p] or not in_gap(value, lo, hi):
                continue
            if exhausted and not _exact_feasible(hv, k, chosen, value, pool, used, p):
                continue
            pick = p
            break
        if pick is None:
            if exhausted:
                return GapEmpty(
                    k, lo, hi, tuple(chosen), "target exhausted; no usable element in gap"
                )
            if target.gap_oracle is not None and not target.gap_oracle(lo, hi):
                return GapEmpty(k, lo, hi, tuple(chosen), "gap oracle certifies the gap empty")
            return FuelExhausted(k, tuple(chosen), len(pool), target_listing.is_cut_off())
        used[pick] = True
        chosen.append(pool[pick])
        picks.append(pick)
    return MatchSuccess(tuple(chosen), tuple(picks), len(pool))


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


ORACLE_SIZE_CAP = 8


def _pattern_of(values: tuple[Fraction, ...]) -> tuple[int, ...]:
    return tuple(sum(other < v for other in values) for v in values)


def all_order_patterns(values: list[Fraction]) -> frozenset[tuple[int, ...]]:
    """Order patterns realizable by listing the values in every order."""
    return frozenset(_pattern_of(perm) for perm in permutations(values))


def brute_force_coorder_oracle(
    a_values: list[Fraction], b_values: list[Fraction]
) -> bool:
    """Independent check by exhaustive permutation search: true when some
    orderings of the two lists share an order pattern."""
    for values in (a_values, b_values):
        if len(values) > ORACLE_SIZE_CAP:
            raise OracleSizeError(
                f"oracle capped at {ORACLE_SIZE_CAP} values, got {len(values)}"
            )
        if len(set(values)) != len(values):
            raise DuplicateValuesError("oracle inputs must be duplicate-free")
    return not all_order_patterns(a_values).isdisjoint(all_order_patterns(b_values))
