"""Deterministic injective streams of rationals and the built-in families.

A listing is a replay-deterministic stream with a memoized prefix: asking for
index ``k`` twice yields the identical value, or raises the identical error
where the stream raised one, and all produced values are pairwise distinct
(duplicates from the raw generator are skipped, first occurrence wins). A
:class:`SetSpec` packages a pure stream factory — the set's natural
enumeration order — together with an optional order-type descriptor and an
optional gap oracle deciding whether the set meets a given open interval.

A ``Listing`` owns mutable iterator state and is single-owner: hand it off
between threads, but do not mutate it from two at once. Fresh independent
replays come from ``SetSpec.listing()``, whose construction is pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Iterator, Optional, Sequence

from .ordertype import (
    OMEGA,
    OMEGA_STAR,
    Concat,
    Dense,
    Descriptor,
    Fin,
    block_signature,
)
from .rational import format_rational

# A gap oracle answers: does the set meet the open interval (lo, hi)?
# None stands for an unbounded end.
GapOracle = Callable[[Optional[Fraction], Optional[Fraction]], bool]

# A raw generator that repeats forever is cut off after this many consecutive
# duplicates, so eventually-constant generators do not hang. A cut-off listing
# has not ended: the set it lists may still be infinite.
DEDUP_RUN_LIMIT = 10_000

# Largest bit length a computed power may reach (about 1.2 million digits).
MAX_POWER_BITS = 4_000_000


class ListingExhausted(Exception):
    """An index beyond the last value of a listing was requested: beyond
    its end, or beyond where the duplicate limit cut it off."""

    def __init__(self, length: int, cut_off: bool = False):
        how = "cut off" if cut_off else "ended"
        super().__init__(f"listing {how} after {length} values")
        self.length = length


class ListingCutOff(Exception):
    """A walk reached the point where the duplicate limit cut a listing off;
    what follows is unknown, not absent."""


class NonNaturalIndexError(ValueError):
    """An index stream produced a value that is not a nonnegative integer."""


class DuplicateValuesError(ValueError):
    """A value list that must be duplicate-free contains repeats."""


class _Failed:
    """Stands in for a stream that raised: every later draw raises the same
    error, so the index where the stream failed keeps failing."""

    def __init__(self, error: Exception):
        self.error = error
        self.traceback = error.__traceback__

    def __next__(self) -> Fraction:
        raise self.error.with_traceback(self.traceback)


class Listing:
    """Replay-deterministic injective stream with a memoized prefix."""

    def __init__(self, stream: Iterator[Fraction]):
        self._stream = stream
        self._memo: list[Fraction] = []
        # Keyed by (numerator, denominator): equal Fractions share their
        # lowest terms, and a tuple hashes without Fraction's modular inverse.
        self._seen: set[tuple[int, int]] = set()
        self._ended = False
        self._cut_off = False

    def __iter__(self) -> Iterator[Fraction]:
        """Replay from index 0, stopping where the listing ends.

        Raises :class:`ListingCutOff` where it was cut off instead, so a
        listing drawn from this walk is cut off there too.
        """
        k = 0
        while True:
            if k == len(self._memo):
                self._fill(k + 1)
                if k == len(self._memo):
                    if self._cut_off:
                        raise ListingCutOff
                    return
            yield self._memo[k]
            k += 1

    def value_at(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError(f"listing index must be nonnegative, got {k}")
        self._fill(k + 1)
        if k >= len(self._memo):
            raise ListingExhausted(len(self._memo), self._cut_off)
        return self._memo[k]

    def prefix(self, n: int) -> list[Fraction]:
        """First ``n`` values; raises :class:`ListingExhausted` on shortfall."""
        self._fill(n)
        if len(self._memo) < n:
            raise ListingExhausted(len(self._memo), self._cut_off)
        return self._memo[:n]

    def try_prefix(self, n: int) -> list[Fraction]:
        """Up to ``n`` values, shorter if the stream ends first."""
        self._fill(n)
        return self._memo[:n]

    def is_cut_off(self) -> bool:
        """True once a duplicate run stopped the draw, here or in a walked listing."""
        return self._cut_off

    def _fill(self, n: int) -> None:
        run = 0
        while len(self._memo) < n and not (self._ended or self._cut_off):
            try:
                value = next(self._stream)
            except StopIteration:
                self._ended = True
                break
            except ListingCutOff:
                self._cut_off = True
                break
            except Exception as error:
                self._stream = _Failed(error)
                raise
            key = (value.numerator, value.denominator)
            if key in self._seen:
                run += 1
                self._cut_off = run >= DEDUP_RUN_LIMIT
                continue
            run = 0
            self._seen.add(key)
            self._memo.append(value)


@dataclass
class SetSpec:
    """A computably enumerable set of rationals, presented by a generator.

    ``make_stream`` is a pure factory: every call starts an independent
    replay of the same deterministic enumeration, whose deduplicated order is
    the set's natural listing.
    """

    name: str
    make_stream: Callable[[], Iterator[Fraction]]
    descriptor: Descriptor | None = None
    gap_oracle: GapOracle | None = None

    def listing(self) -> Listing:
        return Listing(self.make_stream())


# ---------------------------------------------------------------------------
# Gap-oracle helpers
# ---------------------------------------------------------------------------


def in_gap(v: Fraction, lo: Fraction | None, hi: Fraction | None) -> bool:
    """Does ``v`` lie strictly inside (lo, hi)? None is an unbounded end."""
    return (lo is None or v > lo) and (hi is None or v < hi)


def _meets_reciprocals(lo: Fraction | None, hi: Fraction | None) -> bool:
    """Does some 1/n with n >= 1 lie strictly inside (lo, hi)?"""
    if hi is not None and hi <= 0:
        return False
    if hi is None or hi > 1:
        n = 1
    else:
        n = math.floor(1 / hi) + 1
    candidate = Fraction(1, n)
    return lo is None or candidate > lo


def _reciprocal_oracle(center: Fraction, sign: int) -> GapOracle:
    """Oracle for the set {center + sign/n : n >= 1}."""

    def oracle(lo: Fraction | None, hi: Fraction | None) -> bool:
        if sign > 0:
            new_lo = None if lo is None else lo - center
            new_hi = None if hi is None else hi - center
        else:
            new_lo = None if hi is None else center - hi
            new_hi = None if lo is None else center - lo
        return _meets_reciprocals(new_lo, new_hi)

    return oracle


def _finite_oracle(values: Sequence[Fraction]) -> GapOracle:
    vals = list(values)

    def oracle(lo: Fraction | None, hi: Fraction | None) -> bool:
        return any(in_gap(v, lo, hi) for v in vals)

    return oracle


def _union_oracle(oracles: Sequence[GapOracle | None]) -> GapOracle | None:
    """Oracle for a union; None (unknown) when any part's oracle is."""
    if any(o is None for o in oracles):
        return None

    def oracle(lo: Fraction | None, hi: Fraction | None) -> bool:
        return any(o(lo, hi) for o in oracles)

    return oracle


def _minus_finite_oracle(
    base: GapOracle | None, removed: Sequence[Fraction]
) -> GapOracle | None:
    """Oracle for the base set with finitely many points deleted; None
    (unknown) when the base has none.

    Splitting the queried interval at the deleted points reduces the question
    to base-oracle queries on open subintervals, which exclude the points
    themselves. The points are sorted on the first query; most commands ask none.
    """
    if base is None:
        return None
    points = functools.cache(lambda: sorted(set(removed)))

    def oracle(lo: Fraction | None, hi: Fraction | None) -> bool:
        inside = [p for p in points() if in_gap(p, lo, hi)]
        bounds: list[Fraction | None] = [lo, *inside, hi]
        return any(base(bounds[t], bounds[t + 1]) for t in range(len(bounds) - 1))

    return oracle


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def builtin_harmonic() -> SetSpec:
    """Reciprocals of the positive integers, listed 1, 1/2, 1/3, ..."""

    def stream() -> Iterator[Fraction]:
        for n in count(1):
            yield Fraction(1, n)

    return SetSpec("harmonic", stream, OMEGA_STAR, _reciprocal_oracle(Fraction(0), +1))


def builtin_thirds() -> SetSpec:
    """Nonnegative multiples of 1/3, listed 0, 1/3, 2/3, ..."""

    def stream() -> Iterator[Fraction]:
        for k in count(0):
            yield Fraction(k, 3)

    def oracle(lo: Fraction | None, hi: Fraction | None) -> bool:
        k = 0 if lo is None else max(0, math.floor(3 * lo) + 1)
        return hi is None or Fraction(k, 3) < hi

    return SetSpec("thirds", stream, OMEGA, oracle)


def builtin_dyadic(index: SetSpec, name: str = "dyadic") -> SetSpec:
    """Powers 2**(-m) for each m drawn from a listing of the index set of
    naturals; each stream walks a replay of its own.

    A power of more than ``MAX_POWER_BITS`` bits is refused when drawn.
    """

    def stream() -> Iterator[Fraction]:
        for k, v in enumerate(index.listing()):
            if v.denominator != 1 or v < 0:
                raise NonNaturalIndexError(
                    f"index listing produced {format_rational(v)} at position {k}; "
                    "expected a natural number"
                )
            if v >= MAX_POWER_BITS:
                m = format_rational(v)
                raise ValueError(
                    f"index listing produced {m} at position {k}; "
                    f"2**{m} exceeds the {MAX_POWER_BITS}-bit cap"
                )
            yield Fraction(1, 2 ** int(v))

    return SetSpec(name, stream)


def build_T(i: int) -> SetSpec:
    """Block family member ``i``: values (i-1) + (n-1)/n over n = 1, 2, ...
    when ``i`` is odd (ascending, inside [i-1, i)), and i - (n-1)/n when
    ``i`` is even (descending, inside (i-1, i]).

    Each value is drawn from its closed form, (i*n - 1)/n for odd ``i`` and
    ((i-1)*n + 1)/n for even ``i``; both numerators are coprime to n.
    """
    if i < 1:
        raise ValueError(f"family index must be >= 1, got {i}")
    a, b = (i, -1) if i % 2 else (i - 1, 1)

    def stream() -> Iterator[Fraction]:
        for n in count(1):
            yield Fraction(a * n + b, n)

    if i % 2:
        # {(i-1) + (n-1)/n} == {i - 1/n}
        return SetSpec(f"T:{i}", stream, OMEGA, _reciprocal_oracle(Fraction(i), -1))
    # {i - (n-1)/n} == {(i-1) + 1/n}
    return SetSpec(f"T:{i}", stream, OMEGA_STAR, _reciprocal_oracle(Fraction(i - 1), +1))


def interleave(specs: Sequence[SetSpec]) -> SetSpec:
    """Round-robin union of the inputs' listings, first occurrence winning.

    Inputs that end drop out of the rotation; one that is cut off cuts the
    union off there. Duplicate values across inputs are skipped by the
    listing layer, so the result stays injective even when ranges overlap.
    The built-in union families list their blocks without it (see
    :func:`build_A`); it serves composed unions such as theorem5's
    ``interleave(A:i, T:i+1)``.
    """
    if not specs:
        raise ValueError("interleave needs at least one input")
    specs = list(specs)

    def stream() -> Iterator[Fraction]:
        walks = [iter(s.listing()) for s in specs]
        while walks:
            live = []
            for walk in walks:
                value = next(walk, None)
                if value is not None:
                    live.append(walk)
                    yield value
            walks = live

    oracle = _union_oracle([s.gap_oracle for s in specs])
    name = "interleave(" + ",".join(s.name for s in specs) + ")"
    return SetSpec(name, stream, None, oracle)


def build_A(i: int) -> SetSpec:
    """Union of the first ``i`` block families under strict round-robin.

    The natural listing rotates T:1, T:2, ..., T:i, T:1, ... so every block
    appears with density 1/i: round n lists each block's n-th value, drawn
    from the blocks' closed-form streams. Consecutive even/odd blocks share
    their integer boundary: for each odd s >= 3, T:s's first value s-1 is
    also T:(s-1)'s first value, so round 1 skips it. No other value repeats,
    so the raw stream is already injective.
    """
    if i < 1:
        raise ValueError(f"family index must be >= 1, got {i}")
    blocks = [build_T(s) for s in range(1, i + 1)]

    def stream() -> Iterator[Fraction]:
        rounds = zip(*(b.make_stream() for b in blocks))
        first = next(rounds)
        # T:1's first value, then each even block's; the odd blocks skipped
        # sit at the even offsets beyond 0.
        yield first[0]
        yield from first[1::2]
        for values in rounds:
            yield from values

    descriptor = Concat(tuple(b.descriptor for b in blocks))
    oracle = _union_oracle([b.gap_oracle for b in blocks])
    return SetSpec(f"A:{i}", stream, descriptor, oracle)


# ---------------------------------------------------------------------------
# Canonical enumeration of the rationals
# ---------------------------------------------------------------------------

# Height of a reduced nonzero fraction p/q is max(|p|, q). Zero is emitted at
# the head of this height's block rather than first: interval listings must
# approach their endpoint infima only after a long prefix, because the
# first-fit matcher consumes listed values in order (see coorder.match_listing).
ZERO_HEIGHT = 128


def _block_between(h: int, lo: Fraction, hi: Fraction) -> Iterator[Fraction]:
    """The positive rationals of height ``h`` inside [lo, hi], by
    denominator then numerator.

    Each part of the block is monotone in its running index, so the
    in-range part is an index range: h/q for q from ceil(h/hi) to
    floor(h/lo), and p/h for p from ceil(lo*h) to floor(hi*h). Cost is
    proportional to that range, not to h.
    """
    if hi.numerator <= 0:
        return
    q_first = max(1, -(-h * hi.denominator // hi.numerator))
    q_last = h - 1 if lo.numerator <= 0 else min(h - 1, h * lo.denominator // lo.numerator)
    for q in range(q_first, q_last + 1):
        if math.gcd(h, q) == 1:
            yield Fraction(h, q)
    p_first = max(1, -(-lo.numerator * h // lo.denominator))
    p_last = min(h, hi.numerator * h // hi.denominator)
    for p in range(p_first, p_last + 1):
        if math.gcd(p, h) == 1:
            yield Fraction(p, h)


def rationals_in_interval(a: Fraction, b: Fraction) -> SetSpec:
    """All rationals in the closed interval [a, b], in canonical order.

    The canonical order lists every rational once, by increasing height.
    The block of height ``h`` holds the positive rationals of that height,
    by denominator then numerator, then their negations in the same order;
    zero heads the block of height ``ZERO_HEIGHT``. The interval's listing
    is the subsequence inside [a, b], generated without visiting the values
    outside it.
    """
    if a > b:
        raise ValueError(
            f"interval bounds out of order: {format_rational(a)} > {format_rational(b)}"
        )
    name = f"interval:{format_rational(a)},{format_rational(b)}"
    if a == b:
        single = finite_listing([a])
        return SetSpec(name, single.make_stream, Fin(1), single.gap_oracle)

    has_zero, neg_lo, neg_hi = a <= 0 <= b, -b, -a

    def stream() -> Iterator[Fraction]:
        for h in count(1):
            if h == ZERO_HEIGHT and has_zero:
                yield Fraction(0)
            yield from _block_between(h, a, b)
            yield from (-v for v in _block_between(h, neg_lo, neg_hi))

    def oracle(lo: Fraction | None, hi: Fraction | None) -> bool:
        # With a < b, (lo, hi) meets [a, b] iff its clipped ends stay in order.
        return (a if lo is None else max(lo, a)) < (b if hi is None else min(hi, b))

    return SetSpec(name, stream, Dense(), oracle)


# ---------------------------------------------------------------------------
# Finite listings and finite edits
# ---------------------------------------------------------------------------


def finite_listing(values: Sequence[Fraction]) -> SetSpec:
    """Exactly the given values, in the given order, then the stream ends."""
    vals = list(values)
    if len(set(vals)) != len(vals):
        raise DuplicateValuesError("finite listing values must be pairwise distinct")

    def stream() -> Iterator[Fraction]:
        yield from vals

    name = "finite:" + ",".join(format_rational(v) for v in vals)
    return SetSpec(name, stream, Fin(len(vals)), _finite_oracle(vals))


def _minus_finite(spec: SetSpec, removed: Sequence[Fraction], name: str) -> SetSpec:
    """The set minus finitely many values, listed in the original order.

    Deleting finitely many points leaves every infinite block infinite, so a
    ``W``/``W*`` descriptor is kept. ``FIN(k)`` loses the removed values among
    its k listed ones. Any other shape becomes unknown: deletions can move a
    dense block's endpoints.
    """
    # Keyed by (numerator, denominator), like the listing's dedup.
    keys = frozenset((v.numerator, v.denominator) for v in removed)

    def kept(v: Fraction) -> bool:
        return (v.numerator, v.denominator) not in keys

    def stream() -> Iterator[Fraction]:
        return filter(kept, spec.listing())

    descriptor = spec.descriptor
    if isinstance(descriptor, Fin):
        listed = spec.listing().try_prefix(descriptor.size)
        descriptor = Fin(descriptor.size - sum(not kept(v) for v in listed))
    elif block_signature(descriptor) is None:
        descriptor = None
    return SetSpec(name, stream, descriptor, _minus_finite_oracle(spec.gap_oracle, removed))


def remove_finite(spec: SetSpec, values: Sequence[Fraction]) -> SetSpec:
    """The set minus finitely many values; the stream filters them out."""
    removed = frozenset(values)
    if not removed:
        return spec
    name = f"{spec.name}+drop=" + ";".join(format_rational(v) for v in sorted(removed))
    return _minus_finite(spec, removed, name)


# How far into a listing the finite-edit preconditions look. Membership is
# only semi-decidable, so checks beyond this prefix are not attempted.
EDIT_SCAN_PREFIX = 512


def add_finite(spec: SetSpec, values: Sequence[Fraction]) -> SetSpec:
    """The set plus finitely many new values, prepended in ascending order.

    Disjointness is checked against the first ``EDIT_SCAN_PREFIX`` produced
    values (and rejects duplicates within ``values`` itself); membership
    deeper in the stream is not decidable here, so a clash beyond the scanned
    prefix would surface only as a skipped duplicate in the listing.
    """
    added = sorted(set(values))
    if len(added) != len(list(values)):
        raise DuplicateValuesError("added values must be pairwise distinct")
    if not added:
        return spec
    scanned = {(v.numerator, v.denominator) for v in spec.listing().try_prefix(EDIT_SCAN_PREFIX)}
    clash = [v for v in added if (v.numerator, v.denominator) in scanned]
    if clash:
        shown = ", ".join(format_rational(v) for v in clash)
        raise ValueError(f"values already present in the set: {shown}")

    def stream() -> Iterator[Fraction]:
        yield from added
        yield from spec.make_stream()

    if isinstance(spec.descriptor, Fin):
        descriptor = Fin(spec.descriptor.size + len(added))
    else:
        descriptor = None
    oracle = _union_oracle([spec.gap_oracle, _finite_oracle(added)])
    name = f"{spec.name}+add=" + ";".join(format_rational(v) for v in added)
    return SetSpec(name, stream, descriptor, oracle)


def shift_spec(spec: SetSpec, m: int) -> SetSpec:
    """Spec whose natural listing starts ``m`` places into the original one.

    As a set this removes the first ``m`` listed values, so the descriptor
    follows the rule of :func:`remove_finite`.
    """
    if m < 0:
        raise ValueError(f"shift must be nonnegative, got {m}")
    if m == 0:
        return spec
    return _minus_finite(spec, spec.listing().try_prefix(m), f"{spec.name}+shift={m}")
