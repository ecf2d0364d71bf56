"""Deterministic injective streams of rationals and the built-in families.

A listing is a replay-deterministic stream with a memoized prefix: asking for
index ``k`` twice yields an equal value, or raises the identical error where
the stream raised one, and all produced values are pairwise distinct
(duplicates from the raw generator are skipped, first occurrence wins). A
stream yields each value as its key: the (numerator, denominator) pair in
lowest terms with a positive denominator, so equal values have equal keys. The
listing stores the keys and builds a ``Fraction`` only for a value it returns.
A :class:`SetSpec` packages a pure stream factory — the set's natural
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
from itertools import count, filterfalse
from typing import Callable, Iterator, Optional, Sequence

from .ordertype import DENSE, OMEGA, OMEGA_STAR, block_signature, fin, is_finite
from .rational import format_rational

# A gap oracle answers: does the set meet the open interval (lo, hi)?
# None stands for an unbounded end.
GapOracle = Callable[[Optional[Fraction], Optional[Fraction]], bool]

# A value's key: (numerator, denominator) in lowest terms, denominator > 0.
Key = tuple[int, int]

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


class ListingCutOff(Exception):
    """A walk reached the point where the duplicate limit cut a listing off;
    what follows is unknown, not absent."""


class _Failed:
    """Stands in for a stream that raised: every later draw raises the same
    error, so the index where the stream failed keeps failing."""

    def __init__(self, error: Exception):
        self.error = error
        self.traceback = error.__traceback__

    def __next__(self) -> Key:
        raise self.error.with_traceback(self.traceback)


class Listing:
    """Replay-deterministic injective stream with a memoized prefix."""

    def __init__(self, stream: Iterator[Key]):
        self._stream = stream
        # The drawn keys, by index; callers only read them. A key tuple hashes
        # without Fraction's modular inverse.
        self.keys: list[Key] = []
        self._seen: set[Key] = set()
        self._ended = False
        self._cut_off = False

    def __iter__(self) -> Iterator[Key]:
        """Replay the keys from index 0, stopping where the listing ends.

        Raises :class:`ListingCutOff` where it was cut off instead, so a
        listing drawn from this walk is cut off there too.
        """
        k = 0
        while True:
            if k == len(self.keys):
                self._fill(k + 1)
                if k == len(self.keys):
                    if self._cut_off:
                        raise ListingCutOff
                    return
            yield self.keys[k]
            k += 1

    def draw(self, n: int) -> None:
        """Draw the first ``n`` keys; raises :class:`ListingExhausted` on shortfall."""
        self._fill(n)
        if len(self.keys) < n:
            raise ListingExhausted(len(self.keys), self._cut_off)

    def value_at(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError(f"listing index must be nonnegative, got {k}")
        self.draw(k + 1)
        return Fraction(*self.keys[k])

    def prefix(self, n: int) -> list[Fraction]:
        """First ``n`` values; raises :class:`ListingExhausted` on shortfall."""
        self.draw(n)
        return [Fraction(p, q) for p, q in self.keys[:n]]

    def try_prefix(self, n: int) -> list[Fraction]:
        """Up to ``n`` values, shorter if the stream ends first."""
        self._fill(n)
        return [Fraction(p, q) for p, q in self.keys[:n]]

    def is_cut_off(self) -> bool:
        """True once a duplicate run stopped the draw, here or in a walked listing."""
        return self._cut_off

    def _fill(self, n: int) -> None:
        run = 0
        while len(self.keys) < n and not (self._ended or self._cut_off):
            try:
                key = next(self._stream)
            except StopIteration:
                self._ended = True
                break
            except ListingCutOff:
                self._cut_off = True
                break
            except Exception as error:
                self._stream = _Failed(error)
                raise
            if key in self._seen:
                run += 1
                self._cut_off = run >= DEDUP_RUN_LIMIT
                continue
            run = 0
            self._seen.add(key)
            self.keys.append(key)


@dataclass
class SetSpec:
    """A computably enumerable set of rationals, presented by a generator.

    ``make_stream`` is a pure factory: every call starts an independent
    replay of the same deterministic enumeration of keys, whose deduplicated
    order is the set's natural listing.
    """

    name: str
    make_stream: Callable[[], Iterator[Key]]
    descriptor: str | None = None
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


def _minus_finite_oracle(base: GapOracle | None, removed: frozenset[Key]) -> GapOracle | None:
    """Oracle for the base set with finitely many points deleted; None
    (unknown) when the base has none.

    Splitting the queried interval at the deleted points reduces the question
    to base-oracle queries on open subintervals, which exclude the points
    themselves. The points are sorted on the first query; most commands ask none.
    """
    if base is None:
        return None
    points = functools.cache(lambda: sorted(Fraction(p, q) for p, q in removed))

    def oracle(lo: Fraction | None, hi: Fraction | None) -> bool:
        inside = [p for p in points() if in_gap(p, lo, hi)]
        bounds: list[Fraction | None] = [lo, *inside, hi]
        return any(base(bounds[t], bounds[t + 1]) for t in range(len(bounds) - 1))

    return oracle


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def _reciprocals(name: str, center: int, sign: int) -> SetSpec:
    """{center + sign/n : n >= 1}, listed over n = 1, 2, ... as (center*n +
    sign)/n, whose numerator is coprime to n: W* for sign +1, W for -1."""

    def stream() -> Iterator[Key]:
        for n in count(1):
            yield center * n + sign, n

    descriptor = OMEGA_STAR if sign > 0 else OMEGA
    return SetSpec(name, stream, descriptor, _reciprocal_oracle(Fraction(center), sign))


def builtin_harmonic() -> SetSpec:
    """Reciprocals of the positive integers, listed 1, 1/2, 1/3, ..."""
    return _reciprocals("harmonic", 0, +1)


def builtin_thirds() -> SetSpec:
    """Nonnegative multiples of 1/3, listed 0, 1/3, 2/3, ..."""

    def stream() -> Iterator[Key]:
        for k in count(0):
            yield (k // 3, 1) if k % 3 == 0 else (k, 3)

    def oracle(lo: Fraction | None, hi: Fraction | None) -> bool:
        k = 0 if lo is None else max(0, math.floor(3 * lo) + 1)
        return hi is None or Fraction(k, 3) < hi

    return SetSpec("thirds", stream, OMEGA, oracle)


def builtin_dyadic(index: SetSpec, name: str = "dyadic") -> SetSpec:
    """Powers 2**(-m) for each m drawn from a listing of the index set of
    naturals; each stream walks a replay of its own.

    A power of more than ``MAX_POWER_BITS`` bits is refused when drawn.
    """

    def stream() -> Iterator[Key]:
        for k, (m, q) in enumerate(index.listing()):
            if q != 1 or m < 0:
                raise ValueError(
                    f"index listing produced {format_rational(Fraction(m, q))} at position {k}; "
                    "expected a natural number"
                )
            if m >= MAX_POWER_BITS:
                text = format_rational(Fraction(m))
                raise ValueError(
                    f"index listing produced {text} at position {k}; "
                    f"2**{text} exceeds the {MAX_POWER_BITS}-bit cap"
                )
            yield 1, 2**m

    return SetSpec(name, stream)


def build_T(i: int) -> SetSpec:
    """Block family member ``i``: values (i-1) + (n-1)/n over n = 1, 2, ...
    when ``i`` is odd (ascending, inside [i-1, i)), and i - (n-1)/n when
    ``i`` is even (descending, inside (i-1, i]).

    As sets, the odd block is {i - 1/n} and the even one {(i-1) + 1/n}.
    """
    if i < 1:
        raise ValueError(f"family index must be >= 1, got {i}")
    return _reciprocals(f"T:{i}", *((i, -1) if i % 2 else (i - 1, +1)))


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

    def stream() -> Iterator[Key]:
        walks = [iter(s.listing()) for s in specs]
        while walks:
            live = []
            for walk in walks:
                key = next(walk, None)
                if key is not None:
                    live.append(walk)
                    yield key
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

    def stream() -> Iterator[Key]:
        rounds = zip(*(b.make_stream() for b in blocks))
        first = next(rounds)
        # T:1's first value, then each even block's; the odd blocks skipped
        # sit at the even offsets beyond 0.
        yield first[0]
        yield from first[1::2]
        for keys in rounds:
            yield from keys

    descriptor = " + ".join(b.descriptor for b in blocks)
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


def _block_between(h: int, lo: Fraction, hi: Fraction, sign: int) -> Iterator[Key]:
    """The keys of ``sign`` times each positive rational of height ``h``
    inside [lo, hi], by denominator then numerator.

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
            yield sign * h, q
    p_first = max(1, -(-lo.numerator * h // lo.denominator))
    p_last = min(h, hi.numerator * h // hi.denominator)
    for p in range(p_first, p_last + 1):
        if math.gcd(p, h) == 1:
            yield sign * p, h


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
        return SetSpec(name, single.make_stream, fin(1), single.gap_oracle)

    has_zero, neg_lo, neg_hi = a <= 0 <= b, -b, -a

    def stream() -> Iterator[Key]:
        for h in count(1):
            if h == ZERO_HEIGHT and has_zero:
                yield 0, 1
            yield from _block_between(h, a, b, +1)
            yield from _block_between(h, neg_lo, neg_hi, -1)

    def oracle(lo: Fraction | None, hi: Fraction | None) -> bool:
        # With a < b, (lo, hi) meets [a, b] iff its clipped ends stay in order.
        return (a if lo is None else max(lo, a)) < (b if hi is None else min(hi, b))

    return SetSpec(name, stream, DENSE, oracle)


# ---------------------------------------------------------------------------
# Finite listings and finite edits
# ---------------------------------------------------------------------------


def finite_listing(values: Sequence[Fraction]) -> SetSpec:
    """Exactly the given values, in the given order, then the stream ends."""
    vals = list(values)
    if len(set(vals)) != len(vals):
        raise ValueError("finite listing values must be pairwise distinct")
    keys = [(v.numerator, v.denominator) for v in vals]

    def stream() -> Iterator[Key]:
        return iter(keys)

    name = "finite:" + ",".join(format_rational(v) for v in vals)
    return SetSpec(name, stream, fin(len(vals)), _finite_oracle(vals))


def _minus_finite(spec: SetSpec, removed: frozenset[Key], name: str) -> SetSpec:
    """The set minus the values of finitely many keys, listed in the original
    order.

    Deleting finitely many points leaves every infinite block infinite, so a
    ``W``/``W*`` descriptor is kept. A finite set gets ``FIN(k)`` for the k
    values its edited listing holds, walked to its end. Any other shape
    becomes unknown: deletions can move a dense block's endpoints.
    """

    def stream() -> Iterator[Key]:
        return filterfalse(removed.__contains__, spec.listing())

    edited = SetSpec(name, stream, None, _minus_finite_oracle(spec.gap_oracle, removed))
    if is_finite(spec.descriptor):
        edited.descriptor = fin(len(list(edited.listing())))
    elif block_signature(spec.descriptor) is not None:
        edited.descriptor = spec.descriptor
    return edited


def remove_finite(spec: SetSpec, values: Sequence[Fraction]) -> SetSpec:
    """The set minus finitely many values; the stream filters them out."""
    removed = frozenset(values)
    if not removed:
        return spec
    name = f"{spec.name}+drop=" + ";".join(format_rational(v) for v in sorted(removed))
    return _minus_finite(spec, frozenset((v.numerator, v.denominator) for v in removed), name)


# How far into a listing the finite-edit preconditions look. Membership is
# only semi-decidable, so checks beyond this prefix are not attempted.
EDIT_SCAN_PREFIX = 512


def add_finite(spec: SetSpec, values: Sequence[Fraction]) -> SetSpec:
    """The set plus finitely many new values, prepended in ascending order.

    Disjointness is checked against the first ``EDIT_SCAN_PREFIX`` produced
    values (and rejects duplicates within ``values`` itself); membership
    deeper in the stream is not decidable here, so a clash beyond the scanned
    prefix would surface only as a skipped duplicate in the listing. A finite
    set gets ``FIN(k)`` for the k values its edited listing holds, walked to
    its end, so such a duplicate is not counted; every other descriptor
    becomes unknown.
    """
    added = sorted(set(values))
    if len(added) != len(list(values)):
        raise ValueError("added values must be pairwise distinct")
    if not added:
        return spec
    keys = [(v.numerator, v.denominator) for v in added]
    listing = spec.listing()
    listing._fill(EDIT_SCAN_PREFIX)
    scanned = set(listing.keys)
    clash = [v for v, key in zip(added, keys) if key in scanned]
    if clash:
        shown = ", ".join(format_rational(v) for v in clash)
        raise ValueError(f"values already present in the set: {shown}")

    def stream() -> Iterator[Key]:
        yield from keys
        yield from spec.make_stream()

    oracle = _union_oracle([spec.gap_oracle, _finite_oracle(added)])
    name = f"{spec.name}+add=" + ";".join(format_rational(v) for v in added)
    edited = SetSpec(name, stream, None, oracle)
    if is_finite(spec.descriptor):
        edited.descriptor = fin(len(list(edited.listing())))
    return edited


def shift_spec(spec: SetSpec, m: int) -> SetSpec:
    """Spec whose natural listing starts ``m`` places into the original one.

    As a set this removes the first ``m`` listed values, so the descriptor
    follows the rule of :func:`remove_finite`.
    """
    if m < 0:
        raise ValueError(f"shift must be nonnegative, got {m}")
    if m == 0:
        return spec
    listing = spec.listing()
    listing._fill(m)
    return _minus_finite(spec, frozenset(listing.keys[:m]), f"{spec.name}+shift={m}")
