"""The benchmark's own model of every family it queries.

Values come from closed forms written here, apart from ``enumorder``: the
checkers compare the program's outputs against these, never against a
stored copy of an earlier output. Each family knows its listing, its
membership test, its extremes and, when it has one, its direction.
"""

from __future__ import annotations

import math
from fractions import Fraction as F
from itertools import count
from typing import Callable, Iterator

ASC, DESC = "asc", "desc"


class Family:
    """A set of rationals with its natural listing.

    ``make`` returns a fresh iterator over the listing. ``lo``/``hi`` are the
    set's minimum and maximum (``None`` when it has none) and ``size`` is
    ``None`` for infinite sets.
    """

    def __init__(
        self,
        ref: str,
        make: Callable[[], Iterator[F]],
        contains: Callable[[F], bool],
        direction: str | None = None,
        lo: F | None = None,
        hi: F | None = None,
        size: int | None = None,
    ):
        self.ref = ref
        self.make = make
        self.contains = contains
        self.direction = direction
        self.lo = lo
        self.hi = hi
        self.size = size
        self._memo: list[F] = []
        self._it = make()

    def prefix(self, n: int) -> list[F]:
        """The first ``n`` listed values (fewer if the set is smaller)."""
        while len(self._memo) < n:
            try:
                self._memo.append(next(self._it))
            except StopIteration:
                break
        return self._memo[:n]


def _dedup(values: Iterator[F]) -> Iterator[F]:
    seen: set[F] = set()
    for v in values:
        if v not in seen:
            seen.add(v)
            yield v


def _round_robin(makers: list[Callable[[], Iterator[F]]]) -> Iterator[F]:
    """Interleave infinite listings, first occurrence winning."""
    its = [m() for m in makers]
    return _dedup(next(it) for _ in count() for it in its)


def _is_unit_fraction(x: F) -> bool:
    return x > 0 and x.numerator == 1


def harmonic() -> Family:
    return Family(
        "harmonic",
        lambda: (F(1, n) for n in count(1)),
        _is_unit_fraction,
        DESC,
        hi=F(1),
    )


def thirds() -> Family:
    return Family(
        "thirds",
        lambda: (F(k, 3) for k in count(0)),
        lambda v: v >= 0 and (3 * v).denominator == 1,
        ASC,
        lo=F(0),
    )


def block(i: int) -> Family:
    """T:i: i - 1/n ascending for odd i, (i-1) + 1/n descending for even i."""
    if i % 2:
        return Family(
            f"T:{i}",
            lambda: (i - F(1, n) for n in count(1)),
            lambda v: v < i and _is_unit_fraction(1 / (i - v)),
            ASC,
            lo=F(i - 1),
        )
    return Family(
        f"T:{i}",
        lambda: (i - 1 + F(1, n) for n in count(1)),
        lambda v: v > i - 1 and _is_unit_fraction(1 / (v - (i - 1))),
        DESC,
        hi=F(i),
    )


def union(i: int) -> Family:
    """A:i: T:1 .. T:i in strict rotation; shared integer boundaries once."""
    blocks = [block(s) for s in range(1, i + 1)]
    return Family(
        f"A:{i}",
        lambda: _round_robin([b.make for b in blocks]),
        lambda v: any(b.contains(v) for b in blocks),
    )


def chain_step(i: int) -> Family:
    """interleave(A:i, T:i+1), the left side of theorem5's step i."""
    parts = [union(i), block(i + 1)]
    return Family(
        f"interleave(A:{i},T:{i + 1})",
        lambda: _round_robin([p.make for p in parts]),
        lambda v: any(p.contains(v) for p in parts),
    )


def mobius(a: int, b: int, c: int, d: int) -> Family:
    """(a*n + b) / (c*n + d) over n >= 1, with c, d > 0 and ad != bc.

    The step f(n+1) - f(n) has the sign of ad - bc, so the listing is
    strictly monotone and its first value is its minimum or maximum.
    """
    assert c > 0 and d > 0 and a * d != b * c

    def contains(v: F) -> bool:
        # v = f(n)  <=>  n * (a - c*v) = d*v - b; a/c itself is never reached.
        if a == c * v:
            return False
        n = (d * v - b) / (a - c * v)
        return n.denominator == 1 and n >= 1

    first = F(a + b, c + d)
    asc = a * d - b * c > 0
    return Family(
        f"mobius({a},{b},{c},{d})",
        lambda: (F(a * n + b, c * n + d) for n in count(1)),
        contains,
        ASC if asc else DESC,
        lo=first if asc else None,
        hi=None if asc else first,
    )


def mobius_text(a: int, b: int, c: int, d: int) -> str:
    """The ``.seq`` definition of :func:`mobius`."""

    def linear(x: int, y: int) -> str:
        return f"{x}*n {'-' if y < 0 else '+'} {abs(y)}"

    return f"({linear(a, b)}) / ({linear(c, d)})\n"


# The known dedup-truncation case: 0 for n < 10002, then n itself.
PLATEAU_TEXT = "case n < 10002: 0 ; case otherwise: n\n"


def plateau() -> Family:
    return Family(
        "plateau",
        lambda: _dedup(F(0) if n < 10002 else F(n) for n in count(1)),
        lambda v: v == 0 or (v.denominator == 1 and v >= 10002),
    )


def finite(values: list[F]) -> Family:
    members = frozenset(values)
    return Family(
        "finite:" + ",".join(str(v) for v in values),
        lambda: iter(values),
        members.__contains__,
        lo=min(values),
        hi=max(values),
        size=len(values),
    )


ZERO_HEIGHT = 128


def _positives_of_height(h: int, lo: F, hi: F) -> list[F]:
    """Reduced p/q > 0 with max(p, q) = h inside [lo, hi], by denominator
    then numerator: first h/q for q < h, then p/h."""
    if hi <= 0:
        return []
    q_min = max(1, math.ceil(h / hi))
    q_max = h - 1 if lo <= 0 else min(h - 1, math.floor(h / lo))
    out = [F(h, q) for q in range(q_min, q_max + 1) if math.gcd(h, q) == 1]
    p_min = max(1, math.ceil(lo * h))
    p_max = min(h, math.floor(hi * h))
    out += [F(p, h) for p in range(p_min, p_max + 1) if math.gcd(p, h) == 1]
    return out


def _canonical_in(a: F, b: F) -> Iterator[F]:
    """Rationals of [a, b] in the canonical height order, built block by
    block from the bounds rather than by filtering all of Q."""
    for h in count(1):
        if h == ZERO_HEIGHT and a <= 0 <= b:
            yield F(0)
        yield from _positives_of_height(h, a, b)
        yield from (-v for v in _positives_of_height(h, -b, -a))


def interval(a: F, b: F) -> Family:
    return Family(
        f"interval:{a},{b}",
        lambda: _canonical_in(a, b),
        lambda v: a <= v <= b,
        lo=a,
        hi=b,
    )


def shifted(base: Family, m: int) -> Family:
    def make() -> Iterator[F]:
        it = base.make()
        for _ in range(m):
            next(it)
        return it

    return Family(
        f"{base.ref}+shift={m}",
        make,
        lambda v: base.contains(v) and v not in base.prefix(m),
        base.direction,
    )


def dropped(base: Family, removed: list[F]) -> Family:
    gone = frozenset(removed)
    return Family(
        base.ref + "+drop=" + ";".join(str(v) for v in removed),
        lambda: (v for v in base.make() if v not in gone),
        lambda v: v not in gone and base.contains(v),
        base.direction,
    )


def added(base: Family, extra: list[F]) -> Family:
    first = sorted(extra)

    def make() -> Iterator[F]:
        yield from first
        yield from base.make()

    return Family(
        base.ref + "+add=" + ";".join(str(v) for v in extra),
        make,
        lambda v: v in first or base.contains(v),
    )
