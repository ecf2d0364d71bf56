"""Shared deterministic pools of set specs for randomized tests, and the
brute-force oracles the fast paths are checked against."""

from __future__ import annotations

import random
from fractions import Fraction

from enumorder.coorder import Agree, Disagree, WitnessPair
from enumorder.listings import (
    SetSpec,
    add_finite,
    build_A,
    build_T,
    builtin_dyadic,
    builtin_harmonic,
    builtin_thirds,
    finite_listing,
    interleave,
    rationals_in_interval,
    remove_finite,
    shift_spec,
)
from enumorder.seqlang import parse, seq_spec

_FAMILY_TEXT = "case i odd: (i-1) + (n-1)/n ; case i even: i - (n-1)/n"


def spec_factories():
    """Fresh-spec factories covering builtins and every transform."""
    return [
        builtin_harmonic,
        builtin_thirds,
        lambda: build_T(1),
        lambda: build_T(2),
        lambda: build_T(3),
        lambda: build_T(4),
        lambda: build_A(1),
        lambda: build_A(2),
        lambda: build_A(3),
        lambda: rationals_in_interval(Fraction(0), Fraction(1)),
        lambda: rationals_in_interval(Fraction(-1), Fraction(1)),
        lambda: finite_listing([Fraction(3), Fraction(1, 2), Fraction(5)]),
        lambda: finite_listing(
            [Fraction(-2), Fraction(0), Fraction(7, 3), Fraction(9), Fraction(-11, 4)]
        ),
        lambda: builtin_dyadic(
            finite_listing([Fraction(k) for k in (3, 0, 5, 1, 8, 2, 7, 4, 6, 9)]).listing()
        ),
        lambda: remove_finite(builtin_harmonic(), [Fraction(1)]),
        lambda: add_finite(builtin_thirds(), [Fraction(-5)]),
        lambda: shift_spec(builtin_harmonic(), 3),
        lambda: interleave([build_T(1), build_T(3)]),
        lambda: interleave([builtin_harmonic(), builtin_thirds()]),
        lambda: seq_spec(parse(_FAMILY_TEXT), 2, "seqfam:i=2"),
        lambda: seq_spec(parse(_FAMILY_TEXT), 5, "seqfam:i=5"),
    ]


def random_spec(rng: random.Random) -> SetSpec:
    return rng.choice(spec_factories())()


def pattern_by_counting(values):
    """Independent order-pattern oracle: entry k counts smaller values."""
    return [sum(other < v for other in values) for v in values]


def prefix_coorder_scan(h, g, length):
    """Pairwise co-order oracle: the first pair (i, j), scanning j upward
    and i upward below j, that the two prefixes order oppositely."""
    hv = h.prefix(length)
    gv = g.prefix(length)
    for j in range(length):
        for i in range(j):
            if (hv[i] < hv[j]) != (gv[i] < gv[j]):
                return Disagree(WitnessPair(i, j, hv[i], hv[j], gv[i], gv[j]))
    return Agree(length)


def minimal_witness_scan(hv, gv, m, n, length):
    """Shift-search oracle: the witness with the smallest max(i, j), ties in
    lexicographic (i, j) order, found by scanning every pair at each depth."""
    for d in range(1, length):
        hd, gd = hv[d + m], gv[d + n]
        for i in range(d):
            if hv[i + m] < hd and gv[i + n] > gd:
                return WitnessPair(i, d, hv[i + m], hd, gv[i + n], gd)
        for j in range(d):
            if hd < hv[j + m] and gd > gv[j + n]:
                return WitnessPair(d, j, hd, hv[j + m], gd, gv[j + n])
    return None
