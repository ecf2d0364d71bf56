"""Shared deterministic pools of set specs for randomized tests, and the
brute-force oracles the fast paths are checked against."""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import count, islice, permutations

from enumorder.coorder import (
    FuelExhausted,
    GapEmpty,
    MatchSuccess,
    WitnessPair,
)
from enumorder.listings import (
    ZERO_HEIGHT,
    DuplicateValuesError,
    Listing,
    SetSpec,
    add_finite,
    build_A,
    build_T,
    builtin_dyadic,
    builtin_harmonic,
    builtin_thirds,
    finite_listing,
    in_gap,
    interleave,
    rationals_in_interval,
    remove_finite,
    shift_spec,
)
from enumorder.ordertype import Direction, block_signature
from enumorder.rational import format_rational
from enumorder.seqlang import (
    MAX_POWER_BITS,
    BinOp,
    EvalDivisionByZero,
    EvalPowerTooLarge,
    Lit,
    Neg,
    Otherwise,
    ParityGuard,
    Piecewise,
    Pow,
    Var,
    parse,
    seq_spec,
)

_FAMILY_TEXT = "case i odd: (i-1) + (n-1)/n ; case i even: i - (n-1)/n"

# Numerators 2**100 - 1 + k over the prime 2**89 - 1: both parts pass 2**64,
# every float rounds them to one value, and the numerators' low 64 bits wrap
# from 2**64 - 1 to 0 between WIDE[0] and WIDE[1]. Only an exact comparison
# orders them.
WIDE = [Fraction(2**100 - 1 + k, 2**89 - 1) for k in range(7)]


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
            finite_listing([Fraction(k) for k in (3, 0, 5, 1, 8, 2, 7, 4, 6, 9)])
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


def order_pattern(h, length):
    """Rank sequence of the prefix: entry k counts indices t with h(t) < h(k).

    A permutation of 0..length-1, since listings are injective.
    """
    values = h.prefix(length)
    rank = {v: r for r, v in enumerate(sorted(values))}
    return [rank[v] for v in values]


def witness_pairs(h, g, m, n, length):
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


def project_first(pairs):
    """Indices appearing as the first component of some witness pair."""
    return {p.i for p in pairs}


def project_second(pairs):
    """Indices appearing as the second component of some witness pair."""
    return {p.j for p in pairs}


def _shortfall(h, g, h_need, g_need):
    """Raise the shortfall an eager draw of h's values, then g's, raises."""
    h.prefix(h_need)
    g.prefix(g_need)
    raise AssertionError("no listing falls short of the values needed")


def prefix_coorder_scan(h, g, length):
    """Pairwise co-order oracle: the first pair (i, j), scanning j upward
    and i upward below j, that the two prefixes order oppositely; None when
    they agree.

    Scans the part of the prefix both listings have; raises their shortfall
    only when no pair there disagrees, as agreement needs the rest."""
    hv = h.try_prefix(length)
    gv = g.try_prefix(length)
    scanned = min(len(hv), len(gv))
    for j in range(scanned):
        for i in range(j):
            if (hv[i] < hv[j]) != (gv[i] < gv[j]):
                return WitnessPair(i, j, hv[i], hv[j], gv[i], gv[j])
    if scanned < length:
        _shortfall(h, g, length, length)
    return None


def minimal_witness_scan(h, g, m, n, length):
    """Shift-search oracle: the witness with the smallest max(i, j), ties in
    lexicographic (i, j) order, found by scanning every pair at each depth.

    Scans the depths both shifted windows have; raises their shortfall only
    when no witness lies there, as a candidate needs the rest."""
    hv = h.try_prefix(length + m)[m:]
    gv = g.try_prefix(length + n)[n:]
    scanned = min(len(hv), len(gv))
    for d in range(1, scanned):
        hd, gd = hv[d], gv[d]
        for i in range(d):
            if hv[i] < hd and gv[i] > gd:
                return WitnessPair(i, d, hv[i], hd, gv[i], gd)
        for j in range(d):
            if hd < hv[j] and gd > gv[j]:
                return WitnessPair(d, j, hd, hv[j], gd, gv[j])
    if scanned < length:
        _shortfall(h, g, length + m, length + n)
    return None


# The per-cell loop that coorder's shared rank streams replaced, kept as the
# oracle for every cell of a shift search.
def minimal_witness(
    h: Listing, g: Listing, m: int, n: int, length: int, *, h_need: int | None = None
) -> WitnessPair | None:
    """The witness pair with the smallest max(i, j), ties in lexicographic
    (i, j) order, that the windows of ``h`` from index m and of ``g`` from
    index n order oppositely, both indices below ``length``; None when the
    two length-``length`` windows are co-ordered.

    When indices 0..d-1 agree, their values sort into the same index order
    in both windows, and the indices below index d form a prefix of that
    order in each. So index d adds a disagreement exactly when its insertion
    ranks differ, and the first such d is the minimal max(i, j) over all
    disagreeing pairs. Each window keeps its values seen so far sorted, so
    reaching depth d costs O(d log d) exact comparisons, however long the
    windows are.

    At that depth, the earlier indices that disagree with d are exactly
    those whose shared sorted position lies between d's two insertion
    ranks, so they all lie on one side of h(d). The first index i with
    ``(h_i < h_d) != (g_i < g_d)`` is therefore the minimal witness,
    reported as (i, d) when h_i < h_d and as (d, i) otherwise.

    Each window is read with ``value_at`` as d advances, so only ``h`` up to
    index m + d and ``g`` up to index n + d are drawn. A window that ends
    before the split raises :class:`ListingExhausted`. Errors come in the
    order an eager draw would raise them, the first ``h_need`` values of
    ``h`` (default ``length + m``) before any of ``g``: when a read of
    ``g`` fails, ``h`` is drawn that far first.
    """
    h_at, g_at = h.value_at, g.value_at
    seen_h: list[Fraction] = []
    seen_g: list[Fraction] = []
    for d in range(length):
        h_d = h_at(d + m)
        try:
            g_d = g_at(d + n)
        except Exception:
            h.prefix(length + m if h_need is None else h_need)
            raise
        rank = bisect_left(seen_h, h_d)
        if bisect_left(seen_g, g_d) != rank:
            hv, gv = h.prefix(m + d), g.prefix(n + d)
            i = next(i for i in range(d) if (hv[m + i] < h_d) != (gv[n + i] < g_d))
            h_i, g_i = hv[m + i], gv[n + i]
            if h_i < h_d:
                return WitnessPair(i, d, h_i, h_d, g_i, g_d)
            return WitnessPair(d, i, h_d, h_i, g_d, g_i)
        seen_h.insert(rank, h_d)
        seen_g.insert(rank, g_d)
    return None


def exact_feasible(hv, k, chosen, candidate, pool, used, pick_index):
    """Feasibility oracle: with the target fully known, can the rest of the
    input pattern still embed if the candidate is placed at step k?

    Buckets the future input values by the placed input values and the
    unused pool by the placed target values, and compares every bucket.
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


def match_listing_eager(h, target, prefix_len, fuel):
    """Matcher oracle: draws ``fuel`` target values before the first pick,
    scans every chosen value for the gap bounds, and checks every gap of
    every in-gap candidate when the draw showed the target's end. An empty
    gap refutes when the target is exhausted, or when ``h``'s set is an ω
    (ω*) and nothing of the target lies above (below) the gap's bound."""
    hv = h.listing().try_prefix(prefix_len)
    target_listing = target.listing()
    pool = target_listing.try_prefix(fuel)
    # A short draw means the listing ended or was cut off.
    exhausted = len(pool) < fuel and not target_listing.is_cut_off()
    used = [False] * len(pool)
    chosen = []
    picks = []
    for k in range(len(hv)):
        lo = None
        hi = None
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
            if exhausted and not exact_feasible(hv, k, chosen, value, pool, used, p):
                continue
            pick = p
            break
        if pick is None:
            if exhausted:
                return GapEmpty(k, lo, hi, True, "target exhausted; no usable element in gap")
            if target.gap_oracle is not None and not target.gap_oracle(lo, hi):
                unbounded_end = {Direction.ASC: hi, Direction.DESC: lo}
                signature = block_signature(h.descriptor) or []
                refutes = len(signature) == 1 and unbounded_end[signature[0]] is None
                detail = "gap oracle certifies the gap empty"
                if not refutes:
                    detail += "; the earlier picks fixed this gap, so nothing is refuted"
                return GapEmpty(k, lo, hi, refutes, detail)
            return FuelExhausted(k, len(pool), target_listing.is_cut_off())
        used[pick] = True
        chosen.append(pool[pick])
        picks.append(pick)
    return MatchSuccess(tuple(chosen), tuple(picks), len(pool))


def shift(h, m):
    """Listing whose index ``i`` reads index ``i + m`` of ``h``."""
    return Listing(islice(h, m, None))


# The block and union builders that the closed forms replaced, kept as their
# oracles: a running Fraction sum per value, and a union that interleaves the
# block listings and lets the listing layer skip the shared boundaries.
def build_T_by_addition(i):
    """T:i's listing as (i-1) + (n-1)/n for odd i and i - (n-1)/n for even i."""

    def stream():
        for n in count(1):
            yield (i - 1) + Fraction(n - 1, n) if i % 2 else i - Fraction(n - 1, n)

    return SetSpec(f"T:{i}", stream)


def build_A_by_interleave(i):
    """A:i's listing as the round robin of T:1 .. T:i, repeats skipped."""
    return interleave([build_T_by_addition(s) for s in range(1, i + 1)])


def _height_block(h):
    """Positive rationals of height ``h``, by denominator then numerator."""
    out = []
    for q in range(1, h + 1):
        if q < h:
            if math.gcd(h, q) == 1:
                out.append(Fraction(h, q))
        else:
            out.extend(Fraction(p, h) for p in range(1, h + 1) if math.gcd(p, h) == 1)
    return out


def rationals():
    """Every rational exactly once, by increasing height: the canonical
    enumeration that interval listings restrict.

    Within a height block: positives, then their negations; zero heads the
    block of height ``ZERO_HEIGHT``.
    """
    for h in count(1):
        if h == ZERO_HEIGHT:
            yield Fraction(0)
        block = _height_block(h)
        yield from block
        yield from (-v for v in block)


def rationals_in_interval_filtered(a, b):
    """Interval-stream oracle: the canonical enumeration of all rationals,
    filtered to [a, b]."""
    return (v for v in rationals() if a <= v <= b)


def minus_finite_oracle_eager(base, removed):
    """Gap oracle of a set with finitely many points deleted, its points
    sorted up front: the form the lazily sorting oracle replaced."""
    points = sorted(set(removed))

    def oracle(lo, hi):
        inside = [p for p in points if in_gap(p, lo, hi)]
        bounds = [lo, *inside, hi]
        return any(base(bounds[t], bounds[t + 1]) for t in range(len(bounds) - 1))

    return oracle


ORACLE_SIZE_CAP = 8


class OracleSizeError(ValueError):
    """Input exceeds the brute-force oracle's factorial-search cap."""


def all_order_patterns(values):
    """Order patterns realizable by listing the values in every order."""
    return frozenset(tuple(pattern_by_counting(perm)) for perm in permutations(values))


def brute_force_coorder_oracle(a_values, b_values):
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


def evaluate_by_walk(expr, i, n):
    """AST-walking oracle for ``seqlang.compile_definition``: a ``Fraction``
    at every node, the first matching guard selecting the case."""
    body = _select(expr, i, n)
    return _eval(body, i, n)


def _select(expr, i, n):
    if not isinstance(expr, Piecewise):
        return expr
    for clause in expr.clauses:
        if _guard_accepts(clause.guard, i, n):
            return clause.body
    raise RuntimeError("piecewise dispatch fell through a total clause list")


def _guard_accepts(guard, i, n):
    if guard is None or isinstance(guard, Otherwise):
        return True
    if isinstance(guard, ParityGuard):
        return (i % 2 == 1) == (guard.parity == "odd")
    if guard.op == "<":
        return n < guard.bound
    return n >= guard.bound


def _eval(e, i, n):
    if isinstance(e, Lit):
        return Fraction(e.value)
    if isinstance(e, Var):
        return Fraction(n if e.name == "n" else i)
    if isinstance(e, Neg):
        return -_eval(e.operand, i, n)
    if isinstance(e, Pow):
        base = _eval(e.base, i, n)
        bits = max(base.numerator.bit_length(), base.denominator.bit_length()) * e.exponent
        if bits > MAX_POWER_BITS:
            raise EvalPowerTooLarge(i, n, bits)
        return base**e.exponent
    left = _eval(e.left, i, n)
    right = _eval(e.right, i, n)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    if right == 0:
        raise EvalDivisionByZero(i, n)
    return left / right


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_text(expr):
    """Printer oracle of the ``.seq`` parser: renders a definition to source
    text, and reparsing the text yields a structurally identical AST."""
    if isinstance(expr, Piecewise):
        return " ; ".join(_clause_text(c) for c in expr.clauses)
    return _expr_text(expr)


def _clause_text(clause):
    if clause.guard is None:
        return _expr_text(clause.body)
    guard = clause.guard
    if isinstance(guard, Otherwise):
        head = "case otherwise"
    elif isinstance(guard, ParityGuard):
        head = f"case i {guard.parity}"
    else:
        head = f"case n {guard.op} {format_rational(Fraction(guard.bound))}"
    return f"{head}: {_expr_text(clause.body)}"


def _expr_text(e):
    if isinstance(e, Lit):
        return format_rational(Fraction(e.value))
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Pow):
        return f"{_atom_text(e.base)}^{e.exponent}"
    if isinstance(e, Neg):
        child = e.operand
        if isinstance(child, (Lit, Var, Pow)):
            return f"-{_expr_text(child)}"
        return f"-({_expr_text(child)})"
    level = _PRECEDENCE[e.op]
    left = _expr_text(e.left)
    if isinstance(e.left, BinOp) and _PRECEDENCE[e.left.op] < level:
        left = f"({left})"
    right = _expr_text(e.right)
    # Left associativity: an equal-precedence right child needs parentheses.
    if isinstance(e.right, BinOp) and _PRECEDENCE[e.right.op] <= level:
        right = f"({right})"
    return f"{left} {e.op} {right}"


def _atom_text(e):
    if isinstance(e, (Lit, Var)):
        return _expr_text(e)
    return f"({_expr_text(e)})"
