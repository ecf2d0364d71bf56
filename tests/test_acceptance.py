"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks use exact rational arithmetic; there are no tolerances anywhere.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import itertools
import json
import random
from fractions import Fraction

from enumorder.cli import main
from enumorder.coorder import (
    GapEmpty,
    MatchSuccess,
    finite_coorder,
    match_listing,
    prefix_coorder,
)
from enumorder.experiments import run_theorem9, witness_growth
from enumorder.listings import (
    build_A,
    build_T,
    builtin_harmonic,
    builtin_thirds,
    finite_listing,
    rationals_in_interval,
)
from enumorder.seqlang import compile_definition, parse

from helpers import (
    all_order_patterns,
    brute_force_coorder_oracle,
    order_pattern,
    random_spec,
    shift,
    to_text,
    valued_witnesses,
    witness_pairs,
    witness_values,
)
from test_seqlang import _random_sequence_expr


def F(*args):
    return Fraction(*args)


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}{tail}"


def test_criterion_1_finite_oracle_equivalence():
    """finite_coorder agrees with the brute-force permutation oracle on all
    pairs of duplicate-free subsets of the quarter-step grid, sizes <= 4."""
    grid = [F(k, 4) for k in range(-8, 9)]
    subsets = [
        list(c) for size in range(0, 5) for c in itertools.combinations(grid, size)
    ]
    # The oracle's pattern sets are computed once per subset; the pairwise
    # sweep then compares its defining disjointness test with the
    # cardinality rule on every pair.
    cached = [(len(s), all_order_patterns(s)) for s in subsets]
    mismatches = 0
    for size_a, patterns_a in cached:
        for size_b, patterns_b in cached:
            if (size_a == size_b) != (not patterns_a.isdisjoint(patterns_b)):
                mismatches += 1
    # Bind the public functions directly on a seeded sample of full pairs.
    rng = random.Random(101)
    sample_ok = all(
        finite_coorder(a, b) == brute_force_coorder_oracle(a, b)
        for a, b in (
            (rng.choice(subsets), rng.choice(subsets)) for _ in range(2000)
        )
    )
    _criterion(
        "criterion 1: finite co-order oracle equivalence",
        mismatches == 0 and sample_ok,
        f"{len(cached) ** 2} pairs, {mismatches} mismatches",
    )


def test_criterion_2_pattern_verdict_equivalence():
    """200 randomized listing-prefix pairs: no witness iff equal order patterns,
    and every disagreement witness records a genuine inversion."""
    rng = random.Random(202)
    checked = 0
    ok = True
    while checked < 200:
        spec_a, spec_b = random_spec(rng), random_spec(rng)
        limit = min(
            rng.randrange(2, 51),
            len(spec_a.listing().try_prefix(50)),
            len(spec_b.listing().try_prefix(50)),
        )
        if limit < 2:
            continue
        checked += 1
        h, g = spec_a.listing(), spec_b.listing()
        w = prefix_coorder(h, g, limit)
        patterns_equal = order_pattern(spec_a.listing(), limit) == order_pattern(
            spec_b.listing(), limit
        )
        if (w is None) != patterns_equal:
            ok = False
            break
        if w is not None:
            i, j = w
            h_i, h_j, g_i, g_j = witness_values(h, g, 0, 0, w)
            hv, gv = spec_a.listing().prefix(limit), spec_b.listing().prefix(limit)
            if not (
                0 <= i < j < limit
                and (h_i, h_j, g_i, g_j) == (hv[i], hv[j], gv[i], gv[j])
                and ((h_i < h_j) != (g_i < g_j))
            ):
                ok = False
                break
    _criterion(
        "criterion 2: pattern/verdict equivalence",
        ok and checked == 200,
        f"{checked} randomized pairs",
    )


def test_criterion_3_union_family_separation_matrix():
    """Full separation run: every pair of union families refuted by
    signature and witnessed in every one of the 121 shift cells."""
    report = run_theorem9(5, m_max=10, n_max=10, prefix=500)
    pairs_ok = len(report["pairs"]) == 10
    refuted = all(p["descriptor_verdict"] == "refuted" for p in report["pairs"])
    witnessed = all(
        len(p["cells"]) == 121 and all(c["witness"] is not None for c in p["cells"])
        for p in report["pairs"]
    )
    _criterion(
        "criterion 3: separation matrix at full scale",
        report["passed"] and pairs_ok and refuted and witnessed,
        "10 pairs x 121 cells",
    )


def test_criterion_4_witness_growth():
    """Projection sizes strictly increase along the prefix schedule for both
    stock refuted pairs at shifts (0,0), (3,1), (7,7)."""
    shifts = [(0, 0), (3, 1), (7, 7)]
    schedule = [50, 100, 200, 400]
    ok = True
    for spec_a, spec_b in (
        (builtin_harmonic(), builtin_thirds()),
        (build_A(1), build_A(2)),
    ):
        outcome = witness_growth(spec_a, spec_b, shifts, schedule)
        if not all(entry["strictly_increasing"] for entry in outcome["growth"]):
            ok = False
    _criterion("criterion 4: witness projection growth", ok, "2 pairs x 3 shifts")


def test_criterion_5_matching_construction():
    """(a) every listing of equal-cardinality finite pairs up to size 6
    matches; (b) the descending reciprocals match into the dense unit
    interval for prefix 50 under quadratic fuel; thirds is gap-refuted."""
    value_pools = [
        [F(0), F(1), F(-1), F(1, 2), F(2), F(-3, 2)],
        [F(7), F(-2), F(9, 4), F(3), F(-5), F(1, 3)],
    ]
    finite_ok = True
    for size in range(0, 7):
        left_values = value_pools[0][:size]
        right_values = value_pools[1][:size]
        target = finite_listing(right_values)
        for perm in itertools.permutations(left_values):
            h_spec = finite_listing(list(perm))
            outcome = match_listing(h_spec, target, size, 100)
            if not isinstance(outcome, MatchSuccess):
                finite_ok = False
                break
            rebuilt = finite_listing(list(outcome.values)).listing()
            if prefix_coorder(h_spec.listing(), rebuilt, size) is not None:
                finite_ok = False
                break
        if not finite_ok:
            break

    dense = match_listing(
        builtin_harmonic(),
        rationals_in_interval(F(0), F(1)),
        50,
        10 * 50 * 50,
    )
    dense_ok = isinstance(dense, MatchSuccess) and len(dense.values) == 50
    if dense_ok:
        rebuilt = finite_listing(list(dense.values)).listing()
        dense_ok = prefix_coorder(builtin_harmonic().listing(), rebuilt, 50) is None

    refutation = match_listing(builtin_harmonic(), builtin_thirds(), 50, 10_000)
    refuted_ok = isinstance(refutation, GapEmpty) and refutation.refutes

    _criterion(
        "criterion 5: matching construction",
        finite_ok and dense_ok and refuted_ok,
        "finite pairs to size 6; dense prefix 50; gap refutation",
    )


def test_criterion_6_witness_set_algebra():
    """Transposition and shift-consistency laws on randomized inputs."""
    rng = random.Random(606)
    trials = 0
    ok = True
    while trials < 120:
        spec_a, spec_b = random_spec(rng), random_spec(rng)
        m, n = rng.randrange(0, 7), rng.randrange(0, 7)
        limit = min(
            rng.randrange(2, 41),
            max(0, len(spec_a.listing().try_prefix(50)) - m),
            max(0, len(spec_b.listing().try_prefix(50)) - n),
        )
        if limit < 2:
            continue
        trials += 1
        h, g = spec_a.listing(), spec_b.listing()
        forward = witness_pairs(h, g, m, n, limit)
        backward = witness_pairs(g, h, n, m, limit)
        if valued_witnesses(h, g, m, n, forward) != {
            (j, i, g_j, g_i, h_j, h_i)
            for i, j, h_i, h_j, g_i, g_j in valued_witnesses(g, h, n, m, backward)
        }:
            ok = False
            break
        h_shifted, g_shifted = shift(spec_a.listing(), m), shift(spec_b.listing(), n)
        pre_shifted = witness_pairs(h_shifted, g_shifted, 0, 0, limit)
        if forward != pre_shifted or valued_witnesses(h, g, m, n, forward) != valued_witnesses(
            h_shifted, g_shifted, 0, 0, pre_shifted
        ):
            ok = False
            break
    _criterion(
        "criterion 6: witness-set algebra",
        ok and trials == 120,
        f"{trials} randomized trials",
    )


def test_criterion_7_parser_fidelity():
    """The transcribed block-family definition evaluates identically to the
    built-in construction; printing and reparsing preserves random ASTs."""
    expr = parse("case i odd: (i-1) + (n-1)/n ; case i even: i - (n-1)/n")
    family_ok = all(
        Fraction(*value(n)) == build_T(i).listing().value_at(n - 1)
        for i in range(1, 7)
        for value in [compile_definition(expr, i)]
        for n in range(1, 101)
    )
    rng = random.Random(707)
    round_trip_ok = all(
        parse(to_text(ast)) == ast
        for ast in (_random_sequence_expr(rng) for _ in range(100))
    )
    _criterion(
        "criterion 7: parser fidelity",
        family_ok and round_trip_ok,
        "600 evaluations; 100 AST round trips",
    )


def test_criterion_8_deterministic_reports(capsys):
    """Two consecutive CLI runs produce byte-identical JSON reports once the
    timing field is removed."""
    outputs = []
    for _ in range(2):
        code = main(["repro", "theorem9", "--imax", "3"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        payload.pop("timing")
        outputs.append(json.dumps(payload, indent=2, sort_keys=True).encode())
    same = outputs[0] == outputs[1]
    with capsys.disabled():
        _criterion("criterion 8: deterministic reports", same, "timing field excluded")
