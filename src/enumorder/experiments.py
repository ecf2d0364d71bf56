"""Scripted desk-scale experiment runs with machine-readable reports.

Each run produces a report, the dict of the JSON schema (``experiment``,
``params``, ``pairs``, ``fixtures``, ``passed``, ``timing``), which is
deterministic: identical parameters yield identical output apart from the
``timing`` field. Every report, the one ``type2`` writes included, is built
here by one helper that also measures its ``timing``; the command line only
writes it. Per-pair results carry a descriptor verdict (symbolic route) next
to the per-shift witness cells (empirical route); the two routes never
contradict each other on the built-in families, and the reports make the
finite search bounds explicit rather than baking them in.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

from .coorder import (
    DEFAULT_M_MAX,
    DEFAULT_N_MAX,
    DEFAULT_PREFIX,
    RankStream,
    finite_coorder,
    prefix_coorder,
    search_shift_witnesses,
    witness_projections,
)
from .listings import (
    Listing,
    SetSpec,
    build_A,
    build_T,
    builtin_harmonic,
    builtin_thirds,
    interleave,
    rationals_in_interval,
)
from .ordertype import refute_type2
from .rational import format_rational

DEFAULT_GROWTH_SHIFTS = ((0, 0), (3, 1), (7, 7))
DEFAULT_GROWTH_SCHEDULE = (50, 100, 200, 400)


# The runners' return type: a report is the dict its JSON schema documents.
# bench/layers.py reads this name when its tracer installs.
ReproReport = dict


def _texts(listing: Listing) -> Callable[[int], str]:
    """The text of a listing's value, by position, formatted on first use:
    witness values repeat across a pair's cells."""
    keys = listing.keys
    return cache(lambda k: format_rational(Fraction(*keys[k])))


def _pair(
    spec_a: SetSpec,
    spec_b: SetSpec,
    h: Listing,
    g: Listing,
    cells: Sequence[tuple[int, int, tuple[int, int] | None]],
) -> dict:
    """One pair as the report schema writes it: the descriptor verdict
    beside the (m, n, witness) cells searched on ``h`` and ``g``, the
    pair's listings. A witness (i, j) of cell (m, n) compares h(m + i),
    h(m + j), g(n + i) and g(n + j)."""
    reason = refute_type2(spec_a, spec_b)
    ht, gt = _texts(h), _texts(g)
    rows = [
        {"m": m, "n": n, "witness": None if w is None else {
            "i": w[0], "j": w[1], "h_i": ht(m + w[0]), "h_j": ht(m + w[1]),
            "g_i": gt(n + w[0]), "g_j": gt(n + w[1]),
        }}
        for m, n, w in cells
    ]
    return {
        "left": spec_a.name,
        "right": spec_b.name,
        "left_descriptor": spec_a.descriptor,
        "right_descriptor": spec_b.descriptor,
        "descriptor_verdict": "unknown" if reason is None else "refuted",
        "reason": reason,
        "cells": rows,
    }


def _witnessed(pair: dict) -> bool:
    """Does every cell of the pair hold a witness?"""
    return all(cell["witness"] is not None for cell in pair["cells"])


def _report(
    experiment: str, params: dict, start: float, pairs: list[dict], passed: bool, fixtures: dict
) -> ReproReport:
    """The report of one run that began at ``start``, a
    ``time.perf_counter()`` reading; ``elapsed_seconds`` is the time since."""
    return {
        "experiment": experiment,
        "params": params,
        "pairs": pairs,
        "fixtures": fixtures,
        "passed": passed,
        "timing": {"elapsed_seconds": time.perf_counter() - start},
    }


def _union_params(i_max: int, m_max: int, n_max: int, prefix: int) -> dict:
    if i_max < 2:
        raise ValueError(f"need at least two families, got i_max={i_max}")
    return {"i_max": i_max, "m_max": m_max, "n_max": n_max, "prefix": prefix}


def search_pair(
    spec_a: SetSpec, spec_b: SetSpec, m_max: int, n_max: int, prefix: int
) -> dict:
    """Minimal witness per shift cell for one pair, beside its descriptor
    verdict."""
    h, g = spec_a.listing(), spec_b.listing()
    report = search_shift_witnesses(h, g, m_max, n_max, prefix)
    return _pair(spec_a, spec_b, h, g, report.cells)


def run_type2(
    spec_a: SetSpec, spec_b: SetSpec, m_max: int, n_max: int, prefix: int
) -> ReproReport:
    """One pair's shift search; the run passes when some cell is a
    candidate, i.e. has no witness below the bound."""
    start = time.perf_counter()
    pair = search_pair(spec_a, spec_b, m_max, n_max, prefix)
    params = {"m_max": m_max, "n_max": n_max, "prefix": prefix}
    return _report("type2", params, start, [pair], not _witnessed(pair), {})


def run_theorem9(
    i_max: int = 5,
    m_max: int = DEFAULT_M_MAX,
    n_max: int = DEFAULT_N_MAX,
    prefix: int = DEFAULT_PREFIX,
) -> ReproReport:
    """Pairwise separation matrix for the union families A:1 .. A:i_max.

    Every pair i < j is checked on both routes; the run passes when every
    pair is refuted by signature and every shift cell has a witness.
    """
    params = _union_params(i_max, m_max, n_max, prefix)
    start = time.perf_counter()
    pairs = [
        search_pair(build_A(i), build_A(j), m_max, n_max, prefix)
        for i in range(1, i_max + 1)
        for j in range(i + 1, i_max + 1)
    ]
    passed = all(p["descriptor_verdict"] == "refuted" and _witnessed(p) for p in pairs)
    return _report("theorem9", params, start, pairs, passed, {})


def run_theorem5(
    i_max: int = 5,
    m_max: int = DEFAULT_M_MAX,
    n_max: int = DEFAULT_N_MAX,
    prefix: int = DEFAULT_PREFIX,
) -> ReproReport:
    """Union-chain steps: interleave(A:i, T:i+1) against A:1 for each i.

    Mirrors the induction that separates every union family from the first
    one; the run passes when each step has a witness in every shift cell.
    """
    params = _union_params(i_max, m_max, n_max, prefix)
    start = time.perf_counter()
    base = build_A(1)
    pairs = [
        search_pair(interleave([build_A(i), build_T(i + 1)]), base, m_max, n_max, prefix)
        for i in range(1, i_max)
    ]
    return _report("theorem5", params, start, pairs, all(map(_witnessed, pairs)), {})


def run_examples() -> ReproReport:
    """Fixture suite over the worked examples.

    The harmonic and thirds families (both recursive) are refuted on both
    routes with an unshifted witness; two equal-cardinality finite sets are
    co-ordered; the unit-interval listing reaches 1/2 among its first values.
    """
    start = time.perf_counter()
    harmonic, thirds = builtin_harmonic(), builtin_thirds()
    h, g = harmonic.listing(), thirds.listing()
    witness = prefix_coorder(h, g, 10)
    pair = _pair(harmonic, thirds, h, g, [(0, 0, witness)])
    refuted = pair["descriptor_verdict"] == "refuted"

    finite_a = [Fraction(1, 2), Fraction(3), Fraction(5)]
    finite_b = [Fraction(-1), Fraction(0), Fraction(7)]
    fixtures = {
        "finite_equal_cardinality_coorder": finite_coorder(finite_a, finite_b),
        "recursive_pair_refuted": refuted and witness is not None,
        "interval_first_values_contain_half": Fraction(1, 2)
        in rationals_in_interval(Fraction(0), Fraction(1)).listing().prefix(5),
    }
    return _report("examples", {}, start, [pair], all(fixtures.values()), fixtures)


def witness_growth(
    spec_a: SetSpec,
    spec_b: SetSpec,
    shifts: Sequence[tuple[int, int]],
    schedule: Sequence[int],
) -> dict:
    """Sizes of the witness-pair index projections along a prefix schedule.

    Requires the pair to be descriptor-refuted; for such pairs the projected
    index sets keep growing, and the recorded counts make that visible at
    desk scale.
    """
    h, g = spec_a.listing(), spec_b.listing()
    pair = _pair(spec_a, spec_b, h, g, [])
    if pair["descriptor_verdict"] != "refuted":
        raise ValueError(
            f"{spec_a.name} vs {spec_b.name} is not descriptor-refuted; "
            "growth evidence needs a refuted pair"
        )
    # One rank window per listing serves every projection: ranks from a
    # larger window keep the values' order.
    longest = max(schedule, default=0) if shifts else 0
    hr = RankStream(h, 0).global_ranks(longest + max((m for m, _ in shifts), default=0))
    gr = RankStream(g, 0).global_ranks(longest + max((n for _, n in shifts), default=0))
    growth = []
    for m, n in shifts:
        counts = []
        for length in schedule:
            first, second = witness_projections(hr, gr, m, n, length)
            counts.append(
                {"prefix": length, "first_indices": len(first), "second_indices": len(second)}
            )
        increasing = all(
            counts[t]["first_indices"] < counts[t + 1]["first_indices"]
            and counts[t]["second_indices"] < counts[t + 1]["second_indices"]
            for t in range(len(counts) - 1)
        )
        growth.append({"m": m, "n": n, "counts": counts, "strictly_increasing": increasing})
    pair["growth"] = growth
    return pair


def run_lemma5(schedule: Sequence[int] = DEFAULT_GROWTH_SCHEDULE) -> ReproReport:
    """Growth evidence for the two stock refuted pairs at the shifts
    ``DEFAULT_GROWTH_SHIFTS``; growth needs a schedule of at least two
    strictly increasing prefixes."""
    if len(schedule) < 2 or any(a >= b for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"need two or more increasing prefixes, got schedule {list(schedule)}")
    start = time.perf_counter()
    stock = [(builtin_harmonic(), builtin_thirds()), (build_A(1), build_A(2))]
    pairs = [witness_growth(a, b, DEFAULT_GROWTH_SHIFTS, schedule) for a, b in stock]
    passed = all(entry["strictly_increasing"] for p in pairs for entry in p["growth"])
    params = {"shifts": [[m, n] for m, n in DEFAULT_GROWTH_SHIFTS], "schedule": list(schedule)}
    return _report("lemma5", params, start, pairs, passed, {})
