"""Checkers for the CLI's outputs.

Each ``check_*`` factory returns a function ``(exit_code, stdout)`` that
raises :class:`CheckError` unless the output agrees with what the
benchmark computes itself from :mod:`families`. Nothing here calls into
``enumorder``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction as F
from typing import Callable

from families import ASC, DESC, Family

Check = Callable[[int, str], None]


class CheckError(Exception):
    """An output disagrees with the benchmark's own computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def pattern(values: list[F]) -> list[int]:
    """Rank of each value within the list."""
    ranks = [0] * len(values)
    for rank, k in enumerate(sorted(range(len(values)), key=values.__getitem__)):
        ranks[k] = rank
    return ranks


def _monotone_alike(h: Family, g: Family, length_h: int, length_g: int) -> bool:
    """Both listings strictly monotone in one direction over the prefixes."""
    if h.direction is None or h.direction != g.direction:
        return False
    for fam, length in ((h, length_h), (g, length_g)):
        v = fam.prefix(length)
        if len(v) < length:
            return False
        up = all(v[k] < v[k + 1] for k in range(length - 1))
        down = all(v[k] > v[k + 1] for k in range(length - 1))
        if not (up if fam.direction == ASC else down):
            return False
    return True


# --- shift-pair witnesses ----------------------------------------------------


def _pairs_with_max(d: int):
    """Index pairs with max(i, j) == d in lexicographic order."""
    yield from ((i, d) for i in range(d))
    yield from ((d, j) for j in range(d))


def _witness_dict(hv, gv, m, n, i, j) -> dict:
    return {
        "i": i, "j": j,
        "h_i": str(hv[i + m]), "h_j": str(hv[j + m]),
        "g_i": str(gv[i + n]), "g_j": str(gv[j + n]),
    }


def minimal_witness(hv: list[F], gv: list[F], m: int, n: int, length: int) -> dict | None:
    """Brute-force minimal witness of cell (m, n): smallest max(i, j),
    ties broken lexicographically; ``None`` when there is none below
    ``length``."""
    for d in range(1, length):
        for i, j in _pairs_with_max(d):
            if hv[i + m] < hv[j + m] and gv[i + n] > gv[j + n]:
                return _witness_dict(hv, gv, m, n, i, j)
    return None


def check_cells(h: Family, g: Family, cells: list, m_max: int, n_max: int, length: int) -> None:
    """Every cell of the (m, n) grid holds its minimal witness or, when
    there is none below ``length``, ``null``."""
    grid = [(m, n) for m in range(m_max + 1) for n in range(n_max + 1)]
    expect([(c["m"], c["n"]) for c in cells] == grid, "cells do not cover the shift grid in order")
    hv = h.prefix(length + m_max)
    gv = g.prefix(length + n_max)
    alike = _monotone_alike(h, g, length + m_max, length + n_max)
    for cell in cells:
        m, n, w = cell["m"], cell["n"], cell["witness"]
        if w is None and alike:
            continue  # same-direction monotone listings have no witness
        if w is not None:
            i, j = w["i"], w["j"]
            expect(0 <= i < length and 0 <= j < length and i != j, f"cell ({m},{n}): bad indices {i},{j}")
            mine = _witness_dict(hv, gv, m, n, i, j)
            expect(w == mine, f"cell ({m},{n}): reported {w}, values are {mine}")
            expect(F(w["h_i"]) < F(w["h_j"]) and F(w["g_i"]) > F(w["g_j"]), f"cell ({m},{n}): {w} is no witness")
            # Minimality: nothing earlier in the search order is a witness.
            first = minimal_witness(hv, gv, m, n, max(i, j) + 1)
            expect(first == w, f"cell ({m},{n}): {first} precedes reported {w}")
        else:
            expect(
                minimal_witness(hv, gv, m, n, length) is None,
                f"cell ({m},{n}): reported no witness below {length}, but one exists",
            )


# --- check -------------------------------------------------------------------

_AGREE = re.compile(r"agree on prefix (\d+): .*")
_DISAGREE = re.compile(r"disagree at \(i=(\d+), j=(\d+)\): .* orders (\S+) vs (\S+), .* orders (\S+) vs (\S+)")


def first_disagreement(hv: list[F], gv: list[F]) -> tuple | None:
    """First (i, j) scanning j upward, then i < j upward, that the two
    prefixes order oppositely."""
    if pattern(hv) == pattern(gv):
        return None
    for j in range(len(hv)):
        for i in range(j):
            if (hv[i] < hv[j]) != (gv[i] < gv[j]):
                return i, j, hv[i], hv[j], gv[i], gv[j]
    raise AssertionError("patterns differ but no pair does")


def check_check(h: Family, g: Family, length: int) -> Check:
    def check(code: int, out: str) -> None:
        hv, gv = h.prefix(length), g.prefix(length)
        found = first_disagreement(hv, gv)
        if found is None:
            match = _AGREE.fullmatch(out.strip())
            expect(code == 0 and match is not None, f"expected agreement, got exit {code}: {out!r}")
            expect(int(match[1]) == length, f"agreement on the wrong prefix: {out!r}")
            return
        match = _DISAGREE.fullmatch(out.strip())
        expect(code == 2 and match is not None, f"expected disagreement, got exit {code}: {out!r}")
        i, j = int(match[1]), int(match[2])
        reported = (i, j, *(F(x) for x in match.groups()[2:]))
        expect(reported == found, f"reported witness {reported}, first is {found}")

    return check


# --- type2 -------------------------------------------------------------------

_CANDIDATES = re.compile(r"candidate shift pairs with no witness below (\d+): (.*)")


def check_type2_text(h: Family, g: Family, m_max: int, n_max: int, length: int) -> Check:
    """Text form, for same-direction monotone pairs: every cell is a
    candidate, since such listings order every index pair alike."""

    def check(code: int, out: str) -> None:
        expect(_monotone_alike(h, g, length + m_max, length + n_max), "pair is not same-direction monotone")
        match = _CANDIDATES.fullmatch(out.strip())
        expect(code == 0 and match is not None, f"expected candidates, got exit {code}: {out!r}")
        expect(int(match[1]) == length, f"wrong prefix in {out!r}")
        cells = [tuple(int(x) for x in c.split(",")) for c in re.findall(r"\((\d+,\d+)\)", match[2])]
        grid = [(m, n) for m in range(m_max + 1) for n in range(n_max + 1)]
        expect(cells == grid, f"candidate cells {cells} are not the whole grid")

    return check


def _expect_report(report: dict, experiment: str, params: dict) -> None:
    expect(report.get("experiment") == experiment, f"experiment is {report.get('experiment')!r}")
    for key, value in params.items():
        expect(report["params"].get(key) == value, f"param {key} is {report['params'].get(key)!r}, not {value!r}")


def _expect_exit(code: int, report: dict, passed: bool) -> None:
    expect(report["passed"] is passed, f"passed is {report['passed']}, should be {passed}")
    expect(code == (0 if passed else 2), f"exit {code} with passed={passed}")


def _all_witnessed(pair: dict) -> bool:
    return all(c["witness"] is not None for c in pair["cells"])


def check_type2_json(h: Family, g: Family, m_max: int, n_max: int, length: int, verdict: str | None = None) -> Check:
    """JSON form: every cell's witness (or its absence) is checked; the
    descriptor verdict too when the benchmark knows it."""

    def check(code: int, out: str) -> None:
        report = json.loads(out)
        _expect_report(report, "type2", {"m_max": m_max, "n_max": n_max, "prefix": length})
        expect(len(report["pairs"]) == 1, "type2 reports one pair")
        pair = report["pairs"][0]
        check_cells(h, g, pair["cells"], m_max, n_max, length)
        if verdict is not None:
            expect(pair["descriptor_verdict"] == verdict, f"verdict {pair['descriptor_verdict']!r}, expected {verdict!r}")
        # type2 exits 0 exactly when some cell is a candidate.
        _expect_exit(code, report, not _all_witnessed(pair))

    return check


# --- repro -------------------------------------------------------------------


def check_separation(
    experiment: str, pairs: list[tuple[Family, Family]], i_max: int, m_max: int, n_max: int, length: int
) -> Check:
    """theorem9 (A:i vs A:j) and theorem5 (union-chain steps vs A:1): the
    listed pairs with every cell checked. theorem9 passes only when every
    pair is also signature-refuted, which holds since A:i has i alternating
    blocks."""

    def check(code: int, out: str) -> None:
        report = json.loads(out)
        params = {"i_max": i_max, "m_max": m_max, "n_max": n_max, "prefix": length}
        _expect_report(report, experiment, params)
        got = [(p["left"], p["right"]) for p in report["pairs"]]
        expect(got == [(h.ref, g.ref) for h, g in pairs], f"pairs {got}")
        for (h, g), pair in zip(pairs, report["pairs"]):
            check_cells(h, g, pair["cells"], m_max, n_max, length)
            if experiment == "theorem9":
                expect(pair["descriptor_verdict"] == "refuted", f"{h.ref} vs {g.ref} not refuted")
        _expect_exit(code, report, all(_all_witnessed(p) for p in report["pairs"]))

    return check


def check_examples(h: Family, g: Family) -> Check:
    """The worked examples: harmonic vs thirds refuted at the first check
    witness, and every fixture holding."""

    def check(code: int, out: str) -> None:
        report = json.loads(out)
        _expect_report(report, "examples", {})
        expect(report["fixtures"] and all(report["fixtures"].values()), f"fixtures {report['fixtures']}")
        i, j, *_ = first_disagreement(h.prefix(10), g.prefix(10))
        cell = {"m": 0, "n": 0, "witness": _witness_dict(h.prefix(10), g.prefix(10), 0, 0, i, j)}
        pair = report["pairs"][0]
        expect((pair["left"], pair["right"]) == ("harmonic", "thirds"), "examples pair")
        expect(pair["cells"] == [cell], f"examples cell {pair['cells']}")
        expect(pair["descriptor_verdict"] == "refuted", "harmonic vs thirds not refuted")
        _expect_exit(code, report, True)

    return check


def projection_sizes(hv: list[F], gv: list[F], m: int, n: int, length: int) -> tuple[int, int]:
    """Sizes of {i} and {j} over witness pairs (i, j) under shifts (m, n),
    by a dominance sweep instead of listing the pairs."""
    hs = [hv[k + m] for k in range(length)]
    gs = [gv[k + n] for k in range(length)]
    first = second = 0
    # i is a first index iff some point with larger h has smaller g.
    low = None
    for k in sorted(range(length), key=hs.__getitem__, reverse=True):
        if low is not None and low < gs[k]:
            first += 1
        low = gs[k] if low is None else min(low, gs[k])
    # j is a second index iff some point with smaller h has larger g.
    high = None
    for k in sorted(range(length), key=hs.__getitem__):
        if high is not None and high > gs[k]:
            second += 1
        high = gs[k] if high is None else max(high, gs[k])
    return first, second


def check_lemma5(pairs: list[tuple[Family, Family]], schedule: list[int]) -> Check:
    def check(code: int, out: str) -> None:
        report = json.loads(out)
        _expect_report(report, "lemma5", {"schedule": schedule})
        shifts = report["params"]["shifts"]
        expect(len(shifts) > 0, "no shifts")
        got = [(p["left"], p["right"]) for p in report["pairs"]]
        expect(got == [(h.ref, g.ref) for h, g in pairs], f"pairs {got}")
        passed = True
        for (h, g), pair in zip(pairs, report["pairs"]):
            expect([[e["m"], e["n"]] for e in pair["growth"]] == shifts, "growth entries do not follow the shifts")
            for entry in pair["growth"]:
                m, n = entry["m"], entry["n"]
                hv, gv = h.prefix(max(schedule) + m), g.prefix(max(schedule) + n)
                counts = [
                    dict(zip(("prefix", "first_indices", "second_indices"), (length, *projection_sizes(hv, gv, m, n, length))))
                    for length in schedule
                ]
                expect(entry["counts"] == counts, f"{h.ref} vs {g.ref} ({m},{n}): counts {entry['counts']}, expected {counts}")
                rising = all(
                    a["first_indices"] < b["first_indices"] and a["second_indices"] < b["second_indices"]
                    for a, b in zip(counts, counts[1:])
                )
                expect(entry["strictly_increasing"] is rising, "strictly_increasing flag is wrong")
                passed = passed and rising
        _expect_exit(code, report, passed)

    return check


# --- match and list ----------------------------------------------------------

_MATCHED = re.compile(r"matched (\d+) values using (\d+) draws")
_GAP = re.compile(r"gap empty at step (\d+): \((\S+), (\S+)\) — .*")
_FUEL = re.compile(r"fuel exhausted at step (\d+) after (\d+) draws")


def _bound(text: str) -> F | None:
    return None if text in ("-inf", "+inf") else F(text)


def check_match(h: Family, target: Family, length: int, fuel: int, inconclusive_ok: bool = False) -> Check:
    """A match must be a valid co-ordered prefix of the target. A refutation
    (exit 2) must follow from the pair's order shapes: a finite target
    smaller than the prefix, or a monotone infinite input walking past the
    target's extreme. Exit 3 is accepted only where the query allows it."""

    def check(code: int, out: str) -> None:
        lines = out.splitlines()
        hv = h.prefix(length)
        if code == 0:
            matched = _MATCHED.fullmatch(lines[-1]) if len(lines) == 2 else None
            expect(matched is not None, f"malformed match output {out!r}")
            values = [F(x) for x in lines[0].split(", ")]
            expect(len(values) == len(hv) == int(matched[1]), f"matched {len(values)} values, input has {len(hv)}")
            expect(int(matched[2]) <= fuel, f"used {matched[2]} draws with fuel {fuel}")
            expect(len(set(values)) == len(values), "matched values repeat")
            outside = [v for v in values if not target.contains(v)]
            expect(not outside, f"values {outside[:3]} are not in {target.ref}")
            expect(pattern(values) == pattern(hv), "matched values do not follow the input's order pattern")
            return
        if code == 2:
            gap = _GAP.fullmatch(lines[0]) if lines else None
            expect(gap is not None, f"malformed refutation {out!r}")
            lo, hi = _bound(gap[2]), _bound(gap[3])
            if target.size is not None:
                expect(target.size < len(hv), f"{target.ref} has {target.size} values, enough for a prefix of {len(hv)}")
                return
            past_max = h.direction == ASC and target.hi is not None and (lo, hi) == (target.hi, None)
            past_min = h.direction == DESC and target.lo is not None and (lo, hi) == (None, target.lo)
            expect(past_max or past_min, f"no order-shape argument refutes {h.ref} into {target.ref}: {out!r}")
            return
        fuel_out = _FUEL.fullmatch(lines[0]) if code == 3 and lines else None
        expect(inconclusive_ok and fuel_out is not None, f"unexpected exit {code}: {out!r}")
        expect(int(fuel_out[2]) <= fuel, f"used {fuel_out[2]} draws with fuel {fuel}")

    return check


def check_list(fam: Family, count: int) -> Check:
    def check(code: int, out: str) -> None:
        expect(code == 0, f"list exited {code}")
        values = [F(x) for x in out.strip().split(", ")]
        expect(values == fam.prefix(count), f"list of {fam.ref} differs from the canonical order")

    return check
