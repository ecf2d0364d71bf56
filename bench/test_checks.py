"""Each checker accepts the program's real output and rejects a corrupted one.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import families as fam  # noqa: E402
from run import without_timing  # noqa: E402
from enumorder.cli import main  # noqa: E402


def run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def named(family: fam.Family, ref: str) -> fam.Family:
    family.ref = ref
    return family


class CheckerTest(unittest.TestCase):
    def assertAccepts(self, check, code, out):
        check(code, out)

    def assertRejects(self, check, code, out):
        with self.assertRaises(checks.CheckError):
            check(code, out)

    def test_check_agreement_and_witness(self):
        h, g = fam.harmonic(), fam.block(2)
        check = checks.check_check(h, g, 50)
        code, out = run("check", "harmonic", "T:2", "--prefix", "50")
        self.assertAccepts(check, code, out)
        self.assertRejects(check, code, out.replace("50", "49", 1))
        self.assertRejects(check, 2, "disagree at (i=0, j=1): harmonic orders 1 vs 1/2, T:2 orders 2 vs 3/2\n")

        h, g = fam.union(3), fam.union(5)
        check = checks.check_check(h, g, 40)
        code, out = run("check", "A:3", "A:5", "--prefix", "40")
        self.assertAccepts(check, code, out)
        self.assertRejects(check, code, out.replace("(i=1, j=2)", "(i=0, j=2)"))
        self.assertRejects(check, 0, "agree on prefix 40: A:3 ~ A:5\n")

    def test_type2_text_needs_every_cell(self):
        check = checks.check_type2_text(fam.thirds(), fam.block(3), 1, 1, 30)
        code, out = run("type2", "thirds", "T:3", "--mmax", "1", "--nmax", "1", "--prefix", "30")
        self.assertAccepts(check, code, out)
        self.assertRejects(check, code, out.replace(", (1,1)", ""))
        self.assertRejects(check, 2, "every shift pair has a witness below 30\n")

    def test_type2_json_witnesses(self):
        h = named(fam.added(named(fam.union(2), "A:2"), [F(-5)]), "A:2+add=-5")
        g = named(fam.shifted(named(fam.union(4), "A:4"), 2), "A:4+shift=2")
        check = checks.check_type2_json(h, g, 3, 3, 100)
        code, out = run("type2", h.ref, g.ref, "--mmax", "3", "--nmax", "3", "--prefix", "100", "--format", "json")
        self.assertAccepts(check, code, out)
        report = json.loads(out)
        cells = report["pairs"][0]["cells"]
        first = cells[0]["witness"]
        # Another real witness of the same cell, later in the search order.
        hv, gv = h.prefix(103), g.prefix(103)
        later = next(
            checks._witness_dict(hv, gv, 0, 0, i, j)
            for j in range(first["j"] + 1, 100) for i in range(j)
            if hv[i] < hv[j] and gv[i] > gv[j]
        )
        for corrupt in (dict(first, h_i="7/3"), later, None):
            cells[0]["witness"] = corrupt
            self.assertRejects(check, code, json.dumps(report))

    def test_theorem9_and_theorem5(self):
        unions = [named(fam.union(i), f"A:{i}") for i in range(1, 4)]
        pairs = [(unions[0], unions[1]), (unions[0], unions[2]), (unions[1], unions[2])]
        check = checks.check_separation("theorem9", pairs, 3, 2, 2, 60)
        code, out = run("repro", "theorem9", "--imax", "3", "--mmax", "2", "--nmax", "2", "--prefix", "60")
        self.assertAccepts(check, code, out)
        report = json.loads(out)
        report["passed"] = False
        self.assertRejects(check, 2, json.dumps(report))
        report = json.loads(out)
        report["pairs"][2]["cells"][4]["witness"]["j"] += 1
        self.assertRejects(check, code, json.dumps(report))

        steps = [(named(fam.chain_step(i), f"interleave(A:{i},T:{i + 1})"), unions[0]) for i in (1, 2)]
        check = checks.check_separation("theorem5", steps, 3, 1, 1, 60)
        code, out = run("repro", "theorem5", "--imax", "3", "--mmax", "1", "--nmax", "1", "--prefix", "60")
        self.assertAccepts(check, code, out)
        report = json.loads(out)
        del report["pairs"][1]["cells"][-1]
        self.assertRejects(check, code, json.dumps(report))

    def test_examples(self):
        check = checks.check_examples(fam.harmonic(), fam.thirds())
        code, out = run("repro", "examples")
        self.assertAccepts(check, code, out)
        self.assertRejects(check, code, out.replace('"i": 0', '"i": 2'))
        self.assertRejects(check, code, out.replace("true", "false", 1))

    def test_lemma5_counts(self):
        pairs = [
            (named(fam.harmonic(), "harmonic"), named(fam.thirds(), "thirds")),
            (named(fam.union(1), "A:1"), named(fam.union(2), "A:2")),
        ]
        check = checks.check_lemma5(pairs, [20, 40])
        code, out = run("repro", "lemma5", "--schedule", "20,40")
        self.assertAccepts(check, code, out)
        report = json.loads(out)
        report["pairs"][1]["growth"][2]["counts"][1]["second_indices"] += 1
        self.assertRejects(check, code, json.dumps(report))

    def test_match(self):
        target = fam.interval(F(0), F(1, 10))
        check = checks.check_match(fam.harmonic(), target, 8, 500)
        code, out = run("match", "harmonic", "interval:0,1/10", "--prefix", "8", "--fuel", "500")
        self.assertAccepts(check, code, out)
        values, tail = out.splitlines()
        parts = values.split(", ")
        self.assertRejects(check, code, ", ".join(["1/2", *parts[1:]]) + "\n" + tail)
        self.assertRejects(check, code, ", ".join([parts[1], parts[0], *parts[2:]]) + "\n" + tail)
        self.assertRejects(check, 3, "fuel exhausted at step 3 after 500 draws\n")
        self.assertRejects(check, 2, "gap empty at step 3: (1/20, 1/13) — gap oracle certifies the gap empty\n")

        # Ascending input into a set with a maximum: refutable by shape.
        check = checks.check_match(fam.thirds(), fam.harmonic(), 5, 100)
        code, out = run("match", "thirds", "harmonic", "--prefix", "5", "--fuel", "100")
        self.assertAccepts(check, code, out)
        self.assertRejects(check, code, out.replace("(1, +inf)", "(1/2, +inf)"))

    def test_match_rejects_the_dedup_cutoff(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plateau.seq"
            path.write_text(fam.PLATEAU_TEXT)
            check = checks.check_match(fam.finite([F(1), F(2)]), fam.plateau(), 2, 20000, inconclusive_ok=True)
            code, out = run("match", "finite:1,2", f"seq:{path}", "--prefix", "2", "--fuel", "20000")
        # The target is infinite, so "target exhausted" is no refutation.
        self.assertRejects(check, code, out)
        self.assertAccepts(check, 0, "0, 10002\nmatched 2 values using 2 draws\n")
        self.assertAccepts(check, 3, "fuel exhausted at step 1 after 20000 draws\n")

    def test_list_order(self):
        target = fam.interval(F(-1, 3), F(1, 5))
        check = checks.check_list(target, 40)
        code, out = run("list", "interval:-1/3,1/5", "--count", "40")
        self.assertAccepts(check, code, out)
        parts = out.strip().split(", ")
        self.assertRejects(check, code, ", ".join([parts[1], parts[0], *parts[2:]]))

    def test_twin_outputs_compare_without_timing(self):
        _, first = run("repro", "examples")
        _, second = run("repro", "examples")
        self.assertEqual(without_timing(first), without_timing(second))
        self.assertNotEqual(without_timing(first), without_timing(first.replace("true", "false", 1)))


if __name__ == "__main__":
    unittest.main()
