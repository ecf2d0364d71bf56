"""Seeded query sets for the three workloads.

A workload is a fixed list of CLI queries; the seed picks the values in
them (pairs, coefficients, interval positions, finite sets, modifiers) but
never the number of queries nor their sizes, so every seed costs about the
same and fails the same share of queries. Every query carries the checker
for its output. The program sees only argv and the generated ``.seq``
files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import checks
import families as fam
from families import ASC, DESC, Family


@dataclass
class Query:
    argv: list[str]
    check: checks.Check
    # The one query kept although it fails every time: a known fault.
    known_fault: bool = False
    # Index of an earlier query with the same argv whose output must match.
    twin_of: int | None = None


class _Builder:
    """Holds the seeded generator, the ``.seq`` files and one model per
    family, so that checks share each family's memoized prefix."""

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work
        self.models: dict[str, Family] = {}
        self.queries: list[Query] = []

    def model(self, ref: str, make) -> Family:
        if ref not in self.models:
            self.models[ref] = make()
            self.models[ref].ref = ref
        return self.models[ref]

    def builtin(self, ref: str) -> Family:
        if ref.startswith("T:"):
            return self.model(ref, lambda: fam.block(int(ref[2:])))
        if ref.startswith("A:"):
            return self.model(ref, lambda: fam.union(int(ref[2:])))
        return self.model(ref, {"harmonic": fam.harmonic, "thirds": fam.thirds}[ref])

    def seq_file(self, name: str, text: str) -> str:
        path = self.work / f"{name}.seq"
        path.write_text(text, encoding="utf-8")
        return f"seq:{path}"

    def mobius(self, name: str, direction: str) -> Family:
        """A seeded (a*n + b) / (c*n + d) with the given direction."""
        rng = self.rng
        while True:
            a, b, c, d = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 9)
            if (a * d - b * c > 0) == (direction == ASC) and a * d != b * c:
                break
        ref = self.seq_file(name, fam.mobius_text(a, b, c, d))
        return self.model(ref, lambda: fam.mobius(a, b, c, d))

    def monotone_pools(self, seqs: int) -> dict[tuple[str, str], list[Family]]:
        """Strictly monotone families by (direction, kind), kind being
        ``builtin`` or ``seq`` (seeded ``.seq`` files)."""
        pools = {
            (ASC, "builtin"): [self.builtin(r) for r in ("thirds", "T:1", "T:3", "T:5")],
            (DESC, "builtin"): [self.builtin(r) for r in ("harmonic", "T:2", "T:4", "T:6")],
        }
        for direction in (ASC, DESC):
            pools[direction, "seq"] = [self.mobius(f"{direction}{k}", direction) for k in range(seqs)]
        return pools

    def add(self, argv: list[str], check: checks.Check, **kwargs) -> None:
        self.queries.append(Query(argv, check, **kwargs))

    def twin(self, index: int) -> None:
        """Repeat query ``index``; its output must come out identical."""
        q = self.queries[index]
        self.queries.append(Query(list(q.argv), q.check, q.known_fault, twin_of=index))


# Kinds of the two sides of a pair; slots cycle through them so that every
# seed runs the same mix and costs about the same.
KINDS = (("builtin", "builtin"), ("builtin", "seq"), ("seq", "seq"))


def _full_scan(b: _Builder) -> None:
    """Same-direction monotone pairs: no witness exists, so the search scans
    every cell to the end and comparisons are nearly all the work."""
    pools = b.monotone_pools(4)

    def pair(slot: int) -> tuple[Family, Family]:
        direction = (ASC, DESC)[slot % 2]
        left, right = KINDS[slot // 2 % 3]
        if left == right:
            return tuple(b.rng.sample(pools[direction, left], 2))
        return b.rng.choice(pools[direction, left]), b.rng.choice(pools[direction, right])

    for slot in range(30):
        h, g = pair(slot)
        n = (150, 200, 250)[slot % 3]
        b.add(["check", h.ref, g.ref, "--prefix", str(n)], checks.check_check(h, g, n))
    for slot in range(50):
        h, g = pair(slot)
        n = (30, 40, 50, 60, 70)[slot % 5]
        argv = ["type2", h.ref, g.ref, "--mmax", "1", "--nmax", "1", "--prefix", str(n)]
        b.add(argv, checks.check_type2_text(h, g, 1, 1, n))
    for slot in range(18):
        h, g = pair(slot)
        argv = ["type2", h.ref, g.ref, "--mmax", "2", "--nmax", "1", "--prefix", "40", "--format", "json"]
        b.add(argv, checks.check_type2_json(h, g, 2, 1, 40))
    schedule = [b.rng.randint(25, 35), b.rng.randint(55, 65), 120]
    lemma_pairs = [(b.builtin("harmonic"), b.builtin("thirds")), (b.builtin("A:1"), b.builtin("A:2"))]
    b.add(["repro", "lemma5", "--schedule", ",".join(map(str, schedule))], checks.check_lemma5(lemma_pairs, schedule))
    b.twin(80)


def _modified(b: _Builder, base: Family, edit: str | None) -> Family:
    """The base family, or the base with one seeded finite edit."""
    rng = b.rng
    if edit == "shift":
        m = rng.randint(1, 6)
        return b.model(f"{base.ref}+shift={m}", lambda: fam.shifted(base, m))
    if edit == "drop":
        gone = sorted(rng.sample(base.prefix(12), 2))
        ref = base.ref + "+drop=" + ";".join(map(str, gone))
        return b.model(ref, lambda: fam.dropped(base, gone))
    if edit == "add":
        # Below every family's values, so never already present.
        extra = [F(-100 - rng.randint(0, 899), rng.randint(1, 9))]
        ref = base.ref + "+add=" + ";".join(map(str, extra))
        return b.model(ref, lambda: fam.added(base, extra))
    return base


# Edits of the two sides of an early-exit pair, cycled through by slot.
EDITS = (
    (None, None), ("shift", None), (None, "add"), ("drop", "shift"),
    ("add", "drop"), (None, "shift"), ("add", None), ("shift", "drop"),
)


def _early_exit(b: _Builder) -> None:
    """Refuted pairs whose minimal witness sits in the first indices: the
    search stops at once, leaving the union draws and the reports."""
    pools = b.monotone_pools(2)
    unions = [b.builtin(f"A:{i}") for i in range(1, 7)]
    separation = [(unions[i], unions[j]) for i in range(6) for j in range(i + 1, 6)]
    b.add(["repro", "theorem9", "--imax", "6"], checks.check_separation("theorem9", separation, 6, 10, 10, 500))
    steps = [(b.model(f"interleave(A:{i},T:{i + 1})", lambda i=i: fam.chain_step(i)), unions[0]) for i in range(1, 5)]
    b.add(["repro", "theorem5", "--imax", "5"], checks.check_separation("theorem5", steps, 5, 10, 10, 500))
    b.add(["repro", "examples"], checks.check_examples(b.builtin("harmonic"), b.builtin("thirds")))

    def pair(slot: int) -> tuple[Family, Family, str | None]:
        if slot % 3:
            i, j = b.rng.sample(range(1, 7), 2)
            h, g = unions[i - 1], unions[j - 1]
        else:
            kinds = KINDS[1] if slot % 2 else KINDS[1][::-1]
            h, g = (b.rng.choice(pools[d, k]) for d, k in zip((ASC, DESC), kinds))
        left, right = EDITS[slot % len(EDITS)]
        h2, g2 = _modified(b, h, left), _modified(b, g, right)
        # Unedited unions have distinct block signatures.
        verdict = "refuted" if (left, right) == (None, None) and slot % 3 else None
        return h2, g2, verdict

    for slot in range(60):
        h, g, verdict = pair(slot)
        b.add(["type2", h.ref, g.ref, "--format", "json"], checks.check_type2_json(h, g, 10, 10, 500, verdict))
    for slot in range(36):
        h, g, _ = pair(slot)
        b.add(["check", h.ref, g.ref, "--prefix", "500"], checks.check_check(h, g, 500))
    b.twin(3)


def _toward_zero(rng: random.Random, h: Family, width: F) -> tuple[F, F]:
    """An interval with 0 at the end a monotone input walks toward.

    Zero is listed late (height 128) and approached by +-1/k, so first-fit
    picks stay early in the pool; any other endpoint of small height is
    listed early and stops the walk at once. The far end is seeded.
    """
    far = width * F(rng.randint(980, 1020), 1000)
    return (F(0), far) if h.direction == DESC else (-far, F(0))


FINITE_VALUES = sorted({F(p, q) for q in range(1, 12) for p in range(-40, 41)})


def _match(b: _Builder) -> None:
    """Greedy matching: the target's pre-drawn pool and its listing draws
    are the work, comparisons are few."""
    rng = b.rng
    pools = b.monotone_pools(3)
    inputs = {ASC: b.builtin("thirds"), DESC: b.builtin("harmonic")}

    def into(h: Family, target: Family, n: int, fuel: int, known_fault: bool = False) -> None:
        argv = ["match", h.ref, target.ref, "--prefix", str(n), "--fuel", str(fuel)]
        b.add(argv, checks.check_match(h, target, n, fuel, inconclusive_ok=known_fault), known_fault=known_fault)

    def interval_model(a: F, c: F) -> Family:
        return b.model(f"interval:{a},{c}", lambda: fam.interval(a, c))

    for slot in range(4):
        h = inputs[(ASC, DESC)[slot % 2]]
        into(h, interval_model(*_toward_zero(rng, h, F(1))), 40, 8000)
    for slot in range(18):
        width, fuel = ((F(1, 20), 300), (F(1, 40), 150), (F(1, 80), 80))[slot % 3]
        h = inputs[(ASC, DESC)[slot % 2]]
        into(h, interval_model(*_toward_zero(rng, h, width)), 10, fuel)
    for slot in range(32):
        direction = (ASC, DESC)[slot % 2]
        into(rng.choice(pools[direction, "builtin"]), rng.choice(pools[direction, "seq"]), 20, 800)
    for slot in range(18):
        n = (20, 30, 40)[slot % 3]
        # Most targets hold enough values for a match; every sixth is short.
        size = n - 3 if slot % 6 == 5 else n + 2
        values = rng.sample(FINITE_VALUES, size)
        target = b.model("finite:" + ",".join(map(str, values)), lambda v=values: fam.finite(v))
        h = b.builtin("A:3") if slot % 2 else rng.choice(pools[(ASC, DESC)[slot // 2 % 2], "seq"])
        into(h, target, n, 10000)
    for slot in range(26):
        a = F(rng.randint(-900, 600), 997)
        target = interval_model(a, a + (F(1, 4), F(1, 8))[slot % 2])
        b.add(["list", target.ref, "--count", "200"], checks.check_list(target, 200))
    plateau = b.model(b.seq_file("plateau", fam.PLATEAU_TEXT), fam.plateau)
    pair = b.model("finite:1,2", lambda: fam.finite([F(1), F(2)]))
    into(pair, plateau, 2, 20000, known_fault=True)
    b.twin(5)


WORKLOADS = {"full-scan": _full_scan, "early-exit": _early_exit, "match": _match}


def build(name: str, seed: int, work: Path) -> list[Query]:
    """The workload's queries for this seed; ``.seq`` files go to ``work``."""
    b = _Builder(seed, work)
    WORKLOADS[name](b)
    return b.queries
