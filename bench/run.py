"""enumorder benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload full-scan --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports ``enumorder`` from its
``src/``; nothing needs installing. The workload's fixed query set goes
through ``enumorder.cli.main(argv)`` in this process, in whole rounds,
until ``--seconds`` have passed. Every output is checked against the
benchmark's own computation (``checks.py``). The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). With ``--trace 1`` the spans are also written to
``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
MIN_SETUP_SAMPLES = 7

# Fresh interpreter to first answered query. The child reports the
# system-wide monotonic clock once its query is done.
SETUP_CODE = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from enumorder.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["list", "harmonic", "--count", "1"])
print(time.monotonic())
"""


def setup_once() -> float:
    """Seconds from spawning an interpreter until it has imported
    ``enumorder.cli`` and answered a first query."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout) - start


def without_timing(text: str) -> str:
    """The output minus the report's top-level ``timing`` entry, the one
    field allowed to differ between runs."""
    lines = text.splitlines(keepends=True)
    kept, skipping = [], False
    for line in lines:
        if line.startswith('  "timing": '):
            skipping = not line.rstrip().endswith(("},", "}"))
            continue
        if skipping:
            skipping = not line.startswith("  }")
            continue
        kept.append(line)
    return "".join(kept)


class Runner:
    def __init__(self, queries, main):
        self.queries = queries
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.verified: set[tuple[int, int | None, str]] = set()

    def run_round(self, tracer=None) -> list[float]:
        """One pass over the query set; returns each query's seconds."""
        seconds, outputs = [], []
        for index, query in enumerate(self.queries):
            out = io.StringIO()
            code, error = None, None
            if tracer is not None:
                tracer.query = index
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        code = self.main(query.argv)
                    else:
                        code = tracer.call("cli.main", self.main, (query.argv,), {})
                except Exception:
                    error = traceback.format_exc()
                seconds.append(time.perf_counter() - start)
            text = out.getvalue()
            outputs.append(text)
            self.attempted += 1
            problem = error or self.check(index, query, code, text)
            if query.twin_of is not None and problem is None:
                if without_timing(text) != without_timing(outputs[query.twin_of]):
                    problem = "output differs between two runs of the same query"
            if problem is not None:
                self.failed += 1
                if not query.known_fault:
                    self.unexpected.append(f"{' '.join(query.argv)}: {problem}")
        return seconds

    def check(self, index, query, code, text) -> str | None:
        """None when the output passes its checker. An output identical to
        one this query already passed with is not checked again."""
        key = (index if query.twin_of is None else query.twin_of, code, without_timing(text))
        if key in self.verified:
            return None
        try:
            query.check(code, text)
        except Exception as exc:  # a checker error is a failed check too
            return f"{type(exc).__name__}: {exc}"
        self.verified.add(key)
        return None


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "enumorder" / "cli.py").is_file():
        print(f"error: no enumorder sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from enumorder.cli import main as cli_main

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # Relative, since family references split on ':' and '+'.
        queries = workloads.build(args.workload, args.seed, Path(os.path.relpath(work)))
        runner = Runner(queries, cli_main)
        if args.trace:
            metrics = traced(runner, args)
        else:
            # Set-up samples alternate with rounds, so that both span the
            # same stretch of the host's drifting speed.
            rounds, setups = [], []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                setups.append(setup_once())
                rounds.append(runner.run_round())
            while len(setups) < MIN_SETUP_SAMPLES:
                setups.append(setup_once())
            metrics = end_to_end(rounds, statistics.median(setups))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in dict.fromkeys(runner.unexpected):
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def end_to_end(rounds: list[list[float]], setup_s: float) -> dict:
    samples = sorted(s for r in rounds for s in r)
    print(f"{len(samples)} query samples over {len(rounds)} rounds", file=sys.stderr)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(sum(r) for r in rounds), "unit": "s"},
        "query_p50_ms": {"value": 1000 * statistics.median(samples), "unit": "ms"},
        "query_p90_ms": {"value": 1000 * statistics.quantiles(samples, n=10)[-1], "unit": "ms"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
    }


def traced(runner: Runner, args) -> dict:
    """Alternate untraced and traced rounds; per-layer figures are medians
    over the traced rounds, per round."""
    from layers import UNITS, Tracer

    tracer = Tracer()
    plain, with_trace, per_round, spans, layers = [], [], [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(sum(runner.run_round()))
        tracer.reset()
        tracer.install()
        try:
            with_trace.append(sum(runner.run_round(tracer)))
        finally:
            tracer.uninstall()
        per_round.append(tracer.metrics())
        layers.append(tracer.layer_self_seconds())
        spans.extend(dict(s, round=len(per_round) - 1) for s in tracer.span_records())

    metrics = {}
    for name in per_round[0]:
        metrics[name] = {"value": statistics.median(r[name] for r in per_round), "unit": UNITS[name]}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(with_trace) - statistics.median(plain), "unit": UNITS["trace.overhead_s"]}

    total = sum(sum(l.values()) for l in layers)
    shares = {k: sum(l.get(k, 0.0) for l in layers) / total for k in sorted({k for l in layers for k in l})}
    print("self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()), file=sys.stderr)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"layer_self_share": shares, "metrics": metrics, "spans": spans}) + "\n")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
