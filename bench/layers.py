"""Per-layer tracing from outside the package.

:class:`Tracer` wraps the public functions of each ``enumorder`` module in
place (module attributes and class methods), records a span per call
(name, start, end, parent, query) and accumulates self time and counters.
Calls too frequent to span are only counted or timed: ``value_at`` and
friends nested inside another listing draw, and each ``evaluate`` of a
``.seq`` definition. ``uninstall`` puts every original back, so traced and
untraced passes can share one process.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections import defaultdict
from time import perf_counter

KIND = "bench_kind"

# Every per-layer metric with its unit; all figures are per pass over the
# workload's query set.
UNITS = {
    "cli.resolve_ms": "ms",
    "cli.resolve_calls": "count",
    "cli.report_ms": "ms",
    "cli.report_bytes": "B",
    "experiments.repro_self_ms": "ms",
    "coorder.check_ms": "ms",
    "coorder.check_calls": "count",
    "coorder.search_ms": "ms",
    "coorder.cells": "count",
    "coorder.candidate_cells": "count",
    "coorder.search_us_per_cell": "us",
    "coorder.projection_ms": "ms",
    "coorder.witness_pairs": "count",
    "coorder.match_self_ms": "ms",
    "coorder.match_drawn": "count",
    "coorder.match_draw_use": "ratio",
    "listings.draw_ms": "ms",
    "listings.values_drawn": "count",
    "listings.union_draw_ms": "ms",
    "listings.interval_draw_ms": "ms",
    "listings.interval_values": "count",
    "listings.seq_draw_ms": "ms",
    "ordertype.refute_ms": "ms",
    "ordertype.refute_calls": "count",
    "seqlang.parse_ms": "ms",
    "seqlang.eval_ms": "ms",
    "seqlang.eval_calls": "count",
    "trace.overhead_s": "s",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def family_kind(name: str) -> str:
    """Listing kind from a family name: the base family decides."""
    if name.startswith(("A:", "interleave(")):
        return "union"
    for kind in ("interval", "seq"):
        if name.startswith(kind + ":"):
            return kind
    return "builtin"


class _JsonShim:
    """Stands in for the ``json`` module inside ``enumorder.cli``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.query = -1
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open frames: [name, start, child seconds, id]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._next_id = 0

    # --- recording ---------------------------------------------------------

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        parent = self.stack[-1] if self.stack else None
        frame = [name, perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            duration = end - frame[1]
            self.self_s[name] += duration - frame[2]
            self.total_s[name] += duration
            self.counts[name + ".calls"] += 1
            if parent is not None:
                parent[2] += duration
            self.spans.append((self.query, frame[3], name, frame[1], end, parent and parent[3]))

    def _spanned(self, name: str, after=None):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = self.call(name, fn, args, kwargs)
                if after is not None:
                    after(result)
                return result

            return traced

        return wrap

    def _leaf(self, name: str):
        """Time a frequent call without a span; its time still counts as a
        child of the enclosing span."""

        def wrap(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    self.self_s[name] += duration
                    self.counts[name + ".calls"] += 1
                    if self.stack:
                        self.stack[-1][2] += duration

            return timed

        return wrap

    def _draw(self, fn):
        @functools.wraps(fn)
        def traced(listing, *args):
            if self.stack and self.stack[-1][0].startswith("listings."):
                self.counts["listings.nested_draws"] += 1
                return fn(listing, *args)
            name = "listings.draw." + getattr(listing, KIND, "builtin")
            return self.call(name, fn, (listing, *args), {})

        return traced

    def _counted(self, stream, kind: str, for_match: bool):
        key = "listings.values." + kind
        for value in stream:
            self.counts[key] += 1
            if for_match:
                self.counts["coorder.match_drawn"] += 1
            yield value

    def _listing(self, fn):
        @functools.wraps(fn)
        def traced(spec):
            kind = family_kind(spec.name)
            # Listings made directly inside match_listing are its target.
            for_match = bool(self.stack) and self.stack[-1][0] == "coorder.match"
            make = spec.make_stream
            counted = dataclasses.replace(spec, make_stream=lambda: self._counted(make(), kind, for_match))
            listing = fn(counted)
            try:
                setattr(listing, KIND, kind)
            except AttributeError:
                pass
            return listing

        return traced

    # --- counters taken from results ----------------------------------------

    def _cells(self, report) -> None:
        self.counts["coorder.cells"] += len(report.cells)
        self.counts["coorder.candidate_cells"] += sum(c.witness is None for c in report.cells)

    def _pairs(self, pairs) -> None:
        self.counts["coorder.witness_pairs"] += len(pairs)

    def _match(self, outcome) -> None:
        picks = getattr(outcome, "picks", None)
        if picks:
            self.counts["coorder.match_used"] += max(picks) + 1
            self.counts["coorder.match_pool"] += outcome.drawn

    def _report_text(self, text) -> None:
        self.counts["cli.report_bytes"] += len(text)

    # --- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrap) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return  # not present in this version of the package
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        from enumorder import cli, experiments, listings, ordertype, seqlang

        check = self._spanned("coorder.check")
        search = self._spanned("coorder.search", self._cells)
        for module in (cli, experiments):
            self._patch(module, "prefix_coorder", check)
            self._patch(module, "search_shift_witnesses", search)
        self._patch(cli, "resolve_family", self._spanned("cli.resolve"))
        self._patch(cli, "match_listing", self._spanned("coorder.match", self._match))
        serialize = self._spanned("cli.report", self._report_text)
        self._patch(cli, "json", lambda module: _JsonShim(serialize(module.dumps)))
        self._patch(experiments.ReproReport, "to_json_dict", self._spanned("cli.report"))
        for name in ("run_theorem9", "run_theorem5", "run_examples", "run_lemma5"):
            self._patch(experiments, name, self._spanned("experiments.repro"))
        self._patch(experiments, "witness_pairs", self._spanned("coorder.projection", self._pairs))
        for name in ("project_first", "project_second"):
            self._patch(experiments, name, self._spanned("coorder.projection"))
        refute = self._spanned("ordertype.refute")
        self._patch(experiments, "refute_type2", refute)
        self._patch(ordertype, "refute_type2", refute)
        for module in (cli, seqlang):
            self._patch(module, "parse", self._spanned("seqlang.parse"))
            self._patch(module, "evaluate", self._leaf("seqlang.eval"))
        for name in ("prefix", "try_prefix", "value_at"):
            self._patch(listings.Listing, name, self._draw)
        self._patch(listings.SetSpec, "listing", self._listing)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results ---------------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per package module, from every recorded name."""
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".")[0]] += seconds
        return dict(layers)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures for the calls recorded since the last reset."""
        ms = lambda name: 1000 * self.self_s.get(name, 0.0)
        c = self.counts
        draws = [n for n in self.self_s if n.startswith("listings.draw.")]
        values = {
            "cli.resolve_ms": 1000 * self.total_s.get("cli.resolve", 0.0),
            "cli.resolve_calls": c["cli.resolve.calls"],
            "cli.report_ms": ms("cli.report"),
            "cli.report_bytes": c["cli.report_bytes"],
            "experiments.repro_self_ms": ms("experiments.repro"),
            "coorder.check_ms": ms("coorder.check"),
            "coorder.check_calls": c["coorder.check.calls"],
            "coorder.search_ms": ms("coorder.search"),
            "coorder.cells": c["coorder.cells"],
            "coorder.candidate_cells": c["coorder.candidate_cells"],
            "coorder.search_us_per_cell": _ratio(1000 * ms("coorder.search"), c["coorder.cells"]),
            "coorder.projection_ms": ms("coorder.projection"),
            "coorder.witness_pairs": c["coorder.witness_pairs"],
            "coorder.match_self_ms": ms("coorder.match"),
            "coorder.match_drawn": c["coorder.match_drawn"],
            "coorder.match_draw_use": _ratio(c["coorder.match_used"], c["coorder.match_pool"]),
            "listings.draw_ms": sum(ms(n) for n in draws),
            "listings.values_drawn": sum(v for k, v in c.items() if k.startswith("listings.values.")),
            "listings.union_draw_ms": ms("listings.draw.union"),
            "listings.interval_draw_ms": ms("listings.draw.interval"),
            "listings.interval_values": c["listings.values.interval"],
            "listings.seq_draw_ms": ms("listings.draw.seq"),
            "ordertype.refute_ms": ms("ordertype.refute"),
            "ordertype.refute_calls": c["ordertype.refute.calls"],
            "seqlang.parse_ms": ms("seqlang.parse"),
            "seqlang.eval_ms": ms("seqlang.eval"),
            "seqlang.eval_calls": c["seqlang.eval.calls"],
        }
        assert values.keys() == UNITS.keys() - {"trace.overhead_s"}
        return values

    def span_records(self) -> list[dict]:
        keys = ("query", "id", "name", "start", "end", "parent")
        return [dict(zip(keys, span)) for span in self.spans]
