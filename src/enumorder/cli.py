"""Command-line front end.

Families are referenced by a compact textual syntax, resolved to set specs:

    harmonic | thirds | T:<i> | A:<i> | interval:<a>,<b> |
    finite:<v1>,<v2>,... | dyadic:<file> | seq:<file>[:i=<k>]

with optional modifiers appended: ``+shift=<m>``, ``+drop=<v1;...>``,
``+add=<v1;...>``. Values use the exact ``p/q`` form.

Exit codes are stable: 0 = positive finding, 2 = negative finding,
1 = usage or resolution error, 3 = inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .coorder import (
    DEFAULT_M_MAX,
    DEFAULT_N_MAX,
    DEFAULT_PREFIX,
    GapEmpty,
    MatchSuccess,
    match_listing,
    prefix_coorder,
)
from .listings import (
    ListingExhausted,
    SetSpec,
    add_finite,
    build_A,
    build_T,
    builtin_dyadic,
    builtin_harmonic,
    builtin_thirds,
    finite_listing,
    rationals_in_interval,
    remove_finite,
    shift_spec,
)
from .rational import format_rational, parse_rational

# ``seqlang`` and ``experiments`` are imported where they are used: each
# command runs in a fresh interpreter, and most never read a ``seq:`` file
# or run an experiment, so loading them would only slow the start.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3


def _int(text: str) -> int:
    """An optionally signed run of ASCII digits; ``int`` alone would also
    take underscores, spaces and other scripts' digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _values(text: str, separator: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(separator)] if text else []


def _resolve_base(text: str) -> SetSpec:
    if text == "harmonic":
        return builtin_harmonic()
    if text == "thirds":
        return builtin_thirds()
    head, colon, rest = text.partition(":")
    kind = head + colon  # "T:" for "T:3"; no kind matches a segment without ":"
    if kind == "T:":
        return build_T(_int(rest))
    if kind == "A:":
        return build_A(_int(rest))
    if kind == "interval:":
        bounds = rest.split(",")
        if len(bounds) != 2:
            raise ValueError("expected interval:<a>,<b>")
        return rationals_in_interval(*map(parse_rational, bounds))
    if kind == "finite:":
        return finite_listing(_values(rest, ","))
    if kind == "dyadic:":
        lines = Path(rest).read_text(encoding="utf-8-sig").splitlines()
        indices = [line.split("#", 1)[0] for line in lines]
        index_spec = finite_listing([parse_rational(m) for m in indices if m.strip()])
        return builtin_dyadic(index_spec, text)
    if kind == "seq:":
        from .seqlang import parse, seq_spec

        path_text, i_text = rest.rsplit(":i=", 1) if ":i=" in rest else (rest, "1")
        i_value = _int(i_text)
        expr = parse(Path(path_text).read_text(encoding="utf-8-sig"))
        return seq_spec(expr, i_value, f"seq:{path_text}:i={i_value}")
    raise ValueError("unknown family")


def _apply_modifier(spec: SetSpec, modifier: str) -> SetSpec:
    head, equals, rest = modifier.partition("=")
    kind = head + equals
    if kind == "shift=":
        return shift_spec(spec, _int(rest))
    if kind == "drop=":
        return remove_finite(spec, _values(rest, ";"))
    if kind == "add=":
        return add_finite(spec, _values(rest, ";"))
    raise ValueError("unknown modifier")


def resolve_family(ref: str) -> SetSpec:
    """Resolve a family reference, applying modifiers left to right.

    Whatever a segment raises -- bad syntax, a value a builder refuses, a
    file that cannot be read, a value drawn while a modifier scans the
    listing -- is reported once, as a ``ValueError`` naming it.
    """
    segment, *modifiers = ref.split("+")
    # A file path runs on, "+" and all, up to the first modifier.
    names_file = segment.startswith(("seq:", "dyadic:"))
    while names_file and modifiers and not modifiers[0].startswith(("shift=", "drop=", "add=")):
        segment += "+" + modifiers.pop(0)
    try:
        spec = _resolve_base(segment)
        for segment in modifiers:
            spec = _apply_modifier(spec, segment)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        raise ValueError(f"segment {segment!r}: {exc}") from exc
    return spec


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cells_text(cells: list[dict], indent: str) -> str:
    """``json.dumps``'s text for a pair's cells nested at ``indent``, from a
    null and a witnessed cell's template: every cell has ints ``m`` and
    ``n`` and a ``witness`` that is null or ints ``i`` and ``j`` beside four
    ASCII ``p/q`` texts, which the string escaper would only quote."""
    if not cells:
        return "[]"
    inner, field, deeper = indent + "  ", indent + "    ", indent + "      "
    head = f'{{{field}"m": %d,{field}"n": %d,{field}"witness": '
    null = f"{head}null{inner}}}"
    witnessed = (
        f'{head}{{{deeper}"g_i": "%s",{deeper}"g_j": "%s",{deeper}"h_i": "%s",'
        f'{deeper}"h_j": "%s",{deeper}"i": %d,{deeper}"j": %d{field}}}{inner}}}'
    )
    items = [
        null % (c["m"], c["n"])
        if (w := c["witness"]) is None
        else witnessed % (c["m"], c["n"], w["g_i"], w["g_j"], w["h_i"], w["h_j"], w["i"], w["j"])
        for c in cells
    ]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _report_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)``; each pair's cells,
    at the same depth in every report, are written by :func:`_cells_text`
    into the place a NaN held for them in a copy of the report, which
    itself is left as it was. The text ``"cells": NaN`` marks nothing else:
    the quotes in a string are always escaped, and no report field is NaN."""
    pairs = report["pairs"]
    skeleton = {**report, "pairs": [{**pair, "cells": math.nan} for pair in pairs]}
    parts = json.dumps(skeleton, indent=2, sort_keys=True).split('"cells": NaN')
    if len(parts) != len(pairs) + 1:
        raise RuntimeError(f"{len(parts) - 1} cell placeholders for {len(pairs)} pairs")
    cells = [_cells_text(pair["cells"], "\n      ") for pair in pairs]
    return parts[0] + "".join(f'"cells": {c}{part}' for c, part in zip(cells, parts[1:]))


def _svg_scatter(values: list[Fraction], title: str) -> str:
    """Scatter of (index, value) with exact tick labels; pure markup."""
    width, height, margin = 640, 360, 48
    # Escaped by hand: xml.sax.saxutils and html each add modules and memory
    # to every start of the tool, for the one markup output.
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<title>{title}</title>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if values:
        lo, hi = min(values), max(values)
        span = hi - lo if hi > lo else Fraction(1)
        step = (width - 2 * margin) / max(1, len(values) - 1)

        def x_at(k: int) -> float:
            return margin + k * step

        def y_at(v: Fraction) -> float:
            return height - margin - float((v - lo) / span) * (height - 2 * margin)

        axis = (
            f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
            f'y2="{height - margin}" stroke="black"/>'
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
            f'stroke="black"/>'
        )
        parts.append(axis)
        for v in (lo, hi):
            parts.append(
                f'<text x="4" y="{y_at(v):.2f}" font-size="11">{format_rational(v)}</text>'
            )
        for k, v in enumerate(values):
            parts.append(
                f'<circle cx="{x_at(k):.2f}" cy="{y_at(v):.2f}" r="3" fill="steelblue">'
                f"<title>({k}, {format_rational(v)})</title></circle>"
            )
    parts.append("</svg>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    spec = resolve_family(args.family)
    listing = spec.listing()
    values = listing.try_prefix(args.count)
    if len(values) < args.count:
        print(f"note: {ListingExhausted(len(values), listing.is_cut_off())}", file=sys.stderr)
    if args.format == "json":
        _emit(json.dumps([format_rational(v) for v in values]), args.out)
    elif args.format == "svg":
        _emit(_svg_scatter(values, spec.name), args.out)
    else:
        _emit(", ".join(format_rational(v) for v in values), args.out)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    spec_a = resolve_family(args.left)
    spec_b = resolve_family(args.right)
    h, g = spec_a.listing(), spec_b.listing()
    w = prefix_coorder(h, g, args.prefix)
    if w is None:
        print(f"agree on prefix {args.prefix}: {spec_a.name} ~ {spec_b.name}")
        return EXIT_OK
    i, j = w
    h_i, h_j, g_i, g_j = (format_rational(s.value_at(k)) for s in (h, g) for k in (i, j))
    print(
        f"disagree at (i={i}, j={j}): "
        f"{spec_a.name} orders {h_i} vs {h_j}, {spec_b.name} orders {g_i} vs {g_j}"
    )
    return EXIT_NEGATIVE


def _cmd_type2(args: argparse.Namespace) -> int:
    from . import experiments

    spec_a = resolve_family(args.left)
    spec_b = resolve_family(args.right)
    report = experiments.run_type2(spec_a, spec_b, args.mmax, args.nmax, args.prefix)
    clean = [c for c in report["pairs"][0]["cells"] if c["witness"] is None]
    if args.format == "json":
        _emit(_report_json(report), args.out)
    elif clean:
        cells = ", ".join(f"({c['m']},{c['n']})" for c in clean)
        _emit(f"candidate shift pairs with no witness below {args.prefix}: {cells}", args.out)
    else:
        _emit(f"every shift pair has a witness below {args.prefix}", args.out)
    return EXIT_OK if report["passed"] else EXIT_NEGATIVE


def _cmd_match(args: argparse.Namespace) -> int:
    spec_a = resolve_family(args.left)
    spec_b = resolve_family(args.right)
    outcome = match_listing(spec_a, spec_b, args.prefix, args.fuel)
    if isinstance(outcome, MatchSuccess):
        print(", ".join(format_rational(v) for v in outcome.values))
        print(f"matched {len(outcome.values)} values using {outcome.drawn} draws")
        return EXIT_OK
    if isinstance(outcome, GapEmpty):
        lo = "-inf" if outcome.lo is None else format_rational(outcome.lo)
        hi = "+inf" if outcome.hi is None else format_rational(outcome.hi)
        print(f"gap empty at step {outcome.step}: ({lo}, {hi}) — {outcome.detail}")
        return EXIT_NEGATIVE if outcome.refutes else EXIT_INCONCLUSIVE
    print(f"fuel exhausted at step {outcome.step} after {outcome.drawn} draws")
    if outcome.cut_off:
        print(
            f"note: target listing cut off after {outcome.drawn} values; "
            "the set may be infinite, so no refutation is drawn",
            file=sys.stderr,
        )
    return EXIT_INCONCLUSIVE


# The options each experiment reads, by the keyword its runner,
# ``experiments.run_<name>``, takes each as; the runner's defaults stand in
# for options not given.
_UNION_OPTIONS = {"imax": "i_max", "mmax": "m_max", "nmax": "n_max", "prefix": "prefix"}
_REPRO_OPTIONS = {
    "theorem9": _UNION_OPTIONS,
    "theorem5": _UNION_OPTIONS,
    "examples": {},
    "lemma5": {"schedule": "schedule"},
}


def _cmd_repro(args: argparse.Namespace) -> int:
    reads = _REPRO_OPTIONS.get(args.name)
    if reads is None:
        raise ValueError(f"unknown experiment {args.name!r}")
    # An option left out sets no attribute (its default is SUPPRESS), so the
    # rest are the options given, in command-line order.
    given = [key for key in vars(args) if key not in ("command", "func", "name", "out")]
    for key in given:
        if key not in reads:
            raise ValueError(f"repro {args.name} does not take --{key}")
    from . import experiments

    run = getattr(experiments, f"run_{args.name}")
    report = run(**{reads[key]: getattr(args, key) for key in given})
    _emit(_report_json(report), args.out)
    return EXIT_OK if report["passed"] else EXIT_NEGATIVE


def _integer(text: str) -> int:
    """Argument type of ``--imax``: an integer, as a family index takes it."""
    try:
        return _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _natural(text: str) -> int:
    """Argument type of the count and bound options: an integer >= 0."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _naturals(text: str) -> list[int]:
    """Argument type of ``--schedule``: comma-separated integers >= 0."""
    return [_natural(part) for part in text.split(",")]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of :func:`main` can share it."""
    parser = argparse.ArgumentParser(
        prog="enumorder",
        description="Enumeration-order analysis of computably enumerable sets of rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the first values of a family")
    p_list.add_argument("family")
    p_list.add_argument("--count", type=_natural, default=10)
    p_list.add_argument("--format", choices=("text", "json", "svg"), default="text")
    p_list.add_argument("--out")
    p_list.set_defaults(func=_cmd_list)

    p_check = sub.add_parser("check", help="co-order check on listing prefixes")
    p_check.add_argument("left")
    p_check.add_argument("right")
    p_check.add_argument("--prefix", "-N", type=_natural, default=DEFAULT_PREFIX)
    p_check.set_defaults(func=_cmd_check)

    p_type2 = sub.add_parser("type2", help="witness search over shift pairs")
    p_type2.add_argument("left")
    p_type2.add_argument("right")
    p_type2.add_argument("--mmax", type=_natural, default=DEFAULT_M_MAX)
    p_type2.add_argument("--nmax", type=_natural, default=DEFAULT_N_MAX)
    p_type2.add_argument("--prefix", "-N", type=_natural, default=DEFAULT_PREFIX)
    p_type2.add_argument("--format", choices=("text", "json"), default="text")
    p_type2.add_argument("--out")
    p_type2.set_defaults(func=_cmd_type2)

    p_match = sub.add_parser("match", help="greedily match one family's listing into another")
    p_match.add_argument("left")
    p_match.add_argument("right")
    p_match.add_argument("--prefix", "-N", type=_natural, default=20)
    p_match.add_argument("--fuel", type=_natural, default=10_000)
    p_match.set_defaults(func=_cmd_match)

    p_repro = sub.add_parser(
        "repro",
        help="run a scripted experiment, emit a JSON report",
        argument_default=argparse.SUPPRESS,
    )
    p_repro.add_argument("name")
    p_repro.add_argument("--imax", type=_integer)
    p_repro.add_argument("--mmax", type=_natural)
    p_repro.add_argument("--nmax", type=_natural)
    p_repro.add_argument("--prefix", "-N", type=_natural)
    p_repro.add_argument(
        "--schedule", type=_naturals, help="prefix schedule for the growth experiment"
    )
    p_repro.add_argument("--out", default=None)
    p_repro.set_defaults(func=_cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ListingExhausted, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
