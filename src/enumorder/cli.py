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
import sys
from fractions import Fraction
from pathlib import Path

from . import experiments
from .coorder import (
    Agree,
    GapEmpty,
    MatchSuccess,
    match_listing,
    prefix_coorder,
)
from .experiments import ReproReport
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
from .rational import RationalParseError, format_rational, parse_rational
from .seqlang import parse, seq_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3


class FamilyRefError(ValueError):
    """A family reference failed to resolve; names the failing segment."""


def _parse_value(text: str, segment: str) -> Fraction:
    try:
        return parse_rational(text)
    except (RationalParseError, ZeroDivisionError) as exc:
        raise FamilyRefError(f"segment {segment!r}: {exc}") from exc


def _parse_values(text: str, segment: str, separator: str) -> list[Fraction]:
    if not text:
        return []
    return [_parse_value(part, segment) for part in text.split(separator)]


def _parse_index(text: str, segment: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise FamilyRefError(f"segment {segment!r}: not an integer: {text!r}") from exc
    if value < 1:
        raise FamilyRefError(f"segment {segment!r}: family index must be >= 1")
    return value


def _resolve_base(text: str) -> SetSpec:
    if text == "harmonic":
        return builtin_harmonic()
    if text == "thirds":
        return builtin_thirds()
    if text.startswith("T:"):
        return build_T(_parse_index(text[2:], text))
    if text.startswith("A:"):
        return build_A(_parse_index(text[2:], text))
    if text.startswith("interval:"):
        parts = text[len("interval:") :].split(",")
        if len(parts) != 2:
            raise FamilyRefError(f"segment {text!r}: expected interval:<a>,<b>")
        a, b = (_parse_value(p, text) for p in parts)
        if a > b:
            raise FamilyRefError(f"segment {text!r}: bounds out of order")
        return rationals_in_interval(a, b)
    if text.startswith("finite:"):
        values = _parse_values(text[len("finite:") :], text, ",")
        try:
            return finite_listing(values)
        except ValueError as exc:
            raise FamilyRefError(f"segment {text!r}: {exc}") from exc
    if text.startswith("dyadic:"):
        return _resolve_dyadic(text[len("dyadic:") :], text)
    if text.startswith("seq:"):
        return _resolve_seq(text[len("seq:") :], text)
    raise FamilyRefError(f"segment {text!r}: unknown family")


def _resolve_dyadic(path_text: str, segment: str) -> SetSpec:
    path = Path(path_text)
    if not path.is_file():
        raise FamilyRefError(f"segment {segment!r}: no such file: {path_text}")
    indices = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            indices.append(_parse_value(line, segment))
    try:
        index_spec = finite_listing(indices)
    except ValueError as exc:
        raise FamilyRefError(f"segment {segment!r}: {exc}") from exc
    spec = builtin_dyadic(index_spec.listing())
    spec.name = f"dyadic:{path_text}"
    return spec


def _resolve_seq(rest: str, segment: str) -> SetSpec:
    i_value = 1
    path_text = rest
    if ":i=" in rest:
        path_text, _, i_text = rest.rpartition(":i=")
        try:
            i_value = int(i_text)
        except ValueError as exc:
            raise FamilyRefError(f"segment {segment!r}: bad i value {i_text!r}") from exc
    path = Path(path_text)
    if not path.is_file():
        raise FamilyRefError(f"segment {segment!r}: no such file: {path_text}")
    try:
        expr = parse(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FamilyRefError(f"segment {segment!r}: {exc}") from exc
    return seq_spec(expr, i_value, f"seq:{path_text}:i={i_value}")


def _apply_modifier(spec: SetSpec, modifier: str) -> SetSpec:
    if modifier.startswith("shift="):
        text = modifier[len("shift=") :]
        try:
            m = int(text)
        except ValueError as exc:
            raise FamilyRefError(f"segment {modifier!r}: not an integer: {text!r}") from exc
        if m < 0:
            raise FamilyRefError(f"segment {modifier!r}: shift must be nonnegative")
        return shift_spec(spec, m)
    if modifier.startswith("drop="):
        return remove_finite(spec, _parse_values(modifier[len("drop=") :], modifier, ";"))
    if modifier.startswith("add="):
        try:
            return add_finite(spec, _parse_values(modifier[len("add=") :], modifier, ";"))
        except ValueError as exc:
            raise FamilyRefError(f"segment {modifier!r}: {exc}") from exc
    raise FamilyRefError(f"segment {modifier!r}: unknown modifier")


def resolve_family(ref: str) -> SetSpec:
    """Resolve a family reference, applying modifiers left to right."""
    segments = ref.split("+")
    spec = _resolve_base(segments[0])
    for modifier in segments[1:]:
        spec = _apply_modifier(spec, modifier)
    return spec


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _report_json(report: ReproReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


def _svg_scatter(values: list[Fraction], title: str) -> str:
    """Scatter of (index, value) with exact tick labels; pure markup."""
    width, height, margin = 640, 360, 48
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
        for label, v in (("min", lo), ("max", hi)):
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
        how = "cut off" if listing.is_cut_off() else "ended"
        print(f"note: listing {how} after {len(values)} values", file=sys.stderr)
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
    verdict = prefix_coorder(spec_a.listing(), spec_b.listing(), args.prefix)
    if isinstance(verdict, Agree):
        print(f"agree on prefix {verdict.n}: {spec_a.name} ~ {spec_b.name}")
        return EXIT_OK
    w = verdict.witness
    print(
        f"disagree at (i={w.i}, j={w.j}): "
        f"{spec_a.name} orders {format_rational(w.h_i)} vs {format_rational(w.h_j)}, "
        f"{spec_b.name} orders {format_rational(w.g_i)} vs {format_rational(w.g_j)}"
    )
    return EXIT_NEGATIVE


def _cmd_type2(args: argparse.Namespace) -> int:
    spec_a = resolve_family(args.left)
    spec_b = resolve_family(args.right)
    pair = experiments.search_pair(spec_a, spec_b, args.mmax, args.nmax, args.prefix)
    clean = [c for c in pair.cells if c.witness is None]
    wrapped = ReproReport(
        "type2",
        {"m_max": args.mmax, "n_max": args.nmax, "prefix": args.prefix},
        [pair],
        passed=bool(clean),
    )
    if args.format == "json":
        _emit(_report_json(wrapped), args.out)
    elif clean:
        cells = ", ".join(f"({c.m},{c.n})" for c in clean)
        _emit(f"candidate shift pairs with no witness below {args.prefix}: {cells}", args.out)
    else:
        _emit(f"every shift pair has a witness below {args.prefix}", args.out)
    return EXIT_OK if clean else EXIT_NEGATIVE


def _cmd_match(args: argparse.Namespace) -> int:
    spec_a = resolve_family(args.left)
    spec_b = resolve_family(args.right)
    outcome = match_listing(spec_a.listing(), spec_b, args.prefix, args.fuel)
    if isinstance(outcome, MatchSuccess):
        print(", ".join(format_rational(v) for v in outcome.values))
        print(f"matched {len(outcome.values)} values using {outcome.drawn} draws")
        return EXIT_OK
    if isinstance(outcome, GapEmpty):
        lo = "-inf" if outcome.lo is None else format_rational(outcome.lo)
        hi = "+inf" if outcome.hi is None else format_rational(outcome.hi)
        print(f"gap empty at step {outcome.step}: ({lo}, {hi}) — {outcome.detail}")
        return EXIT_NEGATIVE
    print(f"fuel exhausted at step {outcome.step} after {outcome.drawn} draws")
    if outcome.cut_off:
        print(
            f"note: target listing cut off after {outcome.drawn} values; "
            "the set may be infinite, so no refutation is drawn",
            file=sys.stderr,
        )
    return EXIT_INCONCLUSIVE


def _cmd_repro(args: argparse.Namespace) -> int:
    name = args.name
    if name == "theorem9":
        report = experiments.run_theorem9(args.imax, args.mmax, args.nmax, args.prefix)
    elif name == "theorem5":
        report = experiments.run_theorem5(args.imax, args.mmax, args.nmax, args.prefix)
    elif name == "examples":
        report = experiments.run_examples()
    elif name == "lemma5":
        schedule = [int(part) for part in args.schedule.split(",")]
        report = experiments.run_lemma5(schedule=schedule)
    else:
        print(f"error: unknown experiment {name!r}", file=sys.stderr)
        return EXIT_USAGE
    _emit(_report_json(report), args.out)
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _natural(text: str) -> int:
    """Argument type of the count and bound options: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


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
    p_check.add_argument("--prefix", "-N", type=_natural, default=experiments.DEFAULT_PREFIX)
    p_check.set_defaults(func=_cmd_check)

    p_type2 = sub.add_parser("type2", help="witness search over shift pairs")
    p_type2.add_argument("left")
    p_type2.add_argument("right")
    p_type2.add_argument("--mmax", type=_natural, default=experiments.DEFAULT_M_MAX)
    p_type2.add_argument("--nmax", type=_natural, default=experiments.DEFAULT_N_MAX)
    p_type2.add_argument("--prefix", "-N", type=_natural, default=experiments.DEFAULT_PREFIX)
    p_type2.add_argument("--format", choices=("text", "json"), default="text")
    p_type2.add_argument("--out")
    p_type2.set_defaults(func=_cmd_type2)

    p_match = sub.add_parser("match", help="greedily match one family's listing into another")
    p_match.add_argument("left")
    p_match.add_argument("right")
    p_match.add_argument("--prefix", "-N", type=_natural, default=20)
    p_match.add_argument("--fuel", type=_natural, default=10_000)
    p_match.set_defaults(func=_cmd_match)

    p_repro = sub.add_parser("repro", help="run a scripted experiment, emit a JSON report")
    p_repro.add_argument("name")
    p_repro.add_argument("--imax", type=int, default=5)
    p_repro.add_argument("--mmax", type=_natural, default=experiments.DEFAULT_M_MAX)
    p_repro.add_argument("--nmax", type=_natural, default=experiments.DEFAULT_N_MAX)
    p_repro.add_argument("--prefix", "-N", type=_natural, default=experiments.DEFAULT_PREFIX)
    p_repro.add_argument(
        "--schedule",
        default=",".join(str(n) for n in experiments.DEFAULT_GROWTH_SCHEDULE),
        help="prefix schedule for the growth experiment",
    )
    p_repro.add_argument("--out")
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
    except (ListingExhausted, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
