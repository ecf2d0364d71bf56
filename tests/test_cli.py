"""Command-line interface: resolution, commands, exit codes, output forms."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.dom import minidom

import pytest

import enumorder
from enumorder.cli import main, resolve_family
from enumorder.listings import MAX_POWER_BITS, build_T
from enumorder.rational import parse_rational
from enumorder.seqlang import MAX_DEPTH

from helpers import raises_exactly


# Ten thousand and one zeros, then n: infinite, but the duplicate run trips
# the listing's cut-off after the first value.
PLATEAU_TEXT = "case n < 10002: 0 ; case otherwise: n\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- family resolution -----------------------------------------------------------


def test_resolve_builtins():
    assert resolve_family("harmonic").name == "harmonic"
    assert resolve_family("thirds").name == "thirds"
    assert resolve_family("T:3").name == "T:3"
    assert resolve_family("A:2").name == "A:2"


def test_resolution_errors_name_the_segment(tmp_path):
    (tmp_path / "pole.seq").write_text("1/(n-3)\n", encoding="utf-8")
    for ref in ("nosuch", "T:0", "T:x", "interval:2,1", "interval:1", "finite:1,1",
                "harmonic+bogus=3", "harmonic+shift=-1", f"seq:{tmp_path}/pole.seq:i=x",
                f"seq:{tmp_path}/missing.seq", f"seq:{tmp_path}", f"dyadic:{tmp_path}/missing",
                f"dyadic:{tmp_path}", f"seq:{tmp_path}/pole.seq+shift=5",
                f"seq:{tmp_path}/pole.seq+add=7", "harmonic+add=1/0"):
        with pytest.raises(ValueError) as failure:
            resolve_family(ref)
        assert str(failure.value).startswith(f"segment {ref.rsplit('+', 1)[-1]!r}: ")


def test_resolution_messages(tmp_path):
    (tmp_path / "pole.seq").write_text("1/(n-3)\n", encoding="utf-8")
    pole = f"seq:{tmp_path}/pole.seq"
    for ref, message in (
        ("T:0", "segment 'T:0': family index must be >= 1, got 0"),
        ("interval:2,1", "segment 'interval:2,1': interval bounds out of order: 2 > 1"),
        ("harmonic+shift=-1", "segment 'shift=-1': shift must be nonnegative, got -1"),
        (f"{pole}:i=x", f"segment '{pole}:i=x': not an integer: 'x'"),
        (f"{pole}+shift=5", "segment 'shift=5': division by zero at (i=1, n=3)"),
        ("harmonic+add=1/0", "segment 'add=1/0': zero denominator in '1/0'"),
        (f"seq:{tmp_path}/missing.seq",
         f"segment 'seq:{tmp_path}/missing.seq': [Errno 2] No such file or directory: "
         f"'{tmp_path}/missing.seq'"),
    ):
        with raises_exactly(ValueError, message):
            resolve_family(ref)


def test_file_paths_may_contain_plus(tmp_path, capsys):
    (tmp_path / "f+g.seq").write_text("1/n\n", encoding="utf-8")
    (tmp_path / "m+1").write_text("0\n2\n", encoding="utf-8")
    path = tmp_path / "f+g.seq"
    assert run(capsys, "list", f"seq:{path}", "--count", "3") == (0, "1, 1/2, 1/3\n", "")
    assert run(capsys, "list", f"seq:{path}+shift=1", "--count", "3") == (0, "1/2, 1/3, 1/4\n", "")
    assert run(capsys, "list", f"seq:{path}:i=2+drop=1+add=7", "--count", "3") == (
        0, "7, 1/2, 1/3\n", "")
    spec = resolve_family(f"dyadic:{tmp_path}/m+1+add=3")
    assert spec.listing().try_prefix(4) == [3, 1, parse_rational("1/4")]
    # A file path runs on to the first modifier; other bases keep their error.
    for ref, message in (
        (f"seq:{path}+bogus",
         f"segment 'seq:{path}+bogus': [Errno 2] No such file or directory: '{path}+bogus'"),
        ("harmonic+bogus", "segment 'bogus': unknown modifier"),
        (f"finite:1,2+{path}", f"segment '{tmp_path}/f': unknown modifier"),
    ):
        with raises_exactly(ValueError, message):
            resolve_family(ref)


def test_resolve_modifiers():
    spec = resolve_family("harmonic+shift=1")
    assert spec.listing().prefix(2) == [parse_rational("1/2"), parse_rational("1/3")]
    spec = resolve_family("harmonic+drop=1")
    assert spec.listing().prefix(2) == [parse_rational("1/2"), parse_rational("1/3")]
    spec = resolve_family("thirds+add=-5")
    assert spec.listing().prefix(3) == [
        parse_rational("-5"),
        parse_rational("0"),
        parse_rational("1/3"),
    ]


def test_resolve_seq_file(tmp_path):
    path = tmp_path / "family.seq"
    path.write_text(
        "# block family\ncase i odd: (i-1) + (n-1)/n ;\ncase i even: i - (n-1)/n\n",
        encoding="utf-8",
    )
    spec = resolve_family(f"seq:{path}:i=3")
    assert spec.listing().prefix(50) == build_T(3).listing().prefix(50)


def test_resolve_dyadic_file(tmp_path):
    path = tmp_path / "indices.txt"
    path.write_text("3\n1\n2\n", encoding="utf-8")
    spec = resolve_family(f"dyadic:{path}")
    assert [str(v) for v in spec.listing().prefix(3)] == ["1/8", "1/2", "1/4"]


def test_seq_file_may_start_with_a_bom(tmp_path, capsys):
    # A leading byte order mark is not part of the text: offsets count from
    # the character after it.
    (tmp_path / "bom.seq").write_bytes(b"\xef\xbb\xbf1/n\n")
    assert run(capsys, "list", f"seq:{tmp_path}/bom.seq", "--count", "3") == (0, "1, 1/2, 1/3\n", "")
    (tmp_path / "bad.seq").write_bytes(b"\xef\xbb\xbfn ^ int\n")
    assert run(capsys, "list", f"seq:{tmp_path}/bad.seq") == (
        1, "", f"error: segment 'seq:{tmp_path}/bad.seq': offset 4: expected int, found 'int'\n")


def test_dyadic_file_may_start_with_a_bom(tmp_path):
    path = tmp_path / "indices.txt"
    path.write_bytes(b"\xef\xbb\xbf3\n1\n2\n")
    spec = resolve_family(f"dyadic:{path}")
    assert [str(v) for v in spec.listing().prefix(3)] == ["1/8", "1/2", "1/4"]


# --- list --------------------------------------------------------------------------


def test_list_text(capsys):
    code, out, err = run(capsys, "list", "T:1", "--count", "3")
    assert code == 0
    assert out.strip() == "0, 1/2, 2/3"


def test_list_union_family(capsys):
    code, out, err = run(capsys, "list", "A:5", "--count", "12")
    assert code == 0
    assert out.strip() == "0, 2, 4, 1/2, 3/2, 5/2, 7/2, 9/2, 2/3, 4/3, 8/3, 10/3"


def test_list_truncation_notice(capsys):
    code, out, err = run(capsys, "list", "finite:3,1/2", "--count", "5")
    assert code == 0
    assert out.strip() == "3, 1/2"
    assert "ended after 2 values" in err


def test_list_cut_off_notice(tmp_path, capsys):
    path = tmp_path / "plateau.seq"
    path.write_text(PLATEAU_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "list", f"seq:{path}", "--count", "3")
    assert code == 0
    assert out.strip() == "0"
    assert "cut off after 1 values" in err
    assert "ended" not in err


def test_check_names_a_cut_off_shortfall(tmp_path, capsys):
    path = tmp_path / "plateau.seq"
    path.write_text(PLATEAU_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "check", f"seq:{path}", "thirds", "--prefix", "5")
    assert (code, out) == (1, "")
    assert err == "error: listing cut off after 1 values\n"
    code, out, err = run(capsys, "check", "finite:1/2,3", "thirds", "--prefix", "5")
    assert (code, out) == (1, "")
    assert err == "error: listing ended after 2 values\n"


def test_check_reports_a_witness_drawn_before_a_shortfall(capsys):
    # The listing ends after 2 values, but its first two already disagree.
    code, out, err = run(capsys, "check", "finite:3,1/2", "thirds", "--prefix", "5")
    assert (code, err) == (2, "")
    assert out == "disagree at (i=0, j=1): finite:3,1/2 orders 3 vs 1/2, thirds orders 0 vs 1/3\n"
    # Both end before the prefix: the shortfall names h first, as a full draw would.
    code, out, err = run(capsys, "check", "finite:1/2,3,4", "finite:1/2,3", "--prefix", "5")
    assert (code, out, err) == (1, "", "error: listing ended after 3 values\n")


def test_list_prints_values_beyond_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "big.seq"
    path.write_text("(n+1)^20000\n", encoding="utf-8")
    code, out, err = run(capsys, "list", f"seq:{path}", "--count", "2")
    assert (code, err) == (0, "")
    first, second = out.strip().split(", ")
    assert parse_rational(first) == 2**20000
    assert parse_rational(second) == 3**20000


def test_over_cap_exponent_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "huge.seq"
    path.write_text("(n+1)^99999999\n", encoding="utf-8")
    code, out, err = run(capsys, "check", f"seq:{path}", "thirds", "--prefix", "5")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("error: segment") and "offset 6" in err


def test_interval_bounds_beyond_the_digit_limit(capsys):
    bound = "1" + "0" * 4399 + "1"
    code, out, err = run(capsys, "check", f"interval:{bound},{bound}", f"finite:{bound}",
                         "--prefix", "1")
    assert (code, err) == (0, "")
    assert out == f"agree on prefix 1: interval:{bound},{bound} ~ finite:{bound}\n"


def test_oversized_power_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "wide.seq"
    path.write_text("1" + "0" * 3999 + "^100000\n", encoding="utf-8")
    code, out, err = run(capsys, "check", f"seq:{path}", "thirds", "--prefix", "5")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("error: power of up to") and "(i=1, n=1)" in err


def test_drop_keeps_the_cut_off(tmp_path, capsys):
    # 10,004 fives, then n: dropping 5 must not skip past the duplicate run.
    path = tmp_path / "plateau5.seq"
    path.write_text("case n < 10005: 5 ; case otherwise: n\n", encoding="utf-8")
    code, out, err = run(capsys, "list", f"seq:{path}+drop=5", "--count", "2")
    assert (code, out, err) == (0, "\n", "note: listing cut off after 0 values\n")


def test_deepest_definitions_list_from_main(tmp_path, capsys):
    for name, text, values in (
        ("parens", "(" * MAX_DEPTH + "n" + ")" * MAX_DEPTH, "1, 2, 3"),
        ("chain", "n" + "-n" * MAX_DEPTH, ", ".join(str(n - n * MAX_DEPTH) for n in (1, 2, 3))),
    ):
        path = tmp_path / f"{name}.seq"
        path.write_text(text + "\n", encoding="utf-8")
        assert run(capsys, "list", f"seq:{path}", "--count", "3") == (0, values + "\n", "")


def test_added_value_clash_names_the_values(capsys):
    code, out, err = run(capsys, "list", "harmonic+add=1/2;1/3", "--count", "2")
    assert (code, out) == (1, "")
    assert err == "error: segment 'add=1/2;1/3': values already present in the set: 1/3, 1/2\n"


def test_added_value_clash_scan_ends_at_the_edit_scan_prefix(capsys):
    # thirds lists k/3 at index k; the scan covers indices 0..511 only.
    code, out, err = run(capsys, "list", "thirds+add=511/3", "--count", "2")
    assert (code, out) == (1, "")
    assert err == "error: segment 'add=511/3': values already present in the set: 511/3\n"
    code, out, err = run(capsys, "list", "thirds+add=512/3", "--count", "515")
    assert (code, err) == (0, "")
    expected = ["512/3"] + [str(Fraction(k, 3)) for k in range(512)] + ["171", "514/3"]
    assert out == ", ".join(expected) + "\n"


def test_list_json(capsys):
    code, out, err = run(capsys, "list", "A:2", "--count", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["0", "2", "1/2", "3/2"]


def test_list_svg(capsys):
    code, out, err = run(capsys, "list", "harmonic", "--count", "6", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")
    assert out.count("<circle") == 6


def test_list_svg_escapes_the_family_name(tmp_path, capsys):
    (tmp_path / "a&b<c>.seq").write_text("1/n\n", encoding="utf-8")
    name = f"seq:{tmp_path}/a&b<c>.seq"
    code, out, err = run(capsys, "list", name, "--count", "3", "--format", "svg")
    assert code == 0
    title = minidom.parseString(out).getElementsByTagName("title")[0]
    assert title.firstChild.data == f"{name}:i=1"


def test_list_resolution_failure(capsys):
    code, out, err = run(capsys, "list", "nosuch")
    assert code == 1
    assert "error" in err


# --- check -------------------------------------------------------------------------


DEEP_H = "finite:" + ",".join(map(str, range(1, 42)))


@pytest.mark.parametrize(
    "last, unshifted, shifted", [("1/2", (0, 40), (0, 39)), ("79/2", (39, 40), (38, 39))]
)
def test_deep_split_witnesses_from_main(capsys, last, unshifted, shifted):
    # 1..41 against 1..40 and a last value that splits at depth 40. At
    # prefix 41, cell (1, 0) would agree to depth 39 and need a 42nd value of
    # h, so the shift search runs at prefix 40, where (1, 1) splits at 39.
    g = "finite:" + ",".join(map(str, range(1, 41))) + "," + last
    code, out, err = run(capsys, "check", DEEP_H, g, "--prefix", "41")
    assert (code, err) == (2, "")
    i, j = unshifted
    h_values, g_values = list(range(1, 42)), [*range(1, 41), last]
    assert out == (
        f"disagree at (i={i}, j={j}): {DEEP_H} orders {h_values[i]} vs {h_values[j]}, "
        f"{g} orders {g_values[i]} vs {g_values[j]}\n"
    )
    argv = ["type2", DEEP_H, g, "--mmax", "1", "--nmax", "1", "--prefix", "40", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    witness = json.loads(out)["pairs"][0]["cells"][-1]["witness"]
    assert (witness["i"], witness["j"]) == shifted


def test_check_agreeing_families(capsys):
    code, out, err = run(capsys, "check", "T:1", "T:3", "--prefix", "100")
    assert code == 0
    assert "agree" in out


def test_check_disagreeing_families(capsys):
    code, out, err = run(capsys, "check", "harmonic", "thirds", "--prefix", "10")
    assert code == 2
    assert "(i=0, j=1)" in out


def test_check_unknown_family(capsys):
    code, out, err = run(capsys, "check", "harmonic", "nosuch")
    assert code == 1


# --- type2 -------------------------------------------------------------------------


def test_type2_all_witnessed_is_negative(capsys):
    code, out, err = run(
        capsys, "type2", "A:1", "A:2", "--mmax", "3", "--nmax", "3", "--prefix", "100"
    )
    assert code == 2


def test_type2_candidate_found(capsys):
    code, out, err = run(
        capsys,
        "type2",
        "harmonic",
        "harmonic+shift=5",
        "--mmax", "5", "--nmax", "0", "--prefix", "100",
    )
    assert code == 0
    assert "(5,0)" in out


def test_type2_self_pair(capsys):
    code, out, err = run(
        capsys, "type2", "A:1", "A:1", "--mmax", "1", "--nmax", "1", "--prefix", "50"
    )
    assert code == 0


def test_type2_json_schema(capsys):
    code, out, err = run(
        capsys,
        "type2",
        "harmonic",
        "thirds",
        "--mmax", "1", "--nmax", "1", "--prefix", "30",
        "--format", "json",
    )
    assert code == 2
    report = json.loads(out)
    assert report["experiment"] == "type2"
    elapsed = report["timing"]["elapsed_seconds"]
    assert isinstance(elapsed, float) and elapsed > 0
    pair = report["pairs"][0]
    assert pair["descriptor_verdict"] == "refuted"
    assert len(pair["cells"]) == 4
    for cell in pair["cells"]:
        witness = cell["witness"]
        assert witness is not None
        parse_rational(witness["h_i"])  # all values round-trip as p/q text


def test_format_default_does_not_leak_between_calls(capsys):
    query = ["type2", "harmonic", "thirds", "--mmax", "0", "--nmax", "0", "--prefix", "5"]
    code, out, err = run(capsys, *query, "--format", "json")
    assert (code, json.loads(out)["experiment"]) == (2, "type2")
    code, out, err = run(capsys, *query)
    assert (code, out) == (2, "every shift pair has a witness below 5\n")


def test_type2_json_descriptor_text_round_trips(capsys):
    from enumorder.listings import build_A

    code, out, err = run(
        capsys,
        "type2", "A:1", "A:2",
        "--mmax", "0", "--nmax", "0", "--prefix", "40",
        "--format", "json",
    )
    pair = json.loads(out)["pairs"][0]
    assert pair["left_descriptor"] == build_A(1).descriptor
    assert pair["right_descriptor"] == build_A(2).descriptor


def test_type2_json_refutes_a_shifted_family_by_signature(capsys):
    # +shift removes finitely many values, so A:2's W + W* signature stays.
    code, out, err = run(
        capsys,
        "type2", "A:2+shift=3", "A:3",
        "--mmax", "0", "--nmax", "0", "--prefix", "20",
        "--format", "json",
    )
    assert code == 2
    pair = json.loads(out)["pairs"][0]
    assert pair["left_descriptor"] == "W + W*"
    assert pair["descriptor_verdict"] == "refuted"
    assert pair["reason"] == "signature [ASC,DESC] != [ASC,DESC,ASC]"


# --- match -------------------------------------------------------------------------


def test_match_dense_target(capsys):
    code, out, err = run(
        capsys, "match", "harmonic", "interval:0,1", "--prefix", "10", "--fuel", "1000"
    )
    assert code == 0
    assert "matched 10 values" in out


def test_match_gap_refutation(capsys):
    code, out, err = run(
        capsys, "match", "harmonic", "thirds", "--prefix", "10", "--fuel", "1000"
    )
    assert code == 2
    assert "gap empty" in out


def test_match_gap_fixed_by_the_picks_is_inconclusive(capsys):
    # 1 + ω + ω* ≅ ω + ω*, so A:2 ∪ {-5} has a listing co-ordered with A:2's;
    # first-fit put h(0) = 0 on -5, and that pick left (-5, 0) empty.
    code, out, err = run(
        capsys, "match", "A:2", "A:2+add=-5", "--prefix", "20", "--fuel", "20000"
    )
    assert code == 3
    assert out == (
        "gap empty at step 2: (-5, 0) — gap oracle certifies the gap empty; "
        "the earlier picks fixed this gap, so nothing is refuted\n"
    )
    # A:3 is no ω: the interval's maximum, first-fit's first pick, refutes nothing.
    code, out, err = run(capsys, "match", "A:3", "interval:0,1", "--prefix", "20")
    assert code == 3
    assert out.startswith("gap empty at step 1: (1, +inf) — ")
    assert "earlier picks fixed this gap" in out


def test_match_finite_pair(capsys):
    code, out, err = run(
        capsys, "match", "finite:1,2", "finite:5,9", "--prefix", "2", "--fuel", "10"
    )
    assert code == 0
    assert out.splitlines()[0] == "5, 9"


def test_match_inconclusive_without_oracle(tmp_path, capsys):
    path = tmp_path / "thirds.seq"
    path.write_text("(n-1)/3\n", encoding="utf-8")
    code, out, err = run(
        capsys, "match", "harmonic", f"seq:{path}", "--prefix", "10", "--fuel", "200"
    )
    assert code == 3
    assert "fuel exhausted" in out


def test_match_cut_off_target_is_inconclusive(tmp_path, capsys):
    path = tmp_path / "plateau.seq"
    path.write_text(PLATEAU_TEXT, encoding="utf-8")
    code, out, err = run(
        capsys, "match", "finite:1,2", f"seq:{path}", "--prefix", "2", "--fuel", "20000"
    )
    assert code == 3
    assert out.splitlines() == ["fuel exhausted at step 1 after 1 draws"]
    assert "cut off after 1 values" in err
    code, out, err = run(
        capsys, "match", "finite:1", f"seq:{path}+shift=1", "--prefix", "1", "--fuel", "20000"
    )
    assert code == 3
    assert "cut off after 0 values" in err


def test_match_cut_off_input_is_an_error(tmp_path, capsys):
    path = tmp_path / "plat.seq"
    path.write_text("case n < 3: n ; case otherwise: 1\n", encoding="utf-8")
    code, out, err = run(capsys, "match", f"seq:{path}", "thirds", "--prefix", "5")
    assert (code, out, err) == (1, "", "error: listing cut off after 2 values\n")
    code, out, err = run(capsys, "match", "finite:1,2", "thirds", "--prefix", "5")
    assert code == 0
    assert out.splitlines() == ["0, 1/3", "matched 2 values using 2 draws"]


# --- repro -------------------------------------------------------------------------


def test_repro_examples(capsys):
    code, out, err = run(capsys, "repro", "examples")
    assert code == 0
    report = json.loads(out)
    assert report["experiment"] == "examples"
    assert report["passed"] is True


def test_repro_unknown_name(capsys):
    code, out, err = run(capsys, "repro", "nosuch")
    assert code == 1


def test_repro_theorem9_report(capsys):
    code, out, err = run(
        capsys,
        "repro", "theorem9",
        "--imax", "2", "--mmax", "2", "--nmax", "2", "--prefix", "100",
    )
    assert code == 0
    report = json.loads(out)
    assert report["experiment"] == "theorem9"
    assert len(report["pairs"]) == 1
    assert len(report["pairs"][0]["cells"]) == 9


def test_repro_writes_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, err = run(
        capsys,
        "repro", "theorem9",
        "--imax", "2", "--mmax", "1", "--nmax", "1", "--prefix", "60",
        "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["experiment"] == "theorem9"


def test_repro_lemma5(capsys):
    code, out, err = run(capsys, "repro", "lemma5", "--schedule", "20,40,80")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["pairs"][0]["growth"][0]["strictly_increasing"] is True


@pytest.mark.parametrize(
    "argv, option",
    [
        (["lemma5", "--prefix", "7", "--imax", "1"], "--prefix"),
        (["examples", "--imax", "1", "--schedule", "3"], "--imax"),
        (["examples", "-N", "5"], "--prefix"),
        (["theorem9", "--imax", "2", "--schedule", "5"], "--schedule"),
        (["theorem5", "--mmax", "1", "--schedule", "5,10"], "--schedule"),
    ],
)
def test_repro_refuses_options_the_experiment_does_not_read(capsys, argv, option):
    code, out, err = run(capsys, "repro", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: repro {argv[0]} does not take {option}\n"


# --- usage -------------------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_arguments_is_usage_error(capsys):
    assert main(["check", "harmonic"]) == 1


def test_negative_prefix_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "harmonic", "T:2", "--prefix", "-5")
    assert (code, out) == (1, "")
    assert "--prefix" in err and "must be >= 0" in err


def test_negative_mmax_is_usage_error(capsys):
    code, out, err = run(capsys, "type2", "A:1", "A:2", "--mmax", "-1")
    assert (code, out) == (1, "")
    assert "--mmax" in err and "must be >= 0" in err


def test_negative_count_is_usage_error(capsys):
    code, out, err = run(capsys, "list", "harmonic", "--count", "-3")
    assert (code, out) == (1, "")
    assert "--count" in err and "must be >= 0" in err


def test_negative_fuel_is_usage_error(capsys):
    code, out, err = run(capsys, "match", "harmonic", "interval:0,1", "--fuel", "-5")
    assert (code, out) == (1, "")
    assert "--fuel" in err and "must be >= 0" in err


@pytest.mark.parametrize("schedule, shown", [("5", "[5]"), ("10,5", "[10, 5]")])
def test_schedule_that_cannot_show_growth_is_usage_error(capsys, schedule, shown):
    # One prefix shows no growth, and a falling schedule shows none by its
    # own shape: neither is evidence either way.
    code, out, err = run(capsys, "repro", "lemma5", "--schedule", schedule)
    assert (code, out) == (1, "")
    assert err == f"error: need two or more increasing prefixes, got schedule {shown}\n"


def test_negative_schedule_entry_is_usage_error(capsys):
    code, out, err = run(capsys, "repro", "lemma5", "--schedule=-5,10")
    assert (code, out) == (1, "")
    assert "--schedule" in err and "must be >= 0, got -5" in err


def test_non_integer_count_is_usage_error(capsys):
    code, out, err = run(capsys, "list", "harmonic", "--count", "x")
    assert code == 1
    assert "invalid int value: 'x'" in err


@pytest.mark.parametrize("ref", ["A:1_0", "T:\u0663"])
def test_family_index_takes_only_ascii_digits(capsys, ref):
    code, out, err = run(capsys, "list", ref, "--count", "3")
    assert (code, out) == (1, "")
    assert err == f"error: segment {ref!r}: not an integer: {ref[2:]!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["list", "harmonic", "--count", "\u0663"],
        ["check", "harmonic", "thirds", "--prefix", "1_0"],
        ["repro", "theorem9", "--imax", "\u0663"],
    ],
)
def test_integer_options_take_only_ascii_digits(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"argument {argv[-2]}" in err and f"invalid int value: {argv[-1]!r}" in err


def test_evaluation_error_is_one_line_message(tmp_path, capsys):
    path = tmp_path / "pole.seq"
    path.write_text("1/(n-3)\n", encoding="utf-8")
    code, out, err = run(capsys, "list", f"seq:{path}", "--count", "3")
    assert code == 1
    assert err == "error: division by zero at (i=1, n=3)\n"


def test_bad_input_is_one_error_line(tmp_path, capsys):
    (tmp_path / "pole.seq").write_text("1/(n-3)\n", encoding="utf-8")
    (tmp_path / "deep.seq").write_text("(" * 250 + "n" + ")" * 250 + "\n", encoding="utf-8")
    (tmp_path / "long.seq").write_text("n" + "-n" * 989 + "\n", encoding="utf-8")
    (tmp_path / "indices").write_text(f"{MAX_POWER_BITS}\n0\n", encoding="utf-8")
    missing = str(tmp_path / "no" / "such" / "file")
    for argv in (
        ["list", "harmonic", "--out", missing],
        ["type2", "harmonic", "thirds", "--format", "json", "--out", missing],
        ["repro", "examples", "--out", missing],
        ["repro", "nosuch"],
        ["list", f"seq:{tmp_path}/deep.seq"],
        ["list", f"seq:{tmp_path}/long.seq"],
        ["check", f"dyadic:{tmp_path}/indices", "thirds", "--prefix", "2"],
        ["list", f"seq:{tmp_path}/pole.seq+shift=5"],
        ["list", f"seq:{tmp_path}/missing.seq"],
        ["list", f"dyadic:{tmp_path}"],
        ["list", "T:0"],
        ["list", "finite:١/٢"],
        ["check", "harmonic", "interval:2,1"],
        ["match", "harmonic+shift=-1", "thirds"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


# --- what a start imports --------------------------------------------------------

# Prints, after each command, which of the two modules loaded on first use
# are loaded.
IMPORT_PROBE = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from enumorder.cli import main
for argv in (["list", "harmonic"], ["list", "seq:" + sys.argv[2]],
             ["type2", "harmonic", "thirds", "--mmax", "0", "--nmax", "0", "--prefix", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded = [m for m in ("enumorder.seqlang", "enumorder.experiments") if m in sys.modules]
    print(argv[0], code, *loaded)
"""


def test_seq_support_and_the_experiments_load_on_first_use(tmp_path):
    # A fresh interpreter: this one has imported every module already.
    (tmp_path / "recip.seq").write_text("1/n\n", encoding="utf-8")
    src = Path(enumorder.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src), str(tmp_path / "recip.seq")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.splitlines() == [
        "list 0",
        "list 0 enumorder.seqlang",
        "type2 2 enumorder.seqlang enumorder.experiments",
    ]
