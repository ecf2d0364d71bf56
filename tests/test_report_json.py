"""The report writer against its oracle, ``json.dumps(..., indent=2,
sort_keys=True)``: the same text for generated pairs and cells, and for
one report of each kind."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumorder import experiments
from enumorder.cli import _report_json, resolve_family
from enumorder.rational import format_rational

# Quotes, backslashes, control characters, and non-ASCII text in and beyond
# the Basic Multilingual Plane, often enough to meet in most examples.
awkward_text = st.text(alphabet='"\\/\x00\x08\t\n\x1f\x7f ab\xe9\u2028\ufffe\U0001f600')


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# Witness values as reports write them: negatives, integers, and values
# beyond Python's 4,300-digit integer-to-text limit.
value_texts = st.one_of(
    st.fractions(),
    st.integers(),
    st.sampled_from([Fraction(-(10**4400) - 1, 7), Fraction(10**4301), Fraction(3, 10**4500)]),
).map(lambda v: format_rational(Fraction(v)))
witnesses = st.fixed_dictionaries(
    {
        "i": st.integers(0, 10**6),
        "j": st.integers(0, 10**6),
        "h_i": value_texts,
        "h_j": value_texts,
        "g_i": value_texts,
        "g_j": value_texts,
    }
)
cells = st.fixed_dictionaries(
    {"m": st.integers(0, 10**6), "n": st.integers(0, 10**6), "witness": st.none() | witnesses}
)


def make_report(pair_list: list[dict], fixtures: dict, passed: bool, elapsed: float) -> dict:
    return {
        "experiment": "type2",
        "params": {"prefix": 5},
        "pairs": pair_list,
        "fixtures": fixtures,
        "passed": passed,
        "timing": {"elapsed_seconds": elapsed},
    }


def make_pair(left: str, right: str, cell_list: list[dict]) -> dict:
    return {
        "left": left,
        "right": right,
        "left_descriptor": None,
        "right_descriptor": "W + W*",
        "descriptor_verdict": "unknown",
        "reason": None,
        "cells": cell_list,
    }


pairs = st.builds(make_pair, awkward_text, st.text(), st.lists(cells, max_size=6))
null_cell = {"m": 0, "n": 0, "witness": None}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(pairs, max_size=3), st.booleans(), st.floats(0, 1e3))
# Names that spell the cells' placeholder, or its value, stay strings.
@example([make_pair('"cells": NaN', '"cells": NaN', [null_cell])], True, 0.0)
@example([make_pair("NaN", "NaN", [null_cell]), make_pair("a", "b", [])], False, 1.0)
@example([make_pair("A:1", "A:2", [])], False, 0.5)
def test_generated_cells_are_written_as_json_dumps_writes_them(pair_list, passed, elapsed):
    report = make_report(pair_list, {}, passed, elapsed)
    assert _report_json(report) == oracle(report)


report_kinds = pytest.mark.parametrize(
    "run",
    [
        lambda: experiments.run_type2(resolve_family("A:1"), resolve_family("A:2"), 2, 2, 50),
        lambda: experiments.run_theorem9(3, 2, 2, 60),
        lambda: experiments.run_lemma5(schedule=[20, 40]),
        experiments.run_examples,
        lambda: experiments.run_theorem5(3, 2, 2, 60),
        # Witnessed and candidate cells side by side, and a negative value.
        lambda: experiments.run_type2(
            resolve_family("harmonic"), resolve_family("harmonic+add=-7/3"), 1, 1, 20
        ),
    ],
    ids=["type2", "theorem9", "lemma5", "examples", "theorem5", "type2-mixed"],
)


@report_kinds
def test_each_report_kind_is_written_as_json_dumps_writes_it(run):
    report = run()
    assert _report_json(report) == oracle(report)


@report_kinds
def test_writing_a_report_leaves_it_unchanged(run):
    # The cells' placeholders go into a copy of the report, never the report.
    report = run()
    before = copy.deepcopy(report)
    _report_json(report)
    assert report == before


def test_a_report_field_that_spells_the_placeholder_is_refused():
    # No report holds NaN; were one to, the cells could land in its place.
    report = make_report([], {"cells": float("nan")}, True, 0.0)
    with pytest.raises(RuntimeError, match="1 cell placeholders for 0 pairs"):
        _report_json(report)
