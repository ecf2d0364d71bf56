"""The report writer against its oracle, ``json.dumps(..., indent=2,
sort_keys=True)``: the same text for every value a report can hold and for
one report of each kind."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumorder import experiments
from enumorder.cli import _json_text, _report_json, resolve_family
from enumorder.rational import format_rational

# Quotes, backslashes, control characters, and non-ASCII text in and beyond
# the Basic Multilingual Plane, often enough to meet in most examples.
awkward_text = st.text(alphabet='"\\/\x00\x08\t\n\x1f\x7f ab\xe9\u2028\ufffe\U0001f600')
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
    awkward_text,
)
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.one_of(st.text(), awkward_text), children, max_size=5),
    ),
    max_leaves=40,
)


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_values)
@example({"b": [], "a": {}, "": [-0.0, 0.0, True, False, None, 1]})
@example([[[{}]], {"z": {"y": [1.5e300, -2, "\\\"\x01\xff"]}}])
def test_writer_equals_json_dumps(value):
    assert _json_text(value) == oracle(value)


def test_writer_refuses_what_a_report_cannot_hold():
    with pytest.raises(TypeError):
        _json_text({"pair": (1, 2)})


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
pairs = st.builds(
    lambda left, right, cell_list: {
        "left": left,
        "right": right,
        "left_descriptor": None,
        "right_descriptor": "W + W*",
        "descriptor_verdict": "unknown",
        "reason": None,
        "cells": cell_list,
    },
    awkward_text,
    st.text(),
    st.lists(cells, max_size=6),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(pairs, max_size=3), st.booleans(), st.floats(0, 1e3))
def test_generated_cells_are_written_as_json_dumps_writes_them(pair_list, passed, elapsed):
    report = experiments.ReproReport("type2", {"prefix": 5}, pair_list, {}, passed, elapsed)
    assert _report_json(report) == oracle(report.to_json_dict())


@pytest.mark.parametrize(
    "make_report",
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
def test_each_report_kind_is_written_as_json_dumps_writes_it(make_report):
    report = make_report()
    assert _report_json(report) == oracle(report.to_json_dict())
