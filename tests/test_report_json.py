"""The report writer against its oracle, ``json.dumps(..., indent=2,
sort_keys=True)``: the same text for every value a report can hold and for
one report of each kind."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumorder import experiments
from enumorder.cli import _json_text, _report_json, resolve_family

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


@pytest.mark.parametrize(
    "make_report",
    [
        lambda: experiments.run_type2(resolve_family("A:1"), resolve_family("A:2"), 2, 2, 50),
        lambda: experiments.run_theorem9(3, 2, 2, 60),
        lambda: experiments.run_lemma5(schedule=[20, 40]),
        experiments.run_examples,
    ],
    ids=["type2", "theorem9", "lemma5", "examples"],
)
def test_each_report_kind_is_written_as_json_dumps_writes_it(make_report):
    report = make_report()
    assert _report_json(report) == oracle(report.to_json_dict())
