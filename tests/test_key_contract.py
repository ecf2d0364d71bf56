"""The key contract of listings.

A stream yields each value as its key, the pair (p, q) with gcd(p, q) = 1
and q > 0, and a listing dedups, ranks and matches by those pairs alone: an
unreduced pair would list one value twice, and a negative denominator would
flip every ``a * q < p * b`` it takes part in. So every key drawn from every
family, edited or not, is checked for lowest terms; the first keys of each
family the benchmark models are checked against the lowest terms of the
values its closed form in ``bench/families.py`` lists, by tuple equality; and
the keys of ``.seq`` listings against the AST-walking oracle's values.
"""

import math
import sys
from fractions import Fraction as F
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumorder.listings import (
    add_finite,
    build_A,
    build_T,
    builtin_dyadic,
    builtin_harmonic,
    builtin_thirds,
    finite_listing,
    interleave,
    rationals_in_interval,
    remove_finite,
    shift_spec,
)
from enumorder.seqlang import parse, seq_spec

from helpers import evaluate_by_walk, key, spec_factories

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import families as fam  # noqa: E402

FACTORIES = spec_factories()
DRAWN = 300

# Added values lie below every family's values here, so no edit is refused.
added_values = st.builds(lambda p, q: F(-100 - p, q), st.integers(0, 899), st.integers(1, 9))
edits = st.lists(
    st.one_of(
        st.tuples(st.just("shift"), st.integers(1, 6)),
        # Positions among the first 12 listed values.
        st.tuples(st.just("drop"), st.lists(st.integers(0, 11), min_size=1, max_size=2)),
        st.tuples(st.just("add"), st.lists(added_values, min_size=1, max_size=2, unique=True)),
    ),
    max_size=2,
    # Two additions could clash with each other.
    unique_by=lambda edit: edit[0],
)


def edited(spec, model, changes):
    """The spec and its model, or None for no model, with each edit applied in turn."""
    for kind, arg in changes:
        if kind == "shift":
            spec = shift_spec(spec, arg)
            if model is not None:
                # families.shifted skips values that must be there.
                model = fam.shifted(model, len(model.prefix(arg)))
        elif kind == "drop":
            listed = spec.listing().try_prefix(12)
            gone = [listed[k % len(listed)] for k in arg] if listed else [F(-7, 13)]
            spec = remove_finite(spec, gone)
            if model is not None:
                model = fam.dropped(model, gone)
        else:
            spec = add_finite(spec, arg)
            if model is not None:
                model = fam.added(model, arg)
    return spec, model


def assert_lowest_terms(keys, name):
    for p, q in keys:
        assert q > 0 and math.gcd(p, q) == 1, (name, p, q)


def drawn_keys(spec, n):
    listing = spec.listing()
    listing.try_prefix(n)
    return listing.keys


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, len(FACTORIES) - 1), edits)
def test_every_drawn_key_is_in_lowest_terms(index, changes):
    spec, _ = edited(FACTORIES[index](), None, changes)
    assert_lowest_terms(islice(spec.make_stream(), DRAWN), spec.name)
    assert_lowest_terms(drawn_keys(spec, DRAWN), spec.name)


values = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
mobius_coefficients = st.tuples(
    st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9), st.integers(1, 9)
).filter(lambda k: k[0] * k[3] != k[1] * k[2])
families = st.one_of(
    st.sampled_from([("harmonic",), ("thirds",)]),
    st.tuples(st.just("T"), st.integers(1, 6)),
    st.tuples(st.just("A"), st.integers(1, 4)),
    st.tuples(st.just("chain"), st.integers(1, 3)),
    st.tuples(st.just("interval"), values, values).filter(lambda f: f[1] < f[2]),
    st.tuples(st.just("finite"), st.lists(values, min_size=13, max_size=20, unique=True)),
    st.tuples(st.just("mobius"), mobius_coefficients),
)


def built(family):
    """The family's spec beside its model in ``bench/families.py``."""
    kind, *args = family
    if kind == "harmonic":
        return builtin_harmonic(), fam.harmonic()
    if kind == "thirds":
        return builtin_thirds(), fam.thirds()
    if kind == "T":
        return build_T(*args), fam.block(*args)
    if kind == "A":
        return build_A(*args), fam.union(*args)
    if kind == "chain":
        (i,) = args
        return interleave([build_A(i), build_T(i + 1)]), fam.chain_step(i)
    if kind == "interval":
        return rationals_in_interval(*args), fam.interval(*args)
    if kind == "finite":
        return finite_listing(*args), fam.finite(*args)
    return seq_spec(parse(fam.mobius_text(*args[0])), 1, "mobius"), fam.mobius(*args[0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(families, edits)
# Across zero: no other value of height below 200 lies inside, so zero,
# listed at ZERO_HEIGHT, comes first, before both halves.
@example(("interval", F(-1, 200), F(1, 300)), [])
@example(("interval", F(-3), F(-1, 2)), [])
@example(("interval", F(-1, 2), F(3, 4)), [("shift", 2), ("drop", [0, 5])])
# Every third value of thirds is an integer, whose key has denominator 1.
@example(("thirds",), [("drop", [3, 7])])
@example(("thirds",), [("add", [F(-300, 9)])])
# (n - 6) / (2n + 1) is zero at n = 6, and (2n - 5) / (n + 3) has numerators
# of both signs.
@example(("mobius", (1, -6, 2, 1)), [])
@example(("mobius", (2, -5, 1, 3)), [("shift", 1)])
def test_first_keys_are_the_models_values_in_lowest_terms(family, changes):
    spec, model = edited(*built(family), changes)
    keys = drawn_keys(spec, DRAWN)
    assert keys == [key(v) for v in model.prefix(DRAWN)], spec.name
    assert_lowest_terms(keys, spec.name)


SEQ_TEXTS = [
    # Negative divisors from n = 4 on, and a zero at n = 4.
    "(n - 4) / (7 - 2*n)",
    # Powers, negative divisors, and a zero at n = 5.
    "(n - 5)^2 / (3 - n^2)^3",
    "n^3 / -6",
    # Sums whose denominators share factors, so the sum needs reducing twice.
    "n/6 + 1/10 - (n + 1)/(-15)",
    "case n < 4: 0 ; case otherwise: (n - 4)^2 / (-2*n)",
    "case i odd: (i - n)/(i + 1) ; case i even: n^2/(2 - 2*n - i)",
]


@pytest.mark.parametrize("text", SEQ_TEXTS)
def test_seq_keys_are_the_oracle_values_in_lowest_terms(text):
    expr = parse(text)
    for i in (1, 2, -3):
        keys = drawn_keys(seq_spec(expr, i, text), 200)
        walked = (key(evaluate_by_walk(expr, i, n)) for n in range(1, 1000))
        assert keys == list(dict.fromkeys(walked))[:200], (text, i)
        assert_lowest_terms(keys, text)


def test_dyadic_keys_are_reciprocal_powers_of_two():
    indices = [3, 0, 5, 1, 8, 2, 7, 4, 6, 9, 64, 200]
    spec = builtin_dyadic(finite_listing([F(m) for m in indices]))
    assert drawn_keys(spec, 20) == [(1, 2**m) for m in indices]
