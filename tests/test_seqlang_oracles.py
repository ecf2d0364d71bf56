"""The compiled ``.seq`` evaluator against the AST-walking oracle.

``compile_definition`` compiles a definition for one family member i, as
``seq_spec`` does: each clause without a power is one rational function of n,
evaluated by Horner, and each clause with one runs as closures over reduced
integer pairs; ``helpers.evaluate_by_walk`` builds a ``Fraction`` at every
node. Each compiled pair must equal the oracle value's lowest terms, pair for
pair, or both must raise the same exception with the same message, at every
``(i, n)``. A listing's keys are those pairs, so an unreduced pair would make
two keys of one value.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumorder.seqlang import (
    HORNER_MAX_BITS,
    HORNER_MAX_DEGREE,
    BinOp,
    Clause,
    Lit,
    Neg,
    Otherwise,
    ParityGuard,
    Piecewise,
    Pow,
    ThresholdGuard,
    Var,
    compile_definition,
    parse,
    rational_function,
    seq_spec,
)

from helpers import evaluate_by_walk

oracle_settings = settings(max_examples=400, deadline=None, derandomize=True)

literals = st.one_of(
    st.integers(0, 12),
    st.integers(10**20, 10**40),  # huge: the int fast path must not lose them
).map(Lit)
leaves = st.one_of(literals, st.sampled_from([Var("n"), Var("i")]))


def expressions(depth: int):
    """Expressions at most ``depth`` operators deep."""
    if depth == 0:
        return leaves
    sub = expressions(depth - 1)
    return st.one_of(
        leaves,
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.integers(0, 3)),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
    )


guards = st.one_of(
    st.none(),
    st.just(Otherwise()),
    st.builds(ParityGuard, st.sampled_from(["odd", "even"])),
    st.builds(ThresholdGuard, st.sampled_from(["<", ">="]), st.integers(0, 40)),
)
# Hand-built clause lists need not be total: falling through is an outcome too.
piecewise = st.lists(st.builds(Clause, guards, expressions(3)), min_size=1, max_size=4).map(
    lambda clauses: Piecewise(tuple(clauses))
)
definitions = st.one_of(expressions(4), piecewise)
indices = st.one_of(st.integers(-30, 30), st.integers(-(10**30), 10**30))
positions = st.one_of(st.integers(1, 60), st.integers(1, 10**30))


def compiled(expr, i, n):
    """The pair of family member i, compiled for that i, called like the oracle."""
    return compile_definition(expr, i)(n)


def walked(expr, i, n):
    """The oracle's value as its lowest-terms pair."""
    value = evaluate_by_walk(expr, i, n)
    assert type(value) is Fraction
    return value.numerator, value.denominator


def outcome(evaluator, expr, i, n):
    """The value's pair, or the exception's type and message."""
    try:
        pair = evaluator(expr, i, n)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    assert type(pair) is tuple and [type(part) for part in pair] == [int, int]
    return pair


@oracle_settings
@given(definitions, indices, positions)
# (1/2 + n/2)^1 at n = 1: the sum 2/2 shares the denominators' common factor,
# and the power keeps the sum in the closures.
@example(Pow(BinOp("+", BinOp("/", Lit(1), Lit(2)), BinOp("/", Var("n"), Lit(2))), 1), 1, 1)
def test_compiled_evaluation_matches_the_oracle(expr, i, n):
    assert outcome(compiled, expr, i, n) == outcome(walked, expr, i, n)


@oracle_settings
@given(definitions, indices)
def test_listing_matches_the_oracle_values(expr, i):
    # seq_spec compiles once and reads n = 1, 2, ... until the first error.
    expected = []
    for n in range(1, 25):
        kind = outcome(walked, expr, i, n)
        if isinstance(kind[0], type):
            break
        expected.append(kind)
    drawn = []
    stream = seq_spec(expr, i, "drawn").make_stream()
    for _ in expected:
        drawn.append(next(stream))
    assert drawn == expected


# Adversarial shapes: the values grow huge, so intermediate pairs must stay
# in lowest terms. Each is checked for equality only; timing is not tested.
ADVERSARIAL = [
    "*".join(["(n^2000/n^2000)"] * 40),
    "+".join(["(n^2000/n^2000)"] * 40),
    "+".join(f"1/(n+{j})^50" for j in range(40)),
    "1/n^3000 + 1/(n+1)^3000",
    "*".join(f"((n+{j})^100/(n+{j + 1})^100)" for j in range(30)),
    "(1/n + 1/(n+1))^2000",
    "(i*n/(i*n))^50000 - n^3000/(n+1)^3000",
]


def test_adversarial_shapes_match_the_oracle():
    for text in ADVERSARIAL:
        expr = parse(text)
        for i, n in ((1, 1), (3, 10**6), (-7, 12345)):
            assert compiled(expr, i, n) == walked(expr, i, n), (text, i, n)


def test_errors_match_the_oracle_exactly():
    cases = [
        ("1/(n-3)", 1, 3),  # division by zero
        ("n^100000", 1, 2**41),  # power over the bit cap
        ("(2^41*n/2^41)^100000", 1, 2**38),  # the cap reads the reduced base
        ("(2^41*n/2^41)^100000", 1, 2**40),
        ("n^100000 / (n-n)", 1, 2**41),  # both fail: the left error wins
        ("(n-n) / (n-n) + n^100000", 1, 2**41),
        ("i^99999 + 1/(i-i)", 10**4000, 1),
        ("case i odd: 1/(n-n) ; case i even: n", -3, 5),  # negative odd i
        ("case i odd: 1/(n-n) ; case i even: n", -4, 5),
        ("case n < 4: 1/(n-2) ; case n >= 9: n ; case otherwise: -i", -2, 2),
        ("case n < 4: 1/(n-2) ; case n >= 9: n ; case otherwise: -i", -2, 6),
        ("case n < 4: 1/(n-2) ; case n >= 9: n ; case otherwise: -i", -2, 9),
    ]
    for text, i, n in cases:
        expr = parse(text)
        assert outcome(compiled, expr, i, n) == outcome(walked, expr, i, n), text


# --- the Horner path ------------------------------------------------------------------


def power_free(depth: int):
    """Expressions without a power, at most ``depth`` operators deep: every
    clause of them is evaluated by Horner, up to the size caps."""
    if depth == 0:
        return leaves
    sub = power_free(depth - 1)
    return st.one_of(leaves, st.builds(Neg, sub), st.builds(BinOp, st.sampled_from("+-*/"), sub, sub))


power_free_definitions = st.one_of(
    power_free(4),
    st.lists(st.builds(Clause, guards, power_free(3)), min_size=1, max_size=4).map(
        lambda clauses: Piecewise(tuple(clauses))
    ),
)


@oracle_settings
@given(st.one_of(power_free_definitions, definitions), indices, positions)
# 1/2 + n/2 at n = 1, where the gcd of the Horner values is 2.
@example(BinOp("+", BinOp("/", Lit(1), Lit(2)), BinOp("/", Var("n"), Lit(2))), 1, 1)
def test_member_evaluation_matches_the_closures_and_the_oracle(expr, i, n):
    assert outcome(compiled, expr, i, n) == outcome(walked, expr, i, n)


def bodies(expr):
    return [c.body for c in expr.clauses] if isinstance(expr, Piecewise) else [expr]


# Each definition, whether its clauses take the Horner path, and its (i, n)s.
DEGREE_CAP = "*".join(["n"] * (HORNER_MAX_DEGREE + 1)) + " / (n-5)"
# A coefficient of 2^4096, 1,234 digits, is one bit past the cap.
BIT_CAP = f"{2**HORNER_MAX_BITS}*n / (n-2)"
HORNER_CASES = [
    ("1/(n-3) - 1/(n-3)", True, [1], range(1, 7)),
    ("0/(n-2)", True, [1], range(1, 7)),
    ("(n-3)/(n-3)", True, [1], range(1, 7)),
    # p*s/(q*r) would cancel the zero of the inner divisor and list n - 3 at n = 3.
    ("1/(1/(n-3))", True, [1], range(1, 7)),
    ("1/(i-2)", True, [1, 2, 3], range(1, 4)),
    ("n - n", True, [1], range(1, 4)),
    ("(7*n + 3) / (2*n + 5)", True, [1, -4], range(1, 7)),
    ("case i odd: 1/(n-2) ; case i even: (n-4)/(3-n)", True, [-3, -2, 3, 4], range(1, 7)),
    ("case n < 4: 1/(n-2) ; case n >= 9: n ; case otherwise: -i", True, [-2, 5], range(1, 12)),
    ("case n < 10002: 0 ; case otherwise: n", True, [1], [1, 10001, 10002]),
    # A power keeps the closures, as does a degree or a coefficient past its cap.
    ("(n-3)^2 / (n-3)", False, [1], range(1, 7)),
    (DEGREE_CAP, False, [1], range(1, 7)),
    pytest.param(BIT_CAP, False, [1], range(1, 5), id="bit-cap"),
]


@pytest.mark.parametrize("text, horner, members, ns", HORNER_CASES)
def test_horner_path_matches_the_closures_at_every_error(text, horner, members, ns):
    expr = parse(text)
    for i in members:
        assert all((rational_function(body, i) is not None) == horner for body in bodies(expr))
        for n in ns:
            assert outcome(compiled, expr, i, n) == outcome(walked, expr, i, n), (text, i, n)


def test_nested_division_by_zero_fails_at_its_own_index():
    listing = seq_spec(parse("1/(1/(n-3))"), 1, "nested").listing()
    assert listing.prefix(2) == [-2, -1]
    with pytest.raises(ZeroDivisionError, match=r"^division by zero at \(i=1, n=3\)$"):
        listing.value_at(2)


def test_a_clause_of_degree_zero_computes_its_key_once():
    value = compile_definition(parse("case n < 3: (1/2 + 1/3) * 6 ; case otherwise: n"), 1)
    assert value(1) == (5, 1) and value(2) is value(1)
