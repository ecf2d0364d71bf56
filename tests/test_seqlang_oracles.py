"""The compiled ``.seq`` evaluator against the AST-walking oracle.

``compile_definition`` and ``seq_spec`` run a definition compiled into closures
over reduced integer pairs; ``helpers.evaluate_by_walk`` builds a ``Fraction``
at every node. The compiled pair must equal the oracle value's lowest terms,
pair for pair, or both must raise the same exception with the same message,
at every ``(i, n)``. A listing's keys are those pairs, so an unreduced pair
would make two keys of one value.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumorder.seqlang import (
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
    """The compiled evaluator's pair, called like the oracle."""
    return compile_definition(expr)(i, n)


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
# 1/2 + n/2 at n = 1: the sum 2/2 shares the denominators' common factor.
@example(BinOp("+", BinOp("/", Lit(1), Lit(2)), BinOp("/", Var("n"), Lit(2))), 1, 1)
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
        value = compile_definition(expr)
        for i, n in ((1, 1), (3, 10**6), (-7, 12345)):
            assert value(i, n) == walked(expr, i, n), (text, i, n)


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
