"""Sequence definition language: parsing, printing, evaluation, listings."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumorder.listings import ListingExhausted, build_T
from enumorder.seqlang import (
    MAX_DEGREE,
    MAX_DEPTH,
    BinOp,
    Clause,
    MAX_POWER_BITS,
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

from helpers import raises_exactly, to_text

FAMILY_TEXT = "case i odd: (i-1) + (n-1)/n ; case i even: i - (n-1)/n"

NON_TOTAL = "piecewise definition must end with a fallback clause or contain both parity guards"


def F(*args):
    return Fraction(*args)


def evaluator(expr):
    """The definition compiled for each i, each reduced pair it gives read as
    its Fraction."""
    return lambda i, n: Fraction(*compile_definition(expr, i)(n))


# --- parsing -------------------------------------------------------------------


def test_parse_division_binds_tighter_than_addition():
    expr = parse("(i-1) + (n-1)/n")
    assert expr == BinOp(
        "+",
        BinOp("-", Var("i"), Lit(1)),
        BinOp("/", BinOp("-", Var("n"), Lit(1)), Var("n")),
    )


def test_parse_family_definition():
    expr = parse(FAMILY_TEXT)
    assert isinstance(expr, Piecewise)
    assert len(expr.clauses) == 2
    assert expr.clauses[0].guard == ParityGuard("odd")
    assert expr.clauses[1].guard == ParityGuard("even")


def test_parse_error_carries_offset_and_expected():
    with raises_exactly(ValueError, "offset 4: expected ), found end of input"):
        parse("1/(n")


def test_parse_error_on_unknown_character():
    # Only the ASCII digits 0-9 make an int, as the grammar says.
    for text, offset, found in (("1 @ 2", 2, "'@'"), ("n^²", 2, "'²'"), ("٣*n", 0, "'٣'")):
        message = f"offset {offset}: expected digit or name or operator, found {found}"
        with raises_exactly(ValueError, message):
            parse(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("int", "offset 0: expected int or n or i or (, found 'int'"),
        ("n^int", "offset 2: expected int, found 'int'"),
        ("n end", "offset 2: expected ;, found 'end'"),
        ("case int: n", "offset 5: expected i or n or otherwise, found 'int'"),
        ("case i int: n", "offset 7: expected odd or even, found 'int'"),
        ("case n < int: n", "offset 9: expected int, found 'int'"),
        ("case n n: n", "offset 7: expected < or >=, found 'n'"),
        ("n > 1", "offset 2: expected >=, found '>'"),
        ("", "offset 0: expected int or n or i or (, found end of input"),
        ("# only a comment\n", "offset 17: expected int or n or i or (, found end of input"),
        ("(n", "offset 2: expected ), found end of input"),
        ("n)", "offset 1: expected ;, found ')'"),
        ("n;", "offset 2: expected int or n or i or (, found end of input"),
        ("case i odd n", "offset 11: expected :, found 'n'"),
        ("case otherwise n", "offset 15: expected :, found 'n'"),
        ("n^-2", "offset 2: expected int, found '-'"),
        ("n x", "offset 2: expected ;, found 'x'"),
        ("n²", "offset 1: expected digit or name or operator, found '²'"),
        ("nⅫ+1", "offset 1: expected digit or name or operator, found 'Ⅻ'"),
        ("\ufeffn", "offset 0: expected digit or name or operator, found '\\ufeff'"),
        ("n_i", "offset 1: expected digit or name or operator, found '_'"),
        ("n +\v1", "offset 3: expected digit or name or operator, found '\\x0b'"),
        ("n @ n^int", "offset 2: expected digit or name or operator, found '@'"),
        # Offsets count characters: "é" is one, though two bytes in UTF-8.
        ("é @", "offset 2: expected digit or name or operator, found '@'"),
    ],
)
def test_malformed_input_messages(text, message):
    with raises_exactly(ValueError, message):
        parse(text)


# The grammar's tokens and some of its phrases, names it does not know, and
# stray characters: a superscript digit, a byte-order mark, an underscore and
# a vertical tab.
PARSE_PIECES = (
    "0", "7", "12", "007", "n", "i", "case", "odd", "even", "otherwise", "int", "end", "x",
    "é", "+", "-", "*", "/", "^", "(", ")", ":", ";", "<", ">=", ">", " ", "\n", "# c\n",
    "²", "\ufeff", "_", "\v", "case i odd: ", "case i even: ", "case n < 3: ",
    "case n >= 2: ", "case otherwise: ", " ; ", "(n+1)", "^2", "^100001", "1/(n-2)",
)
SYNTAX_MESSAGE = re.compile(r"offset (\d+): expected .+, found .+")


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(PARSE_PIECES), max_size=24).map("".join) | st.text())
def test_parse_returns_or_raises_one_of_two_messages(text):
    try:
        parse(text)
    except ValueError as error:
        assert type(error) is ValueError
        message = str(error)
        if message != NON_TOTAL:
            syntax = SYNTAX_MESSAGE.fullmatch(message)
            assert syntax is not None, message
            assert 0 <= int(syntax[1]) <= len(text), message


def test_power_at_the_degree_cap_parses():
    assert parse(f"(n+1)^{MAX_DEGREE}") == Pow(BinOp("+", Var("n"), Lit(1)), MAX_DEGREE)
    assert parse("n^000003") == Pow(Var("n"), 3)
    # Literals and i do not grow with n: these are no larger than
    # (n+c)^MAX_DEGREE, so they parse.
    for text in (
        f"(n*i)^{MAX_DEGREE}",
        f"(2*n)^{MAX_DEGREE // 2 + 1}",
        f"(1/(n+1))^{MAX_DEGREE // 2 + 1}",
        f"-(2^2 + n)^{MAX_DEGREE // 2 + 1}",
    ):
        assert isinstance(parse(text), (Pow, Neg)), text


def test_huge_exponent_is_rejected_before_evaluation():
    # 3^99999999 alone would take minutes and tens of megabytes; the parser
    # must refuse from the literal's digits without computing anything.
    expected = f"expected an exponent and a degree in n <= {MAX_DEGREE}"
    with raises_exactly(ValueError, f"offset 6: {expected}, found '99999999'"):
        parse("(n+1)^99999999")
    with raises_exactly(ValueError, f"offset 2: {expected}, found '{'9' * 20}...'") as failure:
        parse("n^" + "9" * 5000)
    assert len(str(failure.value)) < 200


def test_nested_and_product_powers_count_toward_the_cap():
    for text, offset, exponent in (
        (f"(n+1)^{MAX_DEGREE + 1}", 6, MAX_DEGREE + 1),
        ("((n+1)^1000)^1000", 13, 1000),
        (f"(n*n)^{MAX_DEGREE // 2 + 1}", 6, MAX_DEGREE // 2 + 1),
        (f"-(n^2 + n)^{MAX_DEGREE // 2 + 1}", 11, MAX_DEGREE // 2 + 1),
        (f"2^{MAX_DEGREE + 1}", 2, MAX_DEGREE + 1),
    ):
        expected = f"expected an exponent and a degree in n <= {MAX_DEGREE}"
        with raises_exactly(ValueError, f"offset {offset}: {expected}, found '{exponent}'"):
            parse(text)


def nested_parentheses(depth: int) -> str:
    return "(" * depth + "n" + ")" * depth


def subtraction_chain(depth: int) -> str:
    return "-".join(["n"] * (depth + 1))


def test_nesting_depth_cap_for_both_shapes():
    # depth parentheses around n, and depth left-nested subtractions.
    assert evaluator(parse(nested_parentheses(MAX_DEPTH)))(1, 7) == 7
    assert evaluator(parse(subtraction_chain(MAX_DEPTH)))(1, 7) == 7 - 7 * MAX_DEPTH
    # One level more is refused at the parenthesis or operator that opens it.
    expected = f"expected a nesting depth <= {MAX_DEPTH}"
    with raises_exactly(ValueError, f"offset {MAX_DEPTH}: {expected}, found '('"):
        parse(nested_parentheses(MAX_DEPTH + 1))
    with raises_exactly(ValueError, f"offset {2 * MAX_DEPTH + 1}: {expected}, found '-'"):
        parse(subtraction_chain(MAX_DEPTH + 1))


def test_nesting_depth_counts_operators_and_parentheses_together():
    inner = subtraction_chain(MAX_DEPTH // 2)
    assert parse(f"{'(' * (MAX_DEPTH // 2)}{inner}{')' * (MAX_DEPTH // 2)}")
    for text, offset, found in (
        (f"{'(' * (MAX_DEPTH // 2 + 1)}{inner}{')' * (MAX_DEPTH // 2 + 1)}", 0, "'('"),
        (f"-{nested_parentheses(MAX_DEPTH)}", 0, "'-'"),
        (f"{nested_parentheses(MAX_DEPTH)}^2", 2 * MAX_DEPTH + 1, "'^'"),
    ):
        message = f"offset {offset}: expected a nesting depth <= {MAX_DEPTH}, found {found}"
        with raises_exactly(ValueError, message):
            parse(text)


def test_oversized_power_is_refused_before_it_is_computed():
    # 4,000 digits is about 13,300 bits; the power would have 1.3e9 bits.
    def too_large(bits, i, n):
        cap = f"exceeds the {MAX_POWER_BITS}-bit cap"
        return raises_exactly(ValueError, f"power of up to {bits} bits at (i={i}, n={n}) {cap}")

    literal = "1" + "0" * 3999
    expr = parse(f"{literal}^{MAX_DEGREE}")
    with too_large((10**3999).bit_length() * MAX_DEGREE, 1, 1):
        evaluator(expr)(1, 1)
    expr = parse(f"i^{MAX_DEGREE}")
    with too_large((10**4000).bit_length() * MAX_DEGREE, 10**4000, 3):
        evaluator(expr)(10**4000, 3)
    # The cap is on k * bits(base): a 4,000-bit base to the 1,000th is at
    # MAX_POWER_BITS and is computed, one more bit is refused.
    value = evaluator(parse("(1/(n+1))^1000"))
    assert MAX_POWER_BITS == 4000 * 1000
    assert value(0, 2**3999 - 1) == Fraction(1, 2**3_999_000)
    with too_large(4001 * 1000, 0, 2**4000 - 1):
        value(0, 2**4000 - 1)


def test_literals_beyond_the_interpreter_digit_limit():
    literal = "7" * 5000
    expr = parse(f"{literal} / n")
    assert expr == BinOp("/", Lit(int("7" * 2000) * 10**3000 + int("7" * 3000)), Var("n"))
    assert parse(to_text(expr)) == expr
    guarded = parse(f"case n < {literal}: n ; case otherwise: 0")
    assert parse(to_text(guarded)) == guarded
    assert evaluator(guarded)(1, 5) == 5


def test_parse_precedence_table():
    assert parse("2+3*4") == BinOp("+", Lit(2), BinOp("*", Lit(3), Lit(4)))
    assert parse("2*3^2") == BinOp("*", Lit(2), Pow(Lit(3), 2))
    assert parse("-2^2") == Neg(Pow(Lit(2), 2))
    assert parse("1-2-3") == BinOp("-", BinOp("-", Lit(1), Lit(2)), Lit(3))
    assert parse("2 * -3") == BinOp("*", Lit(2), Neg(Lit(3)))


def test_parse_whitespace_and_comments():
    text = "# family\n  (i-1)\t+ (n-1)/n  # tail comment\n"
    assert parse(text) == parse("(i-1) + (n-1)/n")


def test_parse_threshold_guard_dispatch():
    expr = parse("case n < 3: n ; case otherwise: 0")
    assert isinstance(expr, Piecewise)
    assert expr.clauses[0].guard == ThresholdGuard("<", 3)
    value = evaluator(expr)
    assert value(0, 2) == F(2)
    assert value(0, 3) == F(0)


def test_parse_unguarded_tail_acts_as_fallback():
    value = evaluator(parse("case n >= 5: 1 ; n"))
    assert value(0, 7) == F(1)
    assert value(0, 2) == F(2)


def test_non_total_piecewise_rejected():
    for text in (
        "case i odd: n",
        "case n < 5: 1 ; case n >= 5: 2",
        "case otherwise: 1 ; case i odd: n",
    ):
        with raises_exactly(ValueError, NON_TOTAL):
            parse(text)


def test_parity_pair_is_total():
    parse("case i odd: 1 ; case i even: 2")


def test_single_expression_is_not_piecewise():
    assert parse("n/3") == BinOp("/", Var("n"), Lit(3))


# --- evaluation ------------------------------------------------------------------


def test_family_evaluation_examples():
    value = evaluator(parse(FAMILY_TEXT))
    assert value(1, 2) == F(1, 2)
    assert value(2, 1) == F(2)


def test_division_by_zero_carries_location():
    expr = parse("1/(n-1)")
    with raises_exactly(ZeroDivisionError, "division by zero at (i=4, n=1)"):
        evaluator(expr)(4, 1)


def test_evaluate_is_pure():
    value = evaluator(parse(FAMILY_TEXT))
    assert value(3, 17) == value(3, 17)


def test_power_evaluation():
    assert evaluator(parse("(n+1)^3"))(0, 1) == F(8)
    assert evaluator(parse("2^0"))(0, 1) == F(1)


def test_family_matches_builtin_blocks():
    value = evaluator(parse(FAMILY_TEXT))
    for i in range(1, 7):
        built = build_T(i).listing().prefix(100)
        evaluated = [value(i, n) for n in range(1, 101)]
        assert built == evaluated


# --- listings ---------------------------------------------------------------------


def test_to_listing_matches_block_family():
    spec = seq_spec(parse(FAMILY_TEXT), 1, "seqfam:i=1")
    assert spec.name == "seqfam:i=1"
    assert spec.listing().prefix(100) == build_T(1).listing().prefix(100)


def test_to_listing_thirds_shape():
    assert seq_spec(parse("n/3"), 0, "thirds").listing().prefix(3) == [F(1, 3), F(2, 3), F(1)]


def test_constant_expression_dedups_to_singleton():
    ls = seq_spec(parse("1"), 0, "one").listing()
    assert ls.try_prefix(4) == [F(1)]
    # The duplicate limit stopped the draw; the stream itself never ended.
    with pytest.raises(ListingExhausted, match="cut off after 1 values"):
        ls.value_at(1)
    assert ls.is_cut_off()


def test_to_listing_propagates_evaluation_errors():
    ls = seq_spec(parse("1/(n-1)"), 0, "pole").listing()
    with raises_exactly(ZeroDivisionError, "division by zero at (i=0, n=1)"):
        ls.value_at(0)


# --- printing ---------------------------------------------------------------------


def test_round_trip_family_definition():
    expr = parse(FAMILY_TEXT)
    assert parse(to_text(expr)) == expr


def test_round_trip_preserves_grouping():
    exprs = [
        BinOp("+", Lit(1), BinOp("+", Lit(2), Lit(3))),
        BinOp("-", BinOp("-", Lit(1), Lit(2)), Lit(3)),
        Neg(BinOp("+", Var("n"), Lit(1))),
        Pow(Neg(Lit(2)), 3),
        BinOp("*", Neg(Var("i")), Pow(Var("n"), 2)),
        Neg(Neg(Lit(3))),
    ]
    for expr in exprs:
        assert parse(to_text(expr)) == expr


def _random_expr(rng: random.Random, depth: int):
    choices = ["lit", "var"]
    if depth > 0:
        choices += ["bin", "bin", "neg", "pow"]
    kind = rng.choice(choices)
    if kind == "lit":
        return Lit(rng.randrange(0, 20))
    if kind == "var":
        return Var(rng.choice(["n", "i"]))
    if kind == "neg":
        return Neg(_random_expr(rng, depth - 1))
    if kind == "pow":
        return Pow(_random_expr(rng, depth - 1), rng.randrange(0, 4))
    op = rng.choice(["+", "-", "*", "/"])
    return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _random_sequence_expr(rng: random.Random):
    if rng.random() < 0.5:
        return _random_expr(rng, 4)
    clauses = []
    for _ in range(rng.randrange(1, 4)):
        guard = rng.choice(
            [
                ParityGuard("odd"),
                ParityGuard("even"),
                ThresholdGuard("<", rng.randrange(1, 9)),
                ThresholdGuard(">=", rng.randrange(1, 9)),
            ]
        )
        clauses.append(Clause(guard, _random_expr(rng, 3)))
    clauses.append(Clause(rng.choice([None, Otherwise()]), _random_expr(rng, 3)))
    return Piecewise(tuple(clauses))


def test_round_trip_randomized_asts():
    rng = random.Random(1207)
    for _ in range(100):
        expr = _random_sequence_expr(rng)
        assert parse(to_text(expr)) == expr
