"""Text form of exact rationals: parsing, formatting, round trip."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from enumorder.rational import format_rational, parse_rational

from helpers import raises_exactly

rationals_st = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=200
)


def test_parse_examples():
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("4/3") == Fraction(4, 3)
    assert parse_rational("0") == Fraction(0)


def test_parse_rejects_bad_text():
    for bad in ("", "x", "1/2/3", "1.5", "2/-3", "١/٢", "1/²"):
        with raises_exactly(ValueError, f"not a rational literal: {bad!r}"):
            parse_rational(bad)
    with raises_exactly(ZeroDivisionError, "zero denominator in '1/0'"):
        parse_rational("1/0")


@given(rationals_st)
def test_text_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_format_omits_unit_denominator():
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(4, 3)) == "4/3"
    assert format_rational(Fraction(0)) == "0"


def test_values_beyond_the_interpreter_digit_limit_round_trip():
    # 2**20000 has 6,021 digits, past Python's default 4,300-digit limit
    # for integer-to-text conversion.
    for x in (Fraction(2**20000, 3), Fraction(-3, 2**20000), Fraction(-(10**9000))):
        text = format_rational(x)
        assert parse_rational(text) == x
    text = format_rational(Fraction(2**20000, 3))
    assert text.endswith("/3") and text.startswith("39802768403379665923")
    assert len(text) == 6021 + 2


def test_text_is_str_below_the_limit():
    big = Fraction(10**3000 + 7, 3**2000)
    assert format_rational(big) == str(big)
    assert format_rational(Fraction(-(10**4290))) == str(-(10**4290))
