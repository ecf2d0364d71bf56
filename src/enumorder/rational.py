"""Text form of exact rational values.

Values are ``fractions.Fraction`` instances: arbitrary-precision, always in
lowest terms with a positive denominator, so equality is structural and
comparison is exact cross-multiplication with no rounding anywhere.

Python refuses to convert integers of more than 4,300 decimal digits to or
from text by default. Both directions here split long integers into halves
below that limit, so values of any size print and parse, without changing
the interpreter-wide limit.
"""

from __future__ import annotations

import re
from fractions import Fraction


_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")

# Integers up to this many bits (about 3,900 digits) convert in one step.
_DIRECT_BITS = 13_000
_DIRECT_DIGITS = 3_900


def _int_from_digits(digits: str) -> int:
    if len(digits) <= _DIRECT_DIGITS:
        return int(digits)
    low = len(digits) // 2
    return _int_from_digits(digits[:-low]) * 10**low + _int_from_digits(digits[-low:])


def _int_text(value: int) -> str:
    if value < 0:
        return "-" + _int_text(-value)
    if value.bit_length() <= _DIRECT_BITS:
        return str(value)
    # 3/20 of the bit length is just under half the decimal digits, so both
    # halves shrink and the low one has at most ``low`` digits.
    low = value.bit_length() * 3 // 20
    high, rest = divmod(value, 10**low)
    return _int_text(high) + _int_text(rest).zfill(low)


def parse_rational(text: str) -> Fraction:
    """Parse the textual form ``p/q`` (``q`` omitted when 1, optional minus)."""
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    numerator = match.group(1)
    p = -_int_from_digits(numerator[1:]) if numerator[0] == "-" else _int_from_digits(numerator)
    q = _int_from_digits(match.group(2)) if match.group(2) is not None else 1
    if q == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    """Inverse of :func:`parse_rational`; round-trips exactly. Same text as
    ``str(x)`` wherever ``str`` works."""
    if x.denominator == 1:
        return _int_text(x.numerator)
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"
