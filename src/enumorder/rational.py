"""Text form of exact rational values.

Values are ``fractions.Fraction`` instances: arbitrary-precision, always in
lowest terms with a positive denominator, so equality is structural and
comparison is exact cross-multiplication with no rounding anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction


class ZeroDenominatorError(ZeroDivisionError):
    """A rational was parsed with denominator zero."""


class RationalParseError(ValueError):
    """Text does not match the ``p/q`` form."""


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse the textual form ``p/q`` (``q`` omitted when 1, optional minus)."""
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise RationalParseError(f"not a rational literal: {text!r}")
    p = int(match.group(1))
    q = int(match.group(2)) if match.group(2) is not None else 1
    if q == 0:
        raise ZeroDenominatorError(f"zero denominator in {text!r}")
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    """Inverse of :func:`parse_rational`; round-trips exactly."""
    return str(x)
