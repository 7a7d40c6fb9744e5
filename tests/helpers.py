"""Helpers shared by the test modules."""

from decimal import Decimal
from fractions import Fraction


def exact_fraction(s: str) -> Fraction:
    """Inverse of `experiment.exact_str`, for digit strings of any length."""
    num, _, den = s.partition("/")
    return Fraction(*Decimal(num).as_integer_ratio()) / Fraction(
        *Decimal(den or "1").as_integer_ratio()
    )
