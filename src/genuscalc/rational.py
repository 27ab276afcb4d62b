"""Exact rational scalars: parsing and formatting, and the rules for every
argument that comes from outside the package.

Every computation in this package runs on `fractions.Fraction`.  Results
are always in canonical reduced form with a positive denominator; nothing is
ever rounded.  Sizes are integers in their range, scalars are not floats, text
is read by one num/den grammar with at most 1,000 digits per integer, and
records and text must be of their class.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Set
from fractions import Fraction
from operator import index

__all__ = ["format_rational", "parse_rational"]

_RATIONAL_RE = re.compile(r"([+-]?)([0-9]+)(?:/(0*[1-9][0-9]*))?")
# A surgery result can carry ~4x the digits of its inputs, and the interpreter
# prints no integer past 4,300 digits; at this bound results stay below that.
_MAX_DIGITS = 1000


def _size(value, what: str, low: int, high: int | None = None) -> int:
    """A size as an int in low..high (no upper bound when high is None),
    refused rather than truncated when it is not an integer."""
    try:
        v = index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if v < low or (high is not None and v > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{what} must be {bound}, got {v}")
    return v


def _instance(value, cls, what: str):
    """`value` when it is a `cls`; anything else is refused by name."""
    if not isinstance(value, cls):
        raise ValueError(f"expected {what}, got {value!r}")
    return value


def _rational(value) -> Fraction:
    """A scalar as a Fraction, text read by `parse_rational`; refused when it is
    a float, whose binary value is seldom the rational meant, or no number."""
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise ValueError(f"scalar {value!r} is a float; give an int, a Fraction or 'num/den'")
    try:
        return Fraction(value)
    except TypeError:
        raise ValueError(f"scalar {value!r} is not a rational; give an int, a Fraction or 'num/den'") from None


def _rationals(values, what: str) -> list[Fraction]:
    """Scalars as Fractions; text, a mapping, a set and a non-sequence are refused, not read."""
    if isinstance(values, (str, bytes, bytearray, Mapping, Set)) or not hasattr(values, "__iter__"):
        raise ValueError(f"{what} must be a sequence of scalars, got {values!r}")
    return [_rational(v) for v in values]


def _parse_natural(text: str) -> int:
    """A nonnegative integer in ASCII decimal digits, at most 1,000 of them;
    longer text is refused before `int` sees it, so no interpreter setting
    decides what is accepted or how long the message is."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected a nonnegative integer, got {text!r}")
    if len(text) > _MAX_DIGITS:
        raise ValueError(f"{len(text)}-digit integer is too large")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` text into a Fraction: both parts in ASCII
    decimal digits, at most 1,000 each, the denominator positive; anything else
    (floats, letters, other digit scripts, zero denominators, no text) is refused."""
    match = _RATIONAL_RE.fullmatch(_instance(text, str, "a string").strip())
    if not match:
        raise ValueError(f"malformed rational {text!r}, expected num or num/den")
    sign, num, den = match.groups()
    value = Fraction(_parse_natural(num), _parse_natural(den or "1"))
    return -value if sign == "-" else value


def format_rational(value: Fraction | int) -> str:
    """Render a rational as ``num/den``, omitting the denominator when it is 1."""
    return str(_rational(value))

