"""Exact rational scalars: parsing and formatting, and the rules for every
number that comes from outside the package.

Every computation in this package runs on `fractions.Fraction`.  Results
are always in canonical reduced form with a positive denominator; nothing is
ever rounded.  Sizes must be integers, scalars must not be floats, and text
has at most 1,000 digits per integer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import index

__all__ = ["format_rational", "parse_rational"]

_RATIONAL_RE = re.compile(r"([+-]?)([0-9]+)(?:/(0*[1-9][0-9]*))?")
# A surgery result can carry ~4x the digits of its inputs, and the interpreter
# prints no integer past 4,300 digits; at this bound results stay below that.
_MAX_DIGITS = 1000


def _size(value, what: str) -> int:
    """A size as an int, refused rather than truncated when it is not an integer."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _rational(value) -> Fraction:
    """A scalar as a Fraction, refused when it is a float, whose binary value
    is seldom the rational meant."""
    if isinstance(value, float):
        raise ValueError(f"scalar {value!r} is a float; give an int, a Fraction or 'num/den'")
    return Fraction(value)


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
    """Parse ``num`` or ``num/den`` into a Fraction.

    Both parts are written in ASCII decimal digits, at most 1,000 of them,
    and the denominator, when present, must be positive; anything else
    (floats, letters, other digit scripts, zero denominators, longer
    integers) is rejected.
    """
    match = _RATIONAL_RE.fullmatch(text.strip())
    if not match:
        raise ValueError(f"malformed rational {text!r}, expected num or num/den")
    sign, num, den = match.groups()
    value = Fraction(_parse_natural(num), _parse_natural(den or "1"))
    return -value if sign == "-" else value


def format_rational(value: Fraction | int) -> str:
    """Render a rational as ``num/den``, omitting the denominator when it is 1."""
    return str(Fraction(value))

