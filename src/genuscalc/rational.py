"""Exact rational scalars: parsing and formatting.

Every computation in this package runs on `fractions.Fraction`.  Results
are always in canonical reduced form with a positive denominator; nothing is
ever rounded.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["format_rational", "parse_rational"]

_RATIONAL_RE = re.compile(r"([+-]?)([0-9]+)(?:/(0*[1-9][0-9]*))?")
# A surgery result can carry ~4x the digits of its inputs, and the interpreter
# prints no integer past 4,300 digits; at this bound results stay below that.
_MAX_DIGITS = 1000


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

