"""Exact rational scalars: parsing and formatting.

Every computation in this package runs on `fractions.Fraction`.  Results
are always in canonical reduced form with a positive denominator; nothing is
ever rounded.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["format_rational", "parse_rational"]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")
# A surgery result can carry ~4x the digits of its inputs, and the interpreter
# prints no integer past 4,300 digits; at this bound results stay below that.
_MAX_DIGITS = 1000


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` into a Fraction.

    Both parts are written in ASCII decimal digits, at most 1,000 of them,
    and the denominator, when present, must be positive; anything else
    (floats, letters, other digit scripts, zero denominators, longer
    integers) is rejected.
    """
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"malformed rational {text!r}, expected num or num/den")
    digits = max(len(part.lstrip("+-")) for part in s.split("/"))
    if digits > _MAX_DIGITS:
        raise ValueError(f"{digits}-digit integer is too large")
    return Fraction(s)


def format_rational(value: Fraction | int) -> str:
    """Render a rational as ``num/den``, omitting the denominator when it is 1."""
    return str(Fraction(value))

