"""Exact rational scalars: parsing, formatting, factorials, Bernoulli numbers.

Every computation in this package runs on `fractions.Fraction`.  Results
are always in canonical reduced form with a positive denominator; nothing is
ever rounded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, factorial

__all__ = ["bernoulli", "factorial", "format_rational", "parse_rational"]

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?")


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den`` into a Fraction.

    The denominator, when present, must be a positive integer written in
    decimal; anything else (floats, letters, zero denominators) is rejected.
    """
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"malformed rational {text!r}, expected num or num/den")
    return Fraction(s)


def format_rational(value: Fraction | int) -> str:
    """Render a rational as ``num/den``, omitting the denominator when it is 1."""
    return str(Fraction(value))


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k in the convention B_1 = -1/2.

    Generated from scratch by the recurrence
    sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, with B_0 = 1.
    """
    if k < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {k}")
    values = [Fraction(1)]
    for m in range(1, k + 1):
        acc = sum(comb(m + 1, j) * values[j] for j in range(m))
        values.append(-acc / (m + 1))
    return values[k]
