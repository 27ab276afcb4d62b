"""Plain-text rendering of signed sums of rational multiples of monomials."""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction


def signed_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Join (coefficient, monomial) pairs like ``1 + 2/3*z - u*z^2``.

    An empty monomial string stands for the constant term.  Unit
    coefficients are absorbed into the sign.  Every coefficient is nonzero.
    """
    parts: list[str] = []
    for coeff, mono in terms:
        mag = abs(coeff)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"
