"""Truncated univariate power series over exact rationals, and the two graded
recurrences, quotient and exp, and the repeated-squaring power that every
truncated algebra here shares.

Also builds the two characteristic series driving everything else: the
signature genus series sqrt(z)/tanh(sqrt(z)) and the A-hat genus series
(sqrt(z)/2)/sinh(sqrt(z)/2), both expanded in the squared variable z so that
all coefficients are rational.  They are produced by exact series division
of factorial series, never from closed-form Bernoulli expressions.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from math import factorial

from .rational import _rationals, _size
from .record import FrozenRecord

__all__ = ["Series", "ahat_genus_series", "l_genus_series"]


# The recurrences below act on the homogeneous parts a_0..a_N of an element
# of a truncated graded algebra (series coefficients, or ring classes by
# degree).  They are exact because the grading operator D(a) = sum_k k a_k
# is a derivation (Brent and Kung, J. ACM 1978).


def _convolve(a: Sequence, b: Sequence, n: int, start):
    """start + sum_{k=1..n} a_k b_{n-k}, skipping zero factors; ring terms are
    added by their ring's one-construction sum, Fractions by `sum`."""
    products = (a[k] * b[n - k] for k in range(1, n + 1) if a[k] and b[n - k])
    if isinstance(start, Fraction):
        return sum(products, start)
    return start.presentation._sum(chain((start,), products))


def quotient_parts(num: Sequence, den: Sequence) -> list:
    """Parts q_0..q_N of num / den, den_0 = 1: q_n = num_n - sum_{k=1..n} den_k q_{n-k}.
    So 1/a is the quotient of 1 by a, and D(log a) that of D(a) by a."""
    neg = [-d for d in den]
    out = [num[0]]
    for n in range(1, len(num)):
        out.append(_convolve(neg, out, n, num[n]))
    return out


def exp_parts(graded: Sequence, one) -> list:
    """Parts e_0..e_N of exp(f) from the parts h_0..h_N of D(f), whose h_0 is
    zero and starts each sum: e_0 = 1 and n e_n = sum_{k=1..n} h_k e_{n-k}."""
    out = [one]
    for n in range(1, len(graded)):
        out.append(_convolve(graded, out, n, graded[0]) * Fraction(1, n))
    return out


def _power(one, base, exponent: int):
    """base ** exponent by repeated squaring, starting from the algebra's `one`."""
    exponent = _size(exponent, "exponent", 0)
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


class Series(FrozenRecord):
    """Power series truncated at a fixed order, with Fraction coefficients.

    A product is truncated to the smaller order of its two factors.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients, order: int | None = None):
        coeffs = _rationals(coefficients, "coefficients")
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        order = _size(order, "series order", 0)
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        super().__init__(tuple(coeffs[: order + 1]))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coefficients[k]

    def __mul__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coefficients, other.coefficients
        return Series([_convolve(a, b, k, a[0] * b[k]) for k in range(n + 1)], n)

    def __pow__(self, exponent: int) -> Series:
        return _power(Series([1], self.order), self, exponent)

    def inverse(self) -> Series:
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coefficients[0]
        if not c0:
            raise ValueError("series with zero constant term is not invertible")
        num = [1 / c0] + [Fraction(0)] * self.order
        return Series(quotient_parts(num, [c / c0 for c in self.coefficients]), self.order)

    def exp(self) -> Series:
        """Exponential of a series with zero constant term."""
        if self.coefficients[0]:
            raise ValueError("exp requires a zero constant term")
        graded = [k * c for k, c in enumerate(self.coefficients)]
        return Series(exp_parts(graded, Fraction(1)), self.order)

    def log(self) -> Series:
        """Logarithm of a series with constant term 1."""
        if self.coefficients[0] != 1:
            raise ValueError("log requires constant term 1")
        graded = quotient_parts([k * c for k, c in enumerate(self.coefficients)], self.coefficients)
        return Series([0] + [h / k for k, h in enumerate(graded[1:], 1)], self.order)

    def __repr__(self) -> str:
        return f"Series([{', '.join(str(c) for c in self.coefficients)}])"


def l_genus_series(order: int) -> Series:
    """Signature genus series sqrt(z)/tanh(sqrt(z)) up to z^order.

    Computed as the exact quotient of cosh(t) by sinh(t)/t with t^2 = z,
    i.e. [sum z^k/(2k)!] / [sum z^k/(2k+1)!].
    """
    order = _size(order, "series order", 0)
    num = [Fraction(1, factorial(2 * k)) for k in range(order + 1)]
    den = [Fraction(1, factorial(2 * k + 1)) for k in range(order + 1)]
    return Series(quotient_parts(num, den), order)


def ahat_genus_series(order: int) -> Series:
    """A-hat genus series (sqrt(z)/2)/sinh(sqrt(z)/2) up to z^order.

    Computed as the exact quotient of 1 by sinh(t)/t with t = sqrt(z)/2,
    i.e. 1 / [sum z^k/(4^k (2k+1)!)].
    """
    order = _size(order, "series order", 0)
    num = [Fraction(1)] + [Fraction(0)] * order
    den = [Fraction(1, 4**k * factorial(2 * k + 1)) for k in range(order + 1)]
    return Series(quotient_parts(num, den), order)
