"""sympy as an independent oracle: the genus-defining series and the genera of
HP^n come out of symbolic series expansions, with no code shared with the
package.  Every series is taken in x = sqrt(z), so z^k is the coefficient of
x^(2k)."""

from fractions import Fraction

import pytest

from genuscalc import a_hat_genus, ahat_genus_series, hp_model, l_genus_series, signature

sp = pytest.importorskip("sympy")

x = sp.symbols("x")
L_SERIES = x / sp.tanh(x)  # sqrt(z) / tanh(sqrt(z))
AHAT_SERIES = (x / 2) / sp.sinh(x / 2)  # (sqrt(z)/2) / sinh(sqrt(z)/2)
ORDER = 10


def _z_coefficients(expr, order):
    """Coefficients of z^0..z^order of an even series in x = sqrt(z)."""
    poly = sp.series(expr, x, 0, 2 * order + 1).removeO()
    coeffs = [poly.coeff(x, 2 * k) for k in range(order + 1)]
    return [Fraction(int(c.p), int(c.q)) for c in coeffs]


@pytest.mark.parametrize(
    "series, expr", [(l_genus_series, L_SERIES), (ahat_genus_series, AHAT_SERIES)]
)
def test_genus_series_match_symbolic_expansions(series, expr):
    assert list(series(ORDER).coefficients) == _z_coefficients(expr, ORDER)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("genus, expr", [(signature, L_SERIES), (a_hat_genus, AHAT_SERIES)])
def test_genera_of_hp_n_match_symbolic_expansions(genus, expr, n):
    # p(HP^n) = (1 + z)^(2n+2) / (1 + 4z), so a genus with characteristic
    # series Q is the z^n coefficient of Q(z)^(2n+2) / Q(4z).
    characteristic = expr ** (2 * n + 2) / expr.subs(x, 2 * x)
    assert genus(hp_model(n)) == _z_coefficients(characteristic, n)[n]
