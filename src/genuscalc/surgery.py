"""Surgery obstructions for normal invariants of bundles over S^4 x HP^n.

A normal invariant is encoded by rational parameters (A, B, C, lambda): the
candidate bundle xi over S^4 x HP^n has Pontryagin character
ph(xi) = lambda * u * (A + B z + C z^2) when n = 2, and the pair (A, C)
drives the two surviving classes p_1 and p_{n+1} for general n.  Everything
downstream -- the signature of the surgered manifold, the surgery obstruction
sigma, the A-hat genus of the total space -- is evaluated exactly inside the
product cohomology ring, with no precomputed constants.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .manifolds import ManifoldModel, hp_model, product_model, signature, sphere_model
from .multseq import ahat_genus_table, evaluate_genus, l_genus_table
from .rational import _instance, _rational, _size
from .record import FrozenRecord
from .ring import RingElement

__all__ = [
    "BundleSolution",
    "NormalInvariantParams",
    "a_hat_total_space",
    "ambient_model",
    "p1_cubed_total_space",
    "solve_bundle",
    "surgery_obstruction",
    "xi_total_class",
]


class NormalInvariantParams(FrozenRecord):
    """Rational bundle parameters over S^4 x HP^n.

    B only matters when n = 2; for other n it must be zero.  The scale
    lambda must be nonzero.
    """

    __slots__ = ("n", "A", "B", "C", "lam")

    def __init__(
        self,
        n: int,
        A: Fraction = Fraction(0),
        B: Fraction = Fraction(0),
        C: Fraction = Fraction(0),
        lam: Fraction = Fraction(1),
    ) -> None:
        n = _size(n, "fibre projective dimension", 2)
        super().__init__(n, *map(_rational, (A, B, C, lam)))
        if not self.lam:
            raise ValueError("scale lambda must be nonzero")
        if n != 2 and self.B:
            raise ValueError(f"parameter B is only meaningful when n = 2, got n = {n}")


class BundleSolution(FrozenRecord):
    """Output of solve_bundle: a representative plus the full sigma = 0 kernel."""

    __slots__ = ("params", "sigma", "a_hat", "p1_cubed", "kernel_basis")


@lru_cache(maxsize=None)
def ambient_model(n: int) -> ManifoldModel:
    """The base manifold S^4 x HP^n with cohomology Q[u, z]/(u^2, z^{n+1})."""
    return product_model(sphere_model(4), hp_model(n))


def xi_total_class(params: NormalInvariantParams) -> RingElement:
    """Total Pontryagin class of the candidate bundle.

    The surviving classes are p_1 = lambda A u, p_2 = -6 lambda B uz (B is
    zero unless n = 2) and p_{n+1} = (-1)^n (2n+1)! lambda C u z^n; at n = 2
    the last is 120 lambda C uz^2.  Every other class vanishes.
    """
    n, lam = _instance(params, NormalInvariantParams, "normal invariant parameters").n, params.lam
    return ambient_model(n).presentation.element({
        (0, 0): 1,
        (1, 0): lam * params.A,
        (1, 1): lam * params.B * -6,
        (1, n): lam * params.C * ((-1) ** n * factorial(2 * n + 1)),
    })


def _surgered_integral(params: NormalInvariantParams, genus_table) -> Fraction:
    """The integral of G(T(S^4 x HP^n)) * G(xi)^{-1} over the fundamental
    class, for the genus G whose table `genus_table(weight)` builds."""
    model = ambient_model(_instance(params, NormalInvariantParams, "normal invariant parameters").n)
    table = genus_table(model.presentation.top_degree // 4)
    ambient = evaluate_genus(table, model.tangent_pontryagin)
    xi_inverse = evaluate_genus(table, xi_total_class(params)).inverse()
    return model.integrate(ambient * xi_inverse)


def surgery_obstruction(params: NormalInvariantParams) -> Fraction:
    """The obstruction sigma = (signature of the surgered manifold minus the
    signature of S^4 x HP^n) / 8, computed by integrating
    L(T(S^4 x HP^n)) * L(xi)^{-1} over the fundamental class."""
    surgered_signature = _surgered_integral(params, l_genus_table)
    return (surgered_signature - signature(ambient_model(params.n))) / 8


def a_hat_total_space(params: NormalInvariantParams) -> Fraction:
    """A-hat genus of the surgered total space: the integral of
    Ahat(T(S^4 x HP^n)) * Ahat(xi)^{-1}."""
    return _surgered_integral(params, ahat_genus_table)


def p1_cubed_total_space(params: NormalInvariantParams) -> Fraction:
    """The characteristic number p_1^3 of the surgered manifold for n = 2.

    Its tangent bundle has p_1 = p_1(S^4 x HP^2) - p_1(xi) = 2z - lambda A u.
    """
    if _instance(params, NormalInvariantParams, "normal invariant parameters").n != 2:
        raise ValueError(f"p_1^3 is an invariant of the 12-dimensional case n = 2, got n = {params.n}")
    model = ambient_model(2)
    p1 = model.tangent_pontryagin.homogeneous_part(4) - xi_total_class(params).homogeneous_part(4)
    return model.integrate(p1**3)


def _primitive_vector(vec: list[Fraction]) -> tuple[Fraction, ...]:
    """Scale to a primitive integer vector whose first nonzero entry is positive."""
    denom = lcm(*(c.denominator for c in vec))
    scaled = [c * denom for c in vec]
    common = gcd(*(c.numerator for c in scaled)) * (1 if next(filter(None, scaled)) > 0 else -1)
    return tuple(c / common for c in scaled)


def solve_bundle(n: int, require_section: bool = False) -> BundleSolution:
    """Find bundle parameters with sigma = 0 and nonzero total-space A-hat genus.

    The parameters are (A, B, C) for n = 2 and (A, C) for even n > 2.  Two
    facts fix the answer, so nothing is searched.  sigma's A coefficient c_A
    is -sig(HP^n)/24 (at A = 1, L(xi)^{-1} = 1 - u/3 and S^4 x HP^n has
    signature 0): -1/24 at every even n, and 0 at odd n, which is refused.
    So the sigma = 0 kernel is solved for A; its basis holds e_j - (c_j / c_A) e_A,
    in primitive integer form, for each other parameter j.  The A-hat genus
    has no A term, as A-hat(HP^n) = 0, while its B term (n = 2) and its C
    term, which carries a Bernoulli number, are nonzero; so the first basis
    vector is the representative.  With require_section set (n = 2 only) it
    is (0, -8 sigma_C, 8 sigma_B) instead.  Every sigma coefficient comes
    from a ring evaluation, not a stored constant.
    """
    n = _size(n, "fibre projective dimension", 0)
    if n < 2 or n % 2:
        raise ValueError(f"pair mode needs an even fibre dimension >= 2, got {n}")
    if require_section and n != 2:
        raise ValueError(f"a section can only be required when n = 2, got n = {n}")
    names = ("A", "B", "C") if n == 2 else ("A", "C")
    c_a, *coeffs = (surgery_obstruction(NormalInvariantParams(n, **{name: 1})) for name in names)
    if not c_a:
        raise RuntimeError("obstruction functional vanished identically")
    basis = tuple(
        _primitive_vector([-c / c_a, *(Fraction(i == j) for i in range(len(coeffs)))])
        for j, c in enumerate(coeffs)
    )
    rep = (Fraction(0), -8 * coeffs[1], 8 * coeffs[0]) if require_section else basis[0]
    params = NormalInvariantParams(n, **dict(zip(names, rep)))
    a_hat = a_hat_total_space(params)
    if not a_hat:
        raise RuntimeError("no candidate representative has nonzero A-hat genus")
    sigma = surgery_obstruction(params)
    if sigma:
        raise RuntimeError(f"representative fails sigma = 0: {sigma}")
    p1_cubed = p1_cubed_total_space(params) if n == 2 else None
    return BundleSolution(params, sigma, a_hat, p1_cubed, basis)
