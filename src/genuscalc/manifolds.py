"""Cohomology models of the closed manifolds used by the surgery pipeline.

A `ManifoldModel` is a name and the total Pontryagin class of the tangent
bundle.  The class's truncated cohomology ring determines the fundamental
monomial, against which characteristic numbers are read off, and with it the
dimension.  The catalog covers quaternionic projective spaces, spheres of
dimension divisible by four, and finite products of these.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import partial, reduce
from itertools import count
from math import comb, prod

from .multseq import ahat_genus_table, evaluate_genus, l_genus_table
from .rational import _instance, _parse_natural, _size
from .record import FrozenRecord
from .ring import RingElement, RingPresentation, _presentation

__all__ = [
    "ManifoldModel",
    "a_hat_genus",
    "hp_model",
    "parse_descriptor",
    "product_model",
    "signature",
    "sphere_model",
]


class ManifoldModel(FrozenRecord):
    """A named tangent class in a rational cohomology ring.

    The ring is the tangent class's, and the fundamental monomial is the
    product of each generator's highest surviving power; the ring must be
    truncated exactly at that monomial's degree, the dimension.
    """

    __slots__ = ("name", "tangent_pontryagin")

    def __init__(self, name: str, tangent_pontryagin: RingElement) -> None:
        super().__init__(_instance(name, str, "a string"), tangent_pontryagin)
        if _presentation(tangent_pontryagin).top_degree != self.dimension:
            raise ValueError(
                f"ring truncated at degree {self.presentation.top_degree} does not match "
                f"the degree {self.dimension} of its fundamental monomial"
            )

    @property
    def presentation(self) -> RingPresentation:
        return self.tangent_pontryagin.presentation

    @property
    def fundamental(self) -> tuple[int, ...]:
        return tuple(p - 1 for p in self.presentation.nilpotencies)

    @property
    def dimension(self) -> int:
        return self.presentation.monomial_degree(self.fundamental)

    def integrate(self, element: RingElement) -> Fraction:
        """Pair a class of this model's ring against the fundamental monomial."""
        self.presentation._check_member(element)
        return element.coefficient(self.fundamental)


def hp_model(n: int) -> ManifoldModel:
    """Quaternionic projective space HP^n, cohomology Q[z]/(z^{n+1}) with |z| = 4.

    The total Pontryagin class of the tangent bundle is
    (1 + z)^{2n+2} (1 + 4z)^{-1}, truncated at z^n: its coefficient of z^k
    is p_k = sum_{j<=k} C(2n+2, j) (-4)^{k-j}.
    """
    n = _size(n, "projective dimension", 1)
    pres = RingPresentation((("z", 4, n + 1),), 4 * n)
    p = [sum(comb(2 * n + 2, j) * (-4) ** (k - j) for j in range(k + 1)) for k in range(n + 1)]
    return ManifoldModel(f"HP{n}", pres.element({(k,): p_k for k, p_k in enumerate(p)}))


def sphere_model(k: int) -> ManifoldModel:
    """Sphere S^k for k divisible by 4, cohomology Q[u]/(u^2) with |u| = k.

    The tangent bundle is stably trivial, so the total Pontryagin class is 1.
    """
    k = _size(k, "sphere dimension k", 0)
    if k < 4 or k % 4:
        raise ValueError(f"sphere dimension must be a positive multiple of 4, got {k}")
    return ManifoldModel(f"S{k}", RingPresentation((("u", k, 2),), k).one())


def _product_names(first: tuple[str, ...], second: tuple[str, ...]) -> list[str]:
    """Generator names of a product: a name g that both factors use becomes
    g<i> in the first and g<j> in the second, with i < j the smallest suffixes
    giving names not in use yet, so that all names stay distinct."""
    taken = set(first) | set(second)

    def fresh(name: str) -> str:
        renamed = next(f"{name}{i}" for i in count(1) if f"{name}{i}" not in taken)
        taken.add(renamed)
        return renamed

    return [fresh(g) if g in second else g for g in first] + [
        fresh(g) if g in first else g for g in second
    ]


def product_model(first: ManifoldModel, second: ManifoldModel) -> ManifoldModel:
    """Product manifold: tensor ring, Whitney product tangent class.

    A generator name used by both factors is renamed in each, as in
    HP^2 x HP^2 with generators z1 and z2; other names are kept.  A product
    monomial's exponent vector is the concatenation of the factors' vectors.
    """
    a, b = (_instance(m, ManifoldModel, "a manifold model").presentation for m in (first, second))
    names = _product_names(a.names, b.names)
    gens = zip(names, a.degrees + b.degrees, a.nilpotencies + b.nilpotencies)
    pres = RingPresentation(gens, first.dimension + second.dimension)
    tangent = pres.element({
        e1 + e2: c1 * c2
        for e1, c1 in first.tangent_pontryagin.terms.items()
        for e2, c2 in second.tangent_pontryagin.terms.items()
    })
    return ManifoldModel(f"{first.name} x {second.name}", tangent)


def _genus_integral(model: ManifoldModel, genus_table, what: str) -> Fraction:
    """The integral of the genus whose table `genus_table(weight)` builds;
    dimensions not divisible by 4 are rejected rather than reported as 0."""
    if _instance(model, ManifoldModel, "a manifold model").dimension % 4:
        raise ValueError(f"{what} needs dimension divisible by 4, got {model.dimension}")
    table = genus_table(model.dimension // 4)
    return model.integrate(evaluate_genus(table, model.tangent_pontryagin))


def signature(model: ManifoldModel) -> Fraction:
    """Signature via the signature genus: the integral of the L-class."""
    return _genus_integral(model, l_genus_table, "signature")


def a_hat_genus(model: ManifoldModel) -> Fraction:
    """The A-hat genus: the integral of the A-hat class."""
    return _genus_integral(model, ahat_genus_table, "A-hat genus")


# Largest weight (dimension / 4) of a manifold that `parse_descriptor` builds,
# and of the CLI's base S^4 x HP^n (weight n + 1); each command takes under a
# second at the cap.
MODEL_MAX_WEIGHT = 48
# Largest number of monomials of a ring that `parse_descriptor` builds; a single
# atom within the dimension cap has at most 49.  Each product at the cap takes
# under a second, the slowest being HP^3 x HP^44 with 180 monomials.
# Repeated factors would otherwise reach HP^2 x ... x HP^2 with 3^24 monomials.
_MAX_PRODUCT_MONOMIALS = 200


def _parse_atom(text: str) -> tuple[int, int, Callable[[], ManifoldModel]]:
    """Dimension, number of monomials of the cohomology ring, and builder of
    ``hp:<n>`` or ``s:<k>``, without building it."""
    kind, _, size = text.partition(":")
    if kind not in ("hp", "s") or not (size.isascii() and size.isdigit()):
        raise ValueError(f"unsupported manifold descriptor {text!r}")
    try:
        n = _parse_natural(size)
    except ValueError:  # more than 1,000 digits
        raise ValueError(f"manifold size with {len(size)} digits is too large") from None
    return (4 * n, n + 1, partial(hp_model, n)) if kind == "hp" else (n, 2, partial(sphere_model, n))


def parse_descriptor(text: str) -> ManifoldModel:
    """Build a catalog manifold from ``hp:<n>``, ``s:<k>``, or ``product:a,b,...``.

    A manifold of dimension above 4 * MODEL_MAX_WEIGHT, or a product whose
    ring has more than 200 monomials, is refused before anything is built.
    """
    t = _instance(text, str, "a string").strip()
    if t.startswith("product:"):
        parts = [p.strip() for p in t[len("product:"):].split(",")]
        if len(parts) < 2:
            raise ValueError(f"product descriptor needs at least two factors, got {text!r}")
        if not all(parts):
            raise ValueError(f"empty factor in product descriptor {text!r}")
    else:
        parts = [t]
    atoms = [_parse_atom(p) for p in parts]
    cap = 4 * MODEL_MAX_WEIGHT
    dimension = sum(d for d, _, _ in atoms)
    if dimension > cap:
        raise ValueError(f"manifold dimension at most {cap} is supported, got {dimension}")
    monomials = prod(m for _, m, _ in atoms)
    if monomials > _MAX_PRODUCT_MONOMIALS:
        raise ValueError(
            f"product ring with at most {_MAX_PRODUCT_MONOMIALS} monomials is "
            f"supported, got {monomials}"
        )
    return reduce(product_model, (build() for _, _, build in atoms))
