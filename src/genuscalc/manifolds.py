"""Cohomology models of the closed manifolds used by the surgery pipeline.

A `ManifoldModel` bundles a truncated cohomology ring, the total Pontryagin
class of the tangent bundle inside that ring, and the exponent vector of the
fundamental monomial against which characteristic numbers are read off.
The catalog covers quaternionic projective spaces, spheres of dimension
divisible by four, a point, and finite products of these.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import partial, reduce

from .multseq import ahat_genus_table, evaluate_genus, l_genus_table
from .record import FrozenRecord
from .ring import RingElement, RingPresentation
from .series import Series

__all__ = [
    "ManifoldModel",
    "a_hat_genus",
    "hp_model",
    "parse_descriptor",
    "point_model",
    "product_model",
    "signature",
    "sphere_model",
]


class ManifoldModel(FrozenRecord):
    """Rational cohomology ring with a tangent class and a fundamental monomial.

    Models compare and hash by identity, not by value.
    """

    __slots__ = ("name", "dimension", "presentation", "tangent_pontryagin", "fundamental")

    def __init__(
        self,
        name: str,
        dimension: int,
        presentation: RingPresentation,
        tangent_pontryagin: RingElement,
        fundamental: tuple[int, ...],
    ) -> None:
        super().__init__(name, dimension, presentation, tangent_pontryagin, fundamental)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def integrate(self, element: RingElement) -> Fraction:
        """Pair a class against the fundamental monomial."""
        return element.coefficient(self.fundamental)


def hp_model(n: int, top_degree: int | None = None) -> ManifoldModel:
    """Quaternionic projective space HP^n, cohomology Q[z]/(z^{n+1}) with |z| = 4.

    The total Pontryagin class of the tangent bundle is
    (1 + z)^{2n+2} (1 + 4z)^{-1}, truncated at z^n.
    """
    if n < 1:
        raise ValueError(f"projective dimension must be >= 1, got {n}")
    pres = RingPresentation((("z", 4, n + 1),), 4 * n if top_degree is None else top_degree)
    if pres.top_degree < 4 * n:
        raise ValueError(f"top degree {pres.top_degree} cannot be below the dimension {4 * n}")
    tangent = Series([1, 1], n) ** (2 * n + 2) * Series([1, 4], n).inverse()
    element = pres.element({(k,): tangent[k] for k in range(n + 1)})
    return ManifoldModel(f"HP{n}", 4 * n, pres, element, (n,))


def sphere_model(k: int = 4) -> ManifoldModel:
    """Sphere S^k for k divisible by 4, cohomology Q[u]/(u^2) with |u| = k.

    The tangent bundle is stably trivial, so the total Pontryagin class is 1.
    """
    if k < 4 or k % 4:
        raise ValueError(f"sphere dimension must be a positive multiple of 4, got {k}")
    pres = RingPresentation((("u", k, 2),), k)
    return ManifoldModel(f"S{k}", k, pres, pres.one(), (1,))


def point_model() -> ManifoldModel:
    """A point: the trivial ring, tangent class 1, empty fundamental monomial."""
    pres = RingPresentation((), 0)
    return ManifoldModel("pt", 0, pres, pres.one(), ())


def product_model(first: ManifoldModel, second: ManifoldModel) -> ManifoldModel:
    """Product manifold: tensor ring, Whitney product tangent class.

    Generator names of the two factors must not collide.
    """
    shared = set(first.presentation.names) & set(second.presentation.names)
    if shared:
        raise ValueError(f"generator names collide in product: {sorted(shared)}")
    gens = first.presentation.generators + second.presentation.generators
    top = first.presentation.top_degree + second.presentation.top_degree
    pres = RingPresentation(gens, top)

    def embed(element: RingElement, offset: int) -> RingElement:
        width = pres.ngens
        own = element.presentation.ngens
        terms = {}
        for exps, coeff in element.terms.items():
            key = (0,) * offset + exps + (0,) * (width - offset - own)
            terms[key] = coeff
        return pres.element(terms)

    split = first.presentation.ngens
    tangent = embed(first.tangent_pontryagin, 0) * embed(second.tangent_pontryagin, split)
    return ManifoldModel(
        f"{first.name} x {second.name}",
        first.dimension + second.dimension,
        pres,
        tangent,
        first.fundamental + second.fundamental,
    )


def signature(model: ManifoldModel) -> Fraction:
    """Signature via the signature genus: the integral of the L-class.

    Dimensions not divisible by 4 are rejected rather than reported as 0.
    """
    if model.dimension % 4:
        raise ValueError(
            f"signature needs dimension divisible by 4, got {model.dimension}"
        )
    table = l_genus_table(model.presentation.top_degree // 4)
    return model.integrate(evaluate_genus(table, model.tangent_pontryagin))


def a_hat_genus(model: ManifoldModel) -> Fraction:
    """The A-hat genus: the integral of the A-hat class."""
    if model.dimension % 4:
        raise ValueError(
            f"A-hat genus needs dimension divisible by 4, got {model.dimension}"
        )
    table = ahat_genus_table(model.presentation.top_degree // 4)
    return model.integrate(evaluate_genus(table, model.tangent_pontryagin))


def _parse_atom(text: str) -> tuple[int, Callable[[], ManifoldModel]]:
    """Dimension and builder of ``hp:<n>`` or ``s:<k>``, without building it."""
    for prefix, scale, build in (("hp:", 4, hp_model), ("s:", 1, sphere_model)):
        if text.startswith(prefix):
            size = _parse_positive_int(text[len(prefix):], text)
            return scale * size, partial(build, size)
    raise ValueError(f"unsupported manifold descriptor {text!r}")


def _parse_positive_int(body: str, descriptor: str) -> int:
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"unsupported manifold descriptor {descriptor!r}")
    try:
        return int(body)
    except ValueError:  # more digits than the interpreter converts
        raise ValueError(f"manifold size with {len(body)} digits is too large") from None


def parse_descriptor(text: str, max_dimension: int | None = None) -> ManifoldModel:
    """Build a catalog manifold from ``hp:<n>``, ``s:<k>``, or ``product:a,b,...``,
    refusing one of dimension above max_dimension before building anything."""
    t = text.strip()
    if t.startswith("product:"):
        parts = [p.strip() for p in t[len("product:"):].split(",")]
        if len(parts) < 2 or not all(parts):
            raise ValueError(f"product descriptor needs at least two factors, got {text!r}")
    else:
        parts = [t]
    atoms = [_parse_atom(p) for p in parts]
    dimension = sum(d for d, _ in atoms)
    if max_dimension is not None and dimension > max_dimension:
        raise ValueError(
            f"manifold dimension at most {max_dimension} is supported, got {dimension}"
        )
    return reduce(product_model, (build() for _, build in atoms))
