"""Truncated polynomial rings modelling rational cohomology.

A `RingPresentation` fixes finitely many generators, each with a positive
even degree and a nilpotency exponent, together with a top degree beyond
which everything is truncated.  Because all generators sit in even degree,
the ring is honestly commutative and elements are plain dictionaries from
exponent vectors to Fractions.  Quotient relations (g^nilpotency = 0 and
degree > top_degree) are applied on every construction, so elements are
always reduced.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import gcd
from operator import add, ge, index, mul

from .formatting import signed_sum
from .rational import _instance, _rational, _sequence, _size
from .record import FrozenRecord
from .series import _power, quotient_parts

__all__ = ["RingElement", "RingPresentation"]


def _exponent_vector(exponents, ngens: int) -> tuple[int, ...]:
    """`ngens` nonnegative ints, read by `_sequence`; a non-integer exponent is named, not truncated."""
    if type(exponents) is not tuple:  # every key the ring builds is a tuple
        exponents = tuple(_sequence(exponents, "exponent vector must be a sequence of integers"))
    try:
        key = tuple(map(index, exponents))
    except TypeError:
        bad = next((e for e in exponents if not hasattr(type(e), "__index__")), None)
        raise ValueError(f"exponent {bad!r} in {exponents!r} is not an integer") from None
    if len(key) != ngens:
        raise ValueError(f"exponent vector {key} does not match {ngens} generators")
    if key and min(key) < 0:
        raise ValueError(f"negative exponent in {key}")
    return key


def _presentation(element) -> RingPresentation:
    """The presentation of a ring element; anything else is refused."""
    return _instance(element, RingElement, "a ring element")._pres


class RingPresentation(FrozenRecord):
    """Generators-and-truncation presentation Q[g_1, ..., g_r]/(g_i^{n_i}, deg > top)."""

    __slots__ = ("names", "degrees", "nilpotencies", "top_degree")

    def __init__(self, generators: Iterable[tuple[str, int, int]], top_degree: int):
        refusal = "expected (name, degree, nilpotency) triples"
        try:
            triples = [(name, degree, nilpotency) for name, degree, nilpotency in _sequence(generators, refusal)]
        except (TypeError, ValueError):
            raise ValueError(f"{refusal}, got {generators!r}") from None
        names, degrees, nilpotencies = [], [], []
        for name, degree, nilpotency in triples:
            name = _instance(name, str, "a string")
            degree = _size(degree, f"degree of generator {name!r}", 0)
            nilpotency = _size(nilpotency, f"nilpotency of generator {name!r}", 1)
            if not name or name in names:
                raise ValueError(f"generator names must be unique and nonempty, got {name!r}")
            if degree <= 0 or degree % 2:
                raise ValueError(f"generator {name!r} must have positive even degree, got {degree}")
            names.append(name)
            degrees.append(degree)
            nilpotencies.append(nilpotency)
        top = _size(top_degree, "top degree", 0)
        super().__init__(tuple(names), tuple(degrees), tuple(nilpotencies), top)

    @property
    def generators(self) -> tuple[tuple[str, int, int], ...]:
        return tuple(zip(self.names, self.degrees, self.nilpotencies))

    @property
    def ngens(self) -> int:
        return len(self.names)

    def monomial_degree(self, exponents: tuple[int, ...]) -> int:
        return sum(map(mul, exponents, self.degrees))

    def zero(self) -> RingElement:
        return RingElement(self, {})

    def one(self) -> RingElement:
        return RingElement(self, {(0,) * self.ngens: Fraction(1)})

    def element(self, terms: Mapping[tuple[int, ...], Fraction | int]) -> RingElement:
        return RingElement(self, terms)

    def _check_member(self, element: RingElement) -> None:
        """Refuse a non-element, or an element of another presentation."""
        if _presentation(element) is not self and element._pres != self:
            raise ValueError("ring elements come from different presentations")

    def _sum(self, elements: Iterable[RingElement]) -> RingElement:
        """The sum of elements of this ring, built once: their term dicts are
        merged, then reduced and checked by one construction."""
        merged: dict[tuple[int, ...], Fraction] = {}
        for element in elements:
            self._check_member(element)
            for e, c in element._terms.items():
                merged[e] = merged[e] + c if e in merged else c
        return RingElement(self, merged)

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}(deg {d}, nil {p})" for n, d, p in self.generators)
        return f"RingPresentation([{gens}], top_degree={self.top_degree})"

    def __reduce__(self):
        return type(self), (self.generators, self.top_degree)


class RingElement(FrozenRecord):
    """Element of a truncated graded-commutative ring, stored fully reduced."""

    __slots__ = ("_pres", "_terms")

    def __init__(self, presentation: RingPresentation, terms: Mapping[tuple[int, ...], Fraction | int]):
        pres = _instance(presentation, RingPresentation, "a ring presentation")
        ngens, nils, degrees, top = pres.ngens, pres.nilpotencies, pres.degrees, pres.top_degree
        if type(terms) is not dict:
            _instance(terms, Mapping, "a mapping of exponent vectors to scalars")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            key = _exponent_vector(exps, ngens)
            c = coeff if type(coeff) is Fraction else _rational(coeff)
            if not c or any(map(ge, key, nils)) or sum(map(mul, key, degrees)) > top:
                continue  # zero, a generator power that collapses, or beyond the top degree
            total = clean.get(key, 0) + c
            if total:
                clean[key] = total
            else:
                del clean[key]
        _set_pres(self, presentation)
        _set_terms(self, clean)

    @property
    def presentation(self) -> RingPresentation:
        return self._pres

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self._terms)

    def coefficient(self, exponents: tuple[int, ...]) -> Fraction:
        return self._terms.get(_exponent_vector(exponents, self._pres.ngens), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self._pres.ngens, Fraction(0))

    def homogeneous_part(self, degree: int) -> RingElement:
        """The sum of terms of exactly the given degree."""
        degree = _size(degree, "degree", 0, self._pres.top_degree)
        picked = {e: c for e, c in self._terms.items() if self._pres.monomial_degree(e) == degree}
        return RingElement(self._pres, picked)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __hash__(self) -> int:
        return hash((self._pres, frozenset(self._terms.items())))

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self._pres._sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> RingElement:
        # the terms are reduced already, and so are their negatives
        neg = object.__new__(RingElement)
        _set_pres(neg, self._pres)
        _set_terms(neg, {e: -c for e, c in self._terms.items()})
        return neg

    def __mul__(self, other):
        if isinstance(other, RingElement):
            self._pres._check_member(other)
            out: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    key = tuple(map(add, e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
            return RingElement(self._pres, out)
        if isinstance(other, (int, Fraction)):
            return RingElement(self._pres, {e: c * other for e, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> RingElement:
        return _power(self._pres.one(), self, exponent)

    def inverse(self) -> RingElement:
        """Multiplicative inverse of a unit (nonzero constant term).

        Every monomial degree is a multiple of the gcd g of the generator
        degrees, so the inverse is the quotient of 1 by the parts of degree
        0, g, 2g, ..., scaled first by 1/c when the constant term c is not 1.
        """
        c = self.constant_term()
        if not c:
            raise ValueError("element with zero constant term is not invertible")
        step = gcd(*self._pres.degrees) or 1
        parts = [self.homogeneous_part(d) for d in range(0, self._pres.top_degree + 1, step)]
        inv = 1 / c
        parts = [p * inv for p in parts] if inv != 1 else parts
        num = [parts[0] * inv] + [self._pres.zero()] * (len(parts) - 1)
        return self._pres._sum(quotient_parts(num, parts))

    def _monomial_str(self, exps: tuple[int, ...]) -> str:
        pieces = []
        for name, e in zip(self._pres.names, exps):
            if e == 1:
                pieces.append(name)
            elif e > 1:
                pieces.append(f"{name}^{e}")
        return "*".join(pieces)

    def __str__(self) -> str:
        ordered = sorted(self._terms.items())
        return signed_sum((c, self._monomial_str(e)) for e, c in ordered)

    def __repr__(self) -> str:
        return f"<RingElement {self}>"


# Every product, sum and part writes the slots: their setters cost half of `object.__setattr__`.
_set_pres, _set_terms = RingElement._pres.__set__, RingElement._terms.__set__
