"""Multiplicative sequences and the rational Pontryagin character.

The genus polynomials K_1..K_N attached to a characteristic series Q(z) are
computed by the logarithmic method.  Write log Q(z) = sum_k c_k z^k and let
s_k be the k-th power sum of the formal roots, expressed in the graded
variables p_1, p_2, ... by Newton's identities.  The whole sequence is then
1 + K_1 + K_2 + ... = exp(sum_k c_k s_k), where c_k s_k has weight k.  The
exponential is built weight by weight from the graded recurrence
n K_n = sum_{k=1..n} k c_k s_k K_{n-k} (Brent and Kung, J. ACM 1978), in
which every product is already homogeneous of weight n.  This reproduces the
defining property K(ab) = K(a)K(b) without any root-splitting bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial, lcm
from typing import Iterator, Mapping

from .formatting import signed_sum
from .ring import RingElement
from .series import Series, ahat_genus_series, l_genus_series

__all__ = [
    "GenusTable",
    "PartitionPoly",
    "ahat_genus_table",
    "evaluate_genus",
    "genus_table",
    "l_genus_table",
    "newton_power_sums",
    "partitions",
    "pont_character",
    "pont_classes_from_character",
]

Partition = tuple[int, ...]


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Partitions of n as weakly decreasing tuples, largest parts first."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _partition_monomial(part: Partition) -> str:
    pieces = []
    for value, group in groupby(part):
        count = sum(1 for _ in group)
        pieces.append(f"p{value}" + (f"^{count}" if count > 1 else ""))
    return "*".join(pieces)


def _term_order(part: Partition) -> tuple:
    # ascending weight, then descending lexicographic within a weight
    return (sum(part), tuple(-p for p in part))


class PartitionPoly:
    """Polynomial in graded variables p_1, p_2, ... keyed by partition monomials.

    The monomial p_{a} p_{b} p_{c} is stored as the partition (a, b, c)
    sorted decreasingly, so multiplication is just a sorted merge of parts.
    The weight of a term is the sum of its parts.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Partition, Fraction | int] = ()):
        clean: dict[Partition, Fraction] = {}
        for part, coeff in dict(terms).items():
            key = tuple(int(p) for p in part)
            if any(p < 1 for p in key) or list(key) != sorted(key, reverse=True):
                raise ValueError(f"{key} is not a partition (weakly decreasing, parts >= 1)")
            c = Fraction(coeff)
            if c:
                clean[key] = c
        self._terms = clean

    @classmethod
    def zero(cls) -> PartitionPoly:
        return cls()

    @classmethod
    def one(cls) -> PartitionPoly:
        return cls({(): Fraction(1)})

    @classmethod
    def variable(cls, i: int) -> PartitionPoly:
        return cls({(i,): Fraction(1)})

    @property
    def terms(self) -> dict[Partition, Fraction]:
        return dict(self._terms)

    def coefficient(self, part: Partition) -> Fraction:
        return self._terms.get(tuple(part), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartitionPoly) and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other):
        if isinstance(other, PartitionPoly):
            out = dict(self._terms)
            for p, c in other._terms.items():
                out[p] = out.get(p, Fraction(0)) + c
            return PartitionPoly(out)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, PartitionPoly):
            return self + (-other)
        return NotImplemented

    def __neg__(self) -> PartitionPoly:
        return PartitionPoly({p: -c for p, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, PartitionPoly):
            out: dict[Partition, Fraction] = {}
            for p1, c1 in self._terms.items():
                for p2, c2 in other._terms.items():
                    key = tuple(sorted(p1 + p2, reverse=True))
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return PartitionPoly(out)
        if isinstance(other, (int, Fraction)):
            return PartitionPoly({p: c * other for p, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def evaluate(self, one: RingElement, values: Mapping[int, RingElement]) -> RingElement:
        """Substitute values[i] for p_i; variables missing from the map are zero."""
        result = one * 0
        for part, coeff in self._terms.items():
            term = one
            for i in part:
                v = values.get(i)
                if v is None:
                    term = None
                    break
                term = term * v
                if not term:
                    term = None
                    break
            if term is None:
                continue
            result = result + term * coeff
        return result

    def __str__(self) -> str:
        ordered = sorted(self._terms.items(), key=lambda kv: _term_order(kv[0]))
        return signed_sum((c, _partition_monomial(p)) for p, c in ordered)

    def factored_str(self) -> str:
        """Render over a single common denominator, e.g. ``(7*p2 - p1^2)/45``."""
        if not self._terms:
            return "0"
        denom = 1
        for c in self._terms.values():
            denom = lcm(denom, c.denominator)
        ordered = sorted(self._terms.items(), key=lambda kv: _term_order(kv[0]))
        pairs = [(c * denom, _partition_monomial(p)) for p, c in ordered]
        body = signed_sum(pairs)
        if denom == 1:
            return body
        if len(pairs) > 1:
            return f"({body})/{denom}"
        return f"{body}/{denom}"

    def __repr__(self) -> str:
        return f"<PartitionPoly {self}>"


@lru_cache(maxsize=None)
def newton_power_sums(max_weight: int) -> tuple[PartitionPoly, ...]:
    """Power sums s_1..s_N written in the graded variables via Newton's identities.

    s_k = p_1 s_{k-1} - p_2 s_{k-2} + ... + (-1)^{k-1} k p_k, reading p_i as
    the i-th elementary symmetric function of the underlying roots.
    """
    if max_weight < 0:
        raise ValueError(f"max weight must be >= 0, got {max_weight}")
    sums: list[PartitionPoly] = []
    for k in range(1, max_weight + 1):
        acc = PartitionPoly.variable(k) * Fraction((-1) ** (k - 1) * k)
        for j in range(1, k):
            acc = acc + PartitionPoly.variable(j) * sums[k - j - 1] * Fraction((-1) ** (j - 1))
        sums.append(acc)
    return tuple(sums)


class GenusTable:
    """Genus polynomials K_1..K_N of a characteristic power series."""

    __slots__ = ("_series", "_polys")

    def __init__(self, series: Series, polys: tuple[PartitionPoly, ...]):
        self._series = series
        self._polys = tuple(polys)

    @property
    def series(self) -> Series:
        return self._series

    @property
    def polys(self) -> tuple[PartitionPoly, ...]:
        return self._polys

    @property
    def max_weight(self) -> int:
        return len(self._polys)

    def poly(self, i: int) -> PartitionPoly:
        """K_i, 1-indexed."""
        if not 1 <= i <= len(self._polys):
            raise ValueError(f"index {i} outside 1..{len(self._polys)}")
        return self._polys[i - 1]

    def leading_coefficient(self, n: int) -> Fraction:
        """Coefficient of the singleton monomial p_n in K_n."""
        return self.poly(n).coefficient((n,))

    def __repr__(self) -> str:
        return f"<GenusTable of weight {self.max_weight} for {self._series!r}>"


def genus_table(q: Series, max_weight: int) -> GenusTable:
    """Genus polynomials of the multiplicative sequence attached to q.

    With c_k the log coefficients of q and s_k the Newton power sums, the
    weight-k part of the exponent is E_k = k c_k s_k, and K_0 = 1,
    K_n = (1/n) sum_{k=1..n} E_k K_{n-k}.  Requires q to have constant term 1
    and order >= max_weight.
    """
    if max_weight < 0:
        raise ValueError(f"max weight must be >= 0, got {max_weight}")
    if q.coefficients[0] != 1:
        raise ValueError("characteristic series must have constant term 1")
    if q.order < max_weight:
        raise ValueError(
            f"series order {q.order} is too small for weight {max_weight}"
        )
    log_coeffs = q.truncate(max_weight).log().coefficients
    sums = newton_power_sums(max_weight)
    graded = [sums[k - 1] * (k * log_coeffs[k]) for k in range(1, max_weight + 1)]
    polys = [PartitionPoly.one()]
    for n in range(1, max_weight + 1):
        acc = PartitionPoly.zero()
        for k in range(1, n + 1):
            acc = acc + graded[k - 1] * polys[n - k]
        polys.append(acc * Fraction(1, n))
    return GenusTable(q.truncate(max_weight), tuple(polys[1:]))


@lru_cache(maxsize=None)
def l_genus_table(max_weight: int) -> GenusTable:
    """Cached genus table of the signature genus."""
    return genus_table(l_genus_series(max_weight), max_weight)


@lru_cache(maxsize=None)
def ahat_genus_table(max_weight: int) -> GenusTable:
    """Cached genus table of the A-hat genus."""
    return genus_table(ahat_genus_series(max_weight), max_weight)


def evaluate_genus(table: GenusTable, total_class: RingElement) -> RingElement:
    """Evaluate the multiplicative sequence on a total class with constant term 1.

    The degree-4i part of the class plays the role of p_i; the result is
    1 + sum_i K_i(p_1..p_i) inside the class's own ring.
    """
    pres = total_class.presentation
    if total_class.constant_term() != 1:
        raise ValueError("total class must have constant term 1")
    needed = pres.top_degree // 4
    if table.max_weight < needed:
        raise ValueError(
            f"genus table of weight {table.max_weight} cannot cover a ring "
            f"truncated at degree {pres.top_degree}"
        )
    values = {i: total_class.homogeneous_part(4 * i) for i in range(1, needed + 1)}
    result = pres.one()
    for i in range(1, needed + 1):
        result = result + table.poly(i).evaluate(pres.one(), values)
    return result


def pont_character(total_class: RingElement, max_weight: int) -> list[RingElement]:
    """Components ph_1..ph_N of the Chern character of the complexification.

    The complexification of a bundle with total class p has Chern classes
    c_{2i} = (-1)^i p_i and zero odd classes; ph_i is then the 2i-th Newton
    power sum of the c_j divided by (2i)!.
    """
    pres = total_class.presentation
    if total_class.constant_term() != 1:
        raise ValueError("total class must have constant term 1")
    if max_weight < 1:
        raise ValueError(f"max weight must be >= 1, got {max_weight}")
    chern: dict[int, RingElement] = {}
    for i in range(1, max_weight + 1):
        if 4 * i > pres.top_degree:
            continue
        p_i = total_class.homogeneous_part(4 * i)
        if p_i:
            chern[2 * i] = p_i if i % 2 == 0 else -p_i
    sums = newton_power_sums(2 * max_weight)
    out = []
    for i in range(1, max_weight + 1):
        s = sums[2 * i - 1].evaluate(pres.one(), chern)
        out.append(s * Fraction(1, factorial(2 * i)))
    return out


def pont_classes_from_character(character: list[RingElement]) -> RingElement:
    """Total class with the given character components ph_1..ph_N.

    Inverts pont_character by weight induction: at each step the degree-4i
    discrepancy between the target ph_i and the character of the classes
    recovered so far determines p_i, because ph_i depends on p_i only
    through the linear term (-1)^{i+1} p_i / (2i-1)!.
    """
    components = list(character)
    if not components:
        raise ValueError("need at least one character component")
    pres = components[0].presentation
    for i, comp in enumerate(components, start=1):
        if comp.presentation != pres:
            raise ValueError("character components come from different presentations")
        d = 4 * i
        if d <= pres.top_degree:
            if comp.homogeneous_part(d) != comp:
                raise ValueError(f"component {i} is not homogeneous of degree {d}")
        elif comp:
            raise ValueError(f"component {i} is not homogeneous of degree {d}")
    total = pres.one()
    for i in range(1, len(components) + 1):
        partial = pont_character(total, i)[i - 1]
        delta = components[i - 1] - partial
        total = total + delta * Fraction((-1) ** (i + 1) * factorial(2 * i - 1))
    return total
