"""Multiplicative sequences and the rational Pontryagin character.

Everything here is the logarithmic method of Hirzebruch.  Write
log Q(z) = sum_k c_k z^k for a characteristic series Q, and let s_k be the
k-th power sum of the formal roots of a total class p = 1 + p_1 + p_2 + ...
The genus of p is then exp(sum_k c_k s_k), where c_k s_k has weight k.  The
power sums are read off the log of p itself: s_k = (-1)^{k+1} h_k with
h_k = k [log p]_k.  So a genus is evaluated in the class's own ring with one
quotient D(p)/p and one exp recurrence from `series`, the Pontryagin
character is a rescaling of the h_k, and its inverse is one more exp.  The
genus polynomials K_1..K_N are the genus of the universal class
1 + p_1 + ... + p_N in Q[p_1..p_N], graded by |p_i| = 4i; they are built only
for display, where their monomials are written as partitions, by the same two
recurrences run on integer numerators over one denominator per weight.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import factorial, gcd, lcm

from .formatting import signed_sum
from .rational import _instance, _rationals, _sequence, _size
from .record import FrozenRecord
from .ring import RingElement, RingPresentation, _presentation
from .series import Series, ahat_genus_series, exp_parts, l_genus_series, quotient_parts

__all__ = [
    "GenusTable",
    "ahat_genus_table",
    "evaluate_genus",
    "factored_str",
    "genus_table",
    "l_genus_table",
    "partition_terms",
    "pont_character",
    "pont_classes_from_character",
]

Partition = tuple[int, ...]


def _partition_monomial(part: Partition) -> str:
    pieces = []
    for value, group in groupby(part):
        count = sum(1 for _ in group)
        pieces.append(f"p{value}" + (f"^{count}" if count > 1 else ""))
    return "*".join(pieces)


def partition_terms(poly: RingElement) -> dict[Partition, Fraction]:
    """Terms of a polynomial in p_1..p_N keyed by partitions: the monomial
    p_1^{e_1} ... p_N^{e_N} becomes e_i parts equal to i, largest parts first.
    The terms come in display order: ascending weight, then descending
    lexicographic within a weight.  Generator i must have degree 4i."""
    pres = _presentation(poly)
    n = pres.ngens
    if pres.degrees != tuple(range(4, 4 * n + 1, 4)):
        raise ValueError(f"expected a polynomial in p_1..p_N with |p_i| = 4i, got {poly!r}")
    terms = {
        tuple(i for i in range(n, 0, -1) for _ in range(exps[i - 1])): c
        for exps, c in poly.terms.items()
    }
    return {p: terms[p] for p in sorted(terms, key=lambda p: (sum(p), [-i for i in p]))}


def factored_str(poly: RingElement) -> str:
    """Render a polynomial in p_1..p_N over a single common denominator,
    e.g. ``(7*p2 - p1^2)/45``."""
    terms = partition_terms(poly)
    denom = lcm(*(c.denominator for c in terms.values()))
    pairs = [(c * denom, _partition_monomial(p)) for p, c in terms.items()]
    body = signed_sum(pairs)
    if denom == 1:
        return body
    if len(pairs) > 1:
        return f"({body})/{denom}"
    return f"{body}/{denom}"


def _pontryagin_ring(max_weight: int) -> RingPresentation:
    """Q[p_1..p_N] with |p_i| = 4i, truncated above degree 4N."""
    return RingPresentation(
        [(f"p{i}", 4 * i, max_weight // i + 1) for i in range(1, max_weight + 1)], 4 * max_weight
    )


@lru_cache(maxsize=None)
def _universal_genus_parts(table: GenusTable) -> tuple[RingElement, ...]:
    """K_1..K_N of a table, as integer polynomials over one denominator per
    weight.

    The log-derivative parts of the universal class are Newton's integer
    polynomials h_n = n p_n - sum_{k<n} h_k p_{n-k}, and the exp recurrence
    n K_n = sum_k a_k h_k K_{n-k}, a_k the table's leading coefficients, is run
    on K_n = E_n / D_n with D_n = n lcm_k(den a_k D_{n-k}), so E_n has integer
    coefficients.  A monomial p_1^{e_1}...p_N^{e_N} is keyed by the integer
    sum_i e_i B^{i-1}, B = N + 1: no exponent in weight <= N reaches B, so a
    product of monomials is a sum of keys.
    """
    n_max = table.max_weight
    base = n_max + 1
    a = [0] + [table.leading_coefficient(k) for k in range(1, n_max + 1)]
    h: list[dict[int, int]] = [{}]
    num: list[dict[int, int]] = [{0: 1}]
    den = [1]
    for n in range(1, n_max + 1):
        h_n = {base ** (n - 1): n}
        for k in range(1, n):
            shift = base ** (n - k - 1)
            for key, v in h[k].items():
                h_n[key + shift] = h_n.get(key + shift, 0) - v
        h.append(h_n)
        ks = [k for k in range(1, n + 1) if a[k]]
        d_n = n * lcm(*(a[k].denominator * den[n - k] for k in ks))
        e_n: dict[int, int] = {}
        for k in ks:
            scale = d_n // (n * a[k].denominator * den[n - k]) * a[k].numerator
            for k1, v1 in h[k].items():
                v1 *= scale
                for k2, v2 in num[n - k].items():
                    e_n[k1 + k2] = e_n.get(k1 + k2, 0) + v1 * v2
        g = gcd(d_n, *e_n.values())
        num.append({key: v // g for key, v in e_n.items()})
        den.append(d_n // g)
    ring = _pontryagin_ring(n_max)
    return tuple(
        ring.element(
            {tuple(key // base**i % base for i in range(n_max)): Fraction(v, d) for key, v in e.items()}
        )
        for e, d in zip(num[1:], den[1:])
    )


class GenusTable(FrozenRecord):
    """Multiplicative sequence of a characteristic power series up to weight N,
    stored as the log coefficients c_0..c_N of the series, with
    log Q(z) = sum_k c_k z^k and c_0 = 0.

    Evaluation needs only these; the genus polynomials K_1..K_N are for
    display and are built when first read.
    """

    __slots__ = ("log_coefficients",)

    def __init__(self, log_coefficients) -> None:
        c = tuple(_rationals(log_coefficients, "log coefficients"))
        if not c or c[0]:
            raise ValueError("log coefficients must begin with c_0 = 0")
        super().__init__(c)

    @property
    def polys(self) -> tuple[RingElement, ...]:
        """K_1..K_N in Q[p_1..p_N]: the parts of positive degree of the genus
        of the universal class 1 + p_1 + ... + p_N."""
        return _universal_genus_parts(self)

    @property
    def max_weight(self) -> int:
        return len(self.log_coefficients) - 1

    def leading_coefficient(self, n: int) -> Fraction:
        """Coefficient of p_n in K_n: only c_n s_n contains p_n, so it is
        (-1)^{n+1} n c_n, which is also the weight of h_n in D(sum_k c_k s_k)."""
        n = _size(n, "index", 1, self.max_weight)
        return (-1) ** (n + 1) * n * self.log_coefficients[n]


def genus_table(q: Series) -> GenusTable:
    """Genus table of q up to weight q.order; q needs constant term 1."""
    return GenusTable(_instance(q, Series, "a series").log().coefficients)


def l_genus_table(max_weight: int) -> GenusTable:
    """Cached genus table of the signature genus."""
    return _l_table(_size(max_weight, "series order", 0))


def ahat_genus_table(max_weight: int) -> GenusTable:
    """Cached genus table of the A-hat genus."""
    return _ahat_table(_size(max_weight, "series order", 0))


# Each builder reads its weight before its cache hashes it, and carries that cache's statistics.
_l_table = lru_cache(maxsize=None)(lambda max_weight: genus_table(l_genus_series(max_weight)))
_ahat_table = lru_cache(maxsize=None)(lambda max_weight: genus_table(ahat_genus_series(max_weight)))
l_genus_table.cache_info, ahat_genus_table.cache_info = _l_table.cache_info, _ahat_table.cache_info


def _log_derivative_parts(total_class: RingElement, max_weight: int) -> list[RingElement]:
    """Parts h_0..h_N of D(p)/p for a class p with constant term 1 and no
    terms outside degrees 0, 4, ..., 4N; h_0 is zero."""
    if total_class.constant_term() != 1:
        raise ValueError("total class must have constant term 1")
    for exps in total_class.terms:
        degree = total_class.presentation.monomial_degree(exps)
        if degree % 4:
            raise ValueError(f"total class has a term of degree {degree}, not a multiple of 4")
    parts = [total_class.homogeneous_part(4 * i) for i in range(max_weight + 1)]
    return quotient_parts([p * k for k, p in enumerate(parts)], parts)


def evaluate_genus(table: GenusTable, total_class: RingElement) -> RingElement:
    """Evaluate the multiplicative sequence on a total class with constant term 1,
    giving 1 + sum_i K_i(p_1..p_i) with p_i the degree-4i part of the class.

    The genus is computed in the class's own ring as exp(sum_k c_k s_k): with
    h_k the log-derivative parts of the class, s_k = (-1)^{k+1} h_k, so the
    exponent has D-parts a_k h_k, a_k the table's leading coefficients.
    """
    pres = _presentation(total_class)
    needed = pres.top_degree // 4
    graded = _log_derivative_parts(total_class, needed)
    if _instance(table, GenusTable, "a genus table").max_weight < needed:
        raise ValueError(
            f"genus table of weight {table.max_weight} cannot cover a ring "
            f"truncated at degree {pres.top_degree}"
        )
    for k in range(1, needed + 1):
        graded[k] = graded[k] * table.leading_coefficient(k)
    return pres._sum(exp_parts(graded, pres.one()))


def pont_character(total_class: RingElement, max_weight: int) -> list[RingElement]:
    """Components ph_1..ph_N of the Chern character of the complexification.

    With formal roots p = prod_j (1 + x_j^2), the complexification has Chern
    roots +-x_j, so ph_k = 2 sum_j x_j^{2k} / (2k)! = 2 (-1)^{k+1} h_k / (2k)!,
    where h_k are the log-derivative parts of p.  Components above the top
    degree of the ring are zero.
    """
    max_weight = _size(max_weight, "max weight", 1)
    pres = _presentation(total_class)
    weight = min(max_weight, pres.top_degree // 4)
    graded = _log_derivative_parts(total_class, weight)
    out = [graded[k] * Fraction(2 * (-1) ** (k + 1), factorial(2 * k)) for k in range(1, weight + 1)]
    return out + [pres.zero()] * (max_weight - weight)


def pont_classes_from_character(character: list[RingElement]) -> RingElement:
    """Total class with the given character components ph_1..ph_N.

    Inverts pont_character: the power sums are s_k = (2k)! ph_k / 2, and
    p = exp(sum_k (-1)^{k+1} s_k / k), whose exponent has D-parts
    (-1)^{k+1} (2k)! ph_k / 2.  The result has no parts above degree 4N.
    """
    components = _sequence(character, "expected a sequence of ring elements")
    if not components:
        raise ValueError("need at least one character component")
    pres = _presentation(components[0])
    for i, comp in enumerate(components, start=1):
        pres._check_member(comp)
        d = 4 * i
        if comp and (d > pres.top_degree or comp.homogeneous_part(d) != comp):
            raise ValueError(f"component {i} is not homogeneous of degree {d}")
    graded = [pres.zero()] + [
        comp * Fraction((-1) ** (k + 1) * factorial(2 * k), 2)
        for k, comp in enumerate(components, start=1)
    ]
    return pres._sum(exp_parts(graded, pres.one()))
