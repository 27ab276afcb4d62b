"""Independent brute-force oracles used to pin expected values in the tests.

Nothing here shares algorithms with the package: symmetric functions are
expanded literally in explicit variables, products are naive dictionary
convolutions, Bernoulli numbers come from two schemes checked against each
other, binomial series are summed term by term from math.comb, and genera
and characters are evaluated by substituting ring classes into every
partition monomial.  The last section is the exception: it keeps routes the
package used before a closed form or a shared recurrence replaced them, as
references for what replaced them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Iterator
from math import comb, factorial


def random_fraction(rng: random.Random, span: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def nonzero_fraction(rng: random.Random, span: int = 9, max_den: int = 9) -> Fraction:
    while True:
        q = random_fraction(rng, span, max_den)
        if q:
            return q


def akiyama_tanigawa(k: int) -> Fraction:
    """Bernoulli number by the Akiyama-Tanigawa triangle, flipped to B_1 = -1/2."""
    row = [Fraction(1, j + 1) for j in range(k + 1)]
    for i in range(1, k + 1):
        row = [(j + 1) * (row[j] - row[j + 1]) for j in range(len(row) - 1)]
    value = row[0]
    return -value if k == 1 else value


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k in the convention B_1 = -1/2, by the recurrence
    sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, with B_0 = 1."""
    if k < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {k}")
    values = [Fraction(1)]
    for m in range(1, k + 1):
        acc = sum(comb(m + 1, j) * values[j] for j in range(m))
        values.append(-acc / (m + 1))
    return values[k]


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
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


# ---------------------------------------------------------------------------
# Dense multivariate polynomials in explicit variables x_1..x_m, stored as
# dicts from exponent tuples to Fractions.


def var_poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def var_poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def var_poly_scale(p: dict, c: Fraction) -> dict:
    return {e: v * c for e, v in p.items() if v * c}


def elementary_symmetric(i: int, nvars: int) -> dict:
    """e_i(x_1..x_m) expanded monomial by monomial."""
    out: dict = {}
    for subset in combinations(range(nvars), i):
        key = tuple(1 if j in subset else 0 for j in range(nvars))
        out[key] = Fraction(1)
    return out


def power_sum(k: int, nvars: int) -> dict:
    """x_1^k + ... + x_m^k."""
    out: dict = {}
    for j in range(nvars):
        key = tuple(k if i == j else 0 for i in range(nvars))
        out[key] = Fraction(1)
    return out


def expand_in_variables(partition_terms: dict, nvars: int) -> dict:
    """Expand a partition-keyed polynomial with p_i read as e_i(x_1..x_m)."""
    out: dict = {}
    for part, coeff in partition_terms.items():
        prod = {(0,) * nvars: Fraction(1)}
        for i in part:
            prod = var_poly_mul(prod, elementary_symmetric(i, nvars))
        out = var_poly_add(out, var_poly_scale(prod, coeff))
    return out


# ---------------------------------------------------------------------------
# Series and ring oracles.


def generator(pres, name: str):
    """The generator called `name` of a ring presentation, as an element:
    exponent 1 at its own place and 0 elsewhere."""
    place = pres.names.index(name)
    return pres.element({tuple(int(i == place) for i in range(pres.ngens)): 1})


def binomial_inverse_product(exponent: int, c: int, order: int) -> list[Fraction]:
    """Coefficients of (1+z)^exponent * (1+cz)^{-1} summed directly from comb."""
    return [
        sum(Fraction(comb(exponent, j)) * Fraction((-c) ** (k - j)) for j in range(k + 1))
        for k in range(order + 1)
    ]


def naive_reduced_product(
    t1: dict, t2: dict, nilpotencies: tuple[int, ...], degrees: tuple[int, ...], top: int
) -> dict:
    """Monomial convolution with the quotient relations applied afterwards."""
    out: dict = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            if any(e >= n for e, n in zip(key, nilpotencies)):
                continue
            if sum(e * d for e, d in zip(key, degrees)) > top:
                continue
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# Genus polynomials by summing the powers of the exponent, on plain dicts
# keyed by partitions (weakly decreasing tuples).


def partition_dict_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple(sorted(a + b, reverse=True))
            out[key] = out.get(key, Fraction(0)) + x * y
    return {k: c for k, c in out.items() if c}


def newton_power_sum_dicts(max_weight: int) -> list[dict]:
    """s_1..s_N in the p_i by the classical form of Newton's identities,
    s_k = p_1 s_{k-1} - p_2 s_{k-2} + ... + (-1)^{k-1} k p_k."""
    sums: list[dict] = []
    for k in range(1, max_weight + 1):
        acc = {(k,): Fraction((-1) ** (k - 1) * k)}
        for j in range(1, k):
            step = partition_dict_mul({(j,): Fraction(1)}, sums[k - j - 1])
            acc = var_poly_add(acc, var_poly_scale(step, Fraction((-1) ** (j - 1))))
        sums.append(acc)
    return sums


def genus_polys_by_powers(coeffs: list, max_weight: int) -> list[dict]:
    """K_1..K_N of the series 1 + coeffs[1] z + ... as partition-keyed dicts.

    Takes the log of the series coefficient by coefficient, writes each power
    sum in the p_i by Newton's identities, and exponentiates
    sum_k c_k s_k as the sum of its powers truncated by weight, then splits
    the total by weight.
    """
    a = [Fraction(c) for c in coeffs[: max_weight + 1]]
    log = [Fraction(0)]
    for n in range(1, max_weight + 1):
        inner = sum((k * log[k] * a[n - k] for k in range(1, n)), Fraction(0))
        log.append(a[n] - inner / n)
    sums = newton_power_sum_dicts(max_weight)
    exponent: dict = {}
    for k in range(1, max_weight + 1):
        exponent = var_poly_add(exponent, var_poly_scale(sums[k - 1], log[k]))
    total = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for m in range(1, max_weight + 1):
        power = {
            p: c / m
            for p, c in partition_dict_mul(power, exponent).items()
            if sum(p) <= max_weight
        }
        total = var_poly_add(total, power)
    return [
        {p: c for p, c in total.items() if sum(p) == i}
        for i in range(1, max_weight + 1)
    ]


# ---------------------------------------------------------------------------
# Evaluation by substituting ring classes into every partition monomial.


def substitute_partitions(terms: dict, one, values: dict):
    """sum of coeff * prod_i values[i] over the partition monomials of terms;
    a variable missing from values is zero."""
    result = one * 0
    for part, coeff in terms.items():
        if all(i in values for i in part):
            term = one
            for i in part:
                term = term * values[i]
            result = result + term * coeff
    return result


def genus_by_substitution(polys: list[dict], total_class):
    """1 + sum_i K_i(p_1..p_i), reading p_i as the degree-4i part of the class."""
    pres = total_class.presentation
    weight = pres.top_degree // 4
    values = {i: total_class.homogeneous_part(4 * i) for i in range(1, weight + 1)}
    result = pres.one()
    for terms in polys[:weight]:
        result = result + substitute_partitions(terms, pres.one(), values)
    return result


def character_by_newton(total_class, max_weight: int) -> list:
    """ph_i = s_{2i}(c) / (2i)! for the Chern classes c_{2i} = (-1)^i p_i of
    the complexification (odd Chern classes zero)."""
    pres = total_class.presentation
    chern = {
        2 * i: total_class.homogeneous_part(4 * i) * (-1) ** i
        for i in range(1, pres.top_degree // 4 + 1)
    }
    sums = newton_power_sum_dicts(2 * max_weight)
    return [
        substitute_partitions(sums[2 * i - 1], pres.one(), chern) * Fraction(1, factorial(2 * i))
        for i in range(1, max_weight + 1)
    ]


# ---------------------------------------------------------------------------
# Closed forms of the surgery invariants at unit parameters over S^4 x HP^n.
# The class of xi is 1 + y with y^2 = 0, so G(xi)^{-1} = 1 - (linear part of
# G in y), and only the leading coefficient of each genus polynomial enters.


def signature_leading_coefficient(k: int) -> Fraction:
    """Coefficient of p_k in L_k: 2^{2k} (2^{2k-1} - 1) |B_{2k}| / (2k)!."""
    scale = Fraction(2 ** (2 * k) * (2 ** (2 * k - 1) - 1), factorial(2 * k))
    return scale * abs(bernoulli(2 * k))


def a_hat_leading_coefficient(k: int) -> Fraction:
    """Coefficient of p_k in Ahat_k: -|B_{2k}| / (2 (2k)!)."""
    return -abs(bernoulli(2 * k)) / (2 * factorial(2 * k))


def pair_mode_obstruction_coefficients(n: int) -> tuple[Fraction, Fraction]:
    """8 sigma at A = 1 and at C = 1: -h_1 sig(HP^n) and
    h_{n+1} (2n+1)! (-1)^{n+1}, with sig(HP^n) = (1 + (-1)^n) / 2."""
    sig_hp = (1 + (-1) ** n) // 2
    coeff_a = -signature_leading_coefficient(1) * sig_hp
    coeff_c = signature_leading_coefficient(n + 1) * factorial(2 * n + 1) * (-1) ** (n + 1)
    return coeff_a, coeff_c


def pair_mode_a_hat_coefficient(n: int) -> Fraction:
    """Total-space A-hat genus at C = 1: a_{n+1} (2n+1)! (-1)^{n+1}."""
    return a_hat_leading_coefficient(n + 1) * factorial(2 * n + 1) * (-1) ** (n + 1)


# ---------------------------------------------------------------------------
# Former package routes, built from package series and ring arithmetic.


def hp_tangent_by_series(n: int) -> list[Fraction]:
    """Coefficients of (1+z)^{2n+2} (1+4z)^{-1} truncated at z^n, as a
    `Series` power times a `Series` inverse."""
    from genuscalc.series import Series

    tangent = Series([1, 1], n) ** (2 * n + 2) * Series([1, 4], n).inverse()
    return list(tangent.coefficients)


def product_tangent_by_embedding(pres, first, second):
    """The Whitney product of two factor classes in the product ring `pres`:
    each class is padded with zero exponents to the product's generators,
    the first on the left and the second on the right, and the two are
    multiplied in the ring."""

    def embed(element, offset):
        width, own = pres.ngens, element.presentation.ngens
        return pres.element({
            (0,) * offset + exps + (0,) * (width - offset - own): coeff
            for exps, coeff in element.terms.items()
        })

    return embed(first, 0) * embed(second, first.presentation.ngens)


def _former_convolve(a, b, n: int):
    """sum_{k=1..n} a_k b_{n-k}, skipping zero factors, with b_0 naming the
    algebra: ring products are added by the ring's one-construction sum."""
    products = (a[k] * b[n - k] for k in range(1, n + 1) if a[k] and b[n - k])
    if isinstance(b[0], Fraction):
        return sum(products, Fraction(0))
    return b[0].presentation._sum(products)


def inverse_parts(parts, c0) -> list:
    """Parts b_0..b_N of the inverse of a_0 + ... + a_N, where a_0 = c0 * 1:
    b_0 = 1/c0 and b_n = -(1/c0) sum_{k=1..n} a_k b_{n-k}."""
    inv = 1 / Fraction(c0)
    out = [parts[0] * (inv * inv)]
    for n in range(1, len(parts)):
        out.append(_former_convolve(parts, out, n) * -inv)
    return out


def log_derivative_parts(parts) -> list:
    """Parts h_0..h_N of D(log a) for a = 1 + a_1 + ... + a_N, so h_n = n [log a]_n:
    h_0 = 0 and h_n = n a_n - sum_{k=1..n-1} h_k a_{n-k}."""
    out = [parts[0] * 0]
    for n in range(1, len(parts)):
        out.append(parts[n] * n - _former_convolve(parts, out, n))
    return out


def l_genus_series_by_inverse(order: int):
    """sqrt(z)/tanh(sqrt(z)) to z^order as cosh(t) times the `Series` inverse
    of sinh(t)/t, t^2 = z: one inverse and one product instead of a quotient."""
    from genuscalc.series import Series

    num = Series([Fraction(1, factorial(2 * k)) for k in range(order + 1)], order)
    den = Series([Fraction(1, factorial(2 * k + 1)) for k in range(order + 1)], order)
    return num * den.inverse()
