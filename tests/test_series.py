"""Truncated power series arithmetic and the two characteristic series."""

import random
from fractions import Fraction
from math import factorial

import pytest

from genuscalc import Series, ahat_genus_series, l_genus_series
from genuscalc.series import exp_parts, quotient_parts
from oracles import (
    bernoulli,
    binomial_inverse_product,
    inverse_parts,
    l_genus_series_by_inverse,
    log_derivative_parts,
    nonzero_fraction,
    random_fraction,
)


def _random_series(rng, order, unit=False):
    coeffs = [random_fraction(rng) for _ in range(order + 1)]
    if unit:
        coeffs[0] = Fraction(1)
    return Series(coeffs, order)


def test_truncation_kills_high_degree_cross_terms():
    assert Series([1, 1], 2) * Series([1, -1, 1], 2) == Series([1, 0, 0], 2)


def test_product_matches_binomial_oracle():
    got = Series([1, 1], 2) ** 6 * Series([1, 4], 2).inverse()
    assert got == Series([1, 2, 7], 2)
    assert list(got.coefficients) == binomial_inverse_product(6, 4, 2)


def test_product_matches_naive_convolution():
    rng = random.Random(2718)
    for _ in range(100):
        a = _random_series(rng, rng.randint(0, 8))
        b = _random_series(rng, rng.randint(0, 8))
        n = min(a.order, b.order)
        naive = [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)]
        assert (a * b).coefficients == tuple(naive)


def test_mixed_orders_truncate_to_the_smaller():
    a = Series([1, 2, 3, 4], 3)
    b = Series([1, 1], 1)
    assert (a * b).order == 1
    assert a * b == Series([1, 3], 1)


def test_inverse_of_geometric_unit():
    assert Series([1, 4], 2).inverse() == Series([1, -4, 16], 2)


def test_inverse_multiplies_back_to_one():
    rng = random.Random(4461)
    for _ in range(200):
        order = rng.randint(0, 8)
        a = _random_series(rng, order)
        while not a.coefficients[0]:
            a = _random_series(rng, order)
        assert a * a.inverse() == Series([1], order)


def test_quotient_route_matches_the_former_inverse_and_log_routes():
    rng = random.Random(1978)
    for order in range(31):
        for c0 in (Fraction(1), nonzero_fraction(rng)):
            coeffs = [c0] + [random_fraction(rng) for _ in range(order)]
            a = Series(coeffs, order)
            assert a.inverse().coefficients == tuple(inverse_parts(coeffs, c0))
            graded = [k * c for k, c in enumerate(coeffs)]
            if c0 == 1:
                former = log_derivative_parts(coeffs)
                assert quotient_parts(graded, coeffs) == former
                assert a.log().coefficients == (0, *(h / k for k, h in enumerate(former[1:], 1)))
            unit = [c / c0 for c in coeffs]
            quotient = Series(quotient_parts(graded, unit), order)
            assert quotient == Series(graded, order) * Series(unit, order).inverse()
    # int parts take the Fraction path, not the ring one
    assert quotient_parts([1, 0], [1, 2]) == [1, -2]
    assert exp_parts([0, 1, 0], 1) == [1, 1, Fraction(1, 2)]


def test_l_series_quotient_matches_the_former_product_with_an_inverse():
    # q_0..q_W of a quotient depend only on parts 0..W, so each series of
    # order W <= 150 is a truncation of the one of order 150
    full = l_genus_series(150)
    assert full == l_genus_series_by_inverse(150)
    for weight in [*range(31), 75, 149]:
        assert l_genus_series(weight).coefficients == full.coefficients[: weight + 1]
    for weight in range(31):
        assert l_genus_series(weight) == l_genus_series_by_inverse(weight)


def test_inverse_needs_nonzero_constant_term():
    with pytest.raises(ValueError):
        Series([0, 1], 1).inverse()


def test_exp_of_polynomial_matches_hand_expansion():
    # exp(z + z^2) = e^z * e^{z^2}; the z^2 coefficient is 1/2 + 1 = 3/2
    assert Series([0, 1, 1], 2).exp() == Series([1, 1, Fraction(3, 2)], 2)


def test_exp_log_are_mutually_inverse():
    rng = random.Random(777)
    for _ in range(100):
        order = rng.randint(1, 7)
        a = _random_series(rng, order)
        nilp = Series([0] + list(a.coefficients[1:]), order)
        assert nilp.exp().log() == nilp
        unit = _random_series(rng, order, unit=True)
        assert unit.log().exp() == unit


def test_log_turns_products_into_sums():
    rng = random.Random(31)
    for _ in range(100):
        order = rng.randint(1, 6)
        a = _random_series(rng, order, unit=True)
        b = _random_series(rng, order, unit=True)
        sums = tuple(x + y for x, y in zip(a.log().coefficients, b.log().coefficients))
        assert (a * b).log().coefficients == sums


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        Series([1, 1], 1).exp()
    with pytest.raises(ValueError):
        Series([2, 1], 1).log()


@pytest.mark.parametrize(
    "bad, fault", [(0.1, "a float"), (0.5, "a float"), (None, "not a rational")], ids=["0.1", "0.5", "None"]
)
def test_float_coefficients_are_refused(bad, fault):
    with pytest.raises(ValueError, match=f"scalar {bad} is {fault}"):
        Series([1, bad])
    assert Series([1, "1/10", Fraction(1, 3), 2]).coefficients[1:] == (Fraction(1, 10), Fraction(1, 3), 2)


# 5 is no sequence at all, a mapping would be read as its keys and a set in no
# fixed order, and each is refused with the same message
@pytest.mark.parametrize("text", ["12", b"12", bytearray(b"12"), 5, {1: 5, 2: 7}, {3, 1, 2}])
def test_text_is_not_read_as_a_sequence_of_digits(text):
    with pytest.raises(ValueError) as refused:
        Series(text)
    assert str(refused.value) == f"coefficients must be a sequence of scalars, got {text!r}"


def test_lists_tuples_ranges_and_generators_are_read_in_order():
    expected = Series([0, 1, 2])
    assert Series((0, 1, 2)) == Series(range(3)) == Series(k for k in range(3)) == expected
    assert expected.coefficients == (0, 1, 2)


def test_repr_writes_the_coefficients_as_rationals():
    assert repr(Series([1, Fraction(1, 3)])) == "Series([1, 1/3])"


def test_power_matches_repeated_multiplication():
    a = Series([1, 1], 4)
    by_hand = Series([1], 4)
    for _ in range(5):
        by_hand = by_hand * a
    assert a**5 == by_hand
    assert a**0 == Series([1], 4)
    for bad, message in ((-1, "exponent must be >= 0"), (1.5, "exponent must be an integer")):
        with pytest.raises(ValueError, match=message):
            a**bad


def test_l_genus_series_frozen_coefficients():
    assert l_genus_series(3) == Series(
        [1, Fraction(1, 3), Fraction(-1, 45), Fraction(2, 945)], 3
    )
    assert l_genus_series(4)[4] == Fraction(-1, 4725)
    assert l_genus_series(0) == Series([1], 0)


def test_ahat_genus_series_frozen_coefficients():
    assert ahat_genus_series(3) == Series(
        [1, Fraction(-1, 24), Fraction(7, 5760), Fraction(-31, 967680)], 3
    )
    assert ahat_genus_series(4)[4] == Fraction(127, 154828800)


def test_l_genus_series_matches_bernoulli_closed_form():
    # sqrt(z)/tanh(sqrt(z)) has z^k coefficient 2^{2k} B_{2k} / (2k)!
    series = l_genus_series(8)
    for k in range(9):
        expected = Fraction(2 ** (2 * k)) * bernoulli(2 * k) / factorial(2 * k)
        assert series[k] == expected, f"z^{k} coefficient"


def test_ahat_genus_series_matches_bernoulli_closed_form():
    # (sqrt(z)/2)/sinh(sqrt(z)/2) has z^k coefficient (2 - 2^{2k}) B_{2k} / ((2k)! 4^k)
    series = ahat_genus_series(8)
    for k in range(9):
        expected = Fraction(2 - 2 ** (2 * k)) * bernoulli(2 * k) / (
            factorial(2 * k) * 4**k
        )
        assert series[k] == expected, f"z^{k} coefficient"


def test_characteristic_series_have_no_vanishing_coefficients():
    for build in (l_genus_series, ahat_genus_series):
        series = build(6)
        assert all(series[k] for k in range(7))

