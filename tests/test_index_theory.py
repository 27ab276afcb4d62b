"""Integrality of twisted A-hat genera, a check against the index theorem.

On a closed spin manifold M the twisted Dirac operator with coefficients in
the complexification of a real bundle V has index
A-hat(M; V) = integral of A-hat(TM) ch(V (x) C), an integer, and an even one
when dim M = 8k + 4, where the operator is quaternionic (Atiyah-Singer).
Every model here is 3-connected, hence spin.  The twists are V = TM, with
ch(TM (x) C) = dim M + sum_k ph_k from `pont_character`, and V = Lambda^2 TM,
with ch(Lambda^2 W) = (ch(W)^2 - psi^2 ch(W)) / 2, where the Adams operation
psi^2 scales ph_k by 4^k.  The KO-Pontryagin classes pi^j of TM (Anderson,
Brown and Peterson) give every KO-characteristic number A-hat(M; pi^J).
"""

from fractions import Fraction
from math import factorial

import pytest

from genuscalc import (
    ManifoldModel,
    Series,
    ahat_genus_table,
    evaluate_genus,
    genus_table,
    hp_model,
    parse_descriptor,
    pont_character,
)
from oracles import partitions
from test_surgery import _linear_bundle_class


def _twisted_a_hats(model):
    """(A-hat(M; T), A-hat(M; Lambda^2 T)) of a model of weight >= 1."""
    weight = model.dimension // 4
    one, rank = model.presentation.one(), model.dimension
    ph = pont_character(model.tangent_pontryagin, weight)
    ch = sum(ph, rank * one)
    psi2 = sum((4**k * ph_k for k, ph_k in enumerate(ph, 1)), rank * one)
    ch_lambda2 = (ch * ch - psi2) * Fraction(1, 2)
    a_hat = evaluate_genus(ahat_genus_table(weight), model.tangent_pontryagin)
    return model.integrate(a_hat * ch), model.integrate(a_hat * ch_lambda2)


def _assert_index_integral(model, values):
    for value in values:
        assert value.denominator == 1, (model.name, values)
        if model.dimension % 8 == 4:
            assert value % 2 == 0, (model.name, values)


@pytest.mark.parametrize(
    "n, expected",
    [(1, (0, 0)), (2, (-1, 1)), (3, (0, 0)), (4, (0, 1)), (5, (0, 0)), (6, (0, 0))],
)
def test_quaternionic_projective_spaces(n, expected):
    model = hp_model(n)
    values = _twisted_a_hats(model)
    assert values == expected
    _assert_index_integral(model, values)


@pytest.mark.parametrize(
    "descriptor, expected",
    [
        ("s:4", (0, 0)),
        ("s:8", (0, 0)),
        ("s:12", (0, 0)),
        ("product:s:4,hp:2", (0, 0)),
        ("product:hp:1,hp:2", (0, 0)),
        ("product:s:8,hp:3", (0, 0)),
        ("product:hp:2,hp:2", (0, 1)),
    ],
)
def test_spheres_and_products(descriptor, expected):
    model = parse_descriptor(descriptor)
    values = _twisted_a_hats(model)
    assert values == expected
    _assert_index_integral(model, values)


def test_linear_bundles():
    # E = HP(V) over S^4 is 3-connected, so both indices are integers; they
    # come out 0 for every n and k here
    for n in range(1, 9):
        for k in (-2, -1, 1, 2, 3):
            model = ManifoldModel("E", _linear_bundle_class(n, k))
            values = _twisted_a_hats(model)
            assert values == (0, 0), (n, k)
            _assert_index_integral(model, values)


def test_flipped_control_is_not_integral():
    # sign = -1 is not the class of a bundle, and the theorem catches it
    values = _twisted_a_hats(ManifoldModel("E", _linear_bundle_class(1, 1, sign=-1)))
    assert values == (Fraction(-31, 15), Fraction(-7, 30))


def _lagrange_basis(nodes):
    """Coefficients in t, lowest first, of the Lagrange basis polynomials."""
    basis = []
    for t0 in nodes:
        poly, scale = [Fraction(1)], Fraction(1)
        for s in nodes:
            if s != t0:
                poly = [a - s * b for a, b in zip([0, *poly], [*poly, 0])]
                scale *= t0 - s
        basis.append([c / scale for c in poly])
    return basis


def _ko_pontryagin_characters(model):
    """ch(pi^j), j = 0..W, for the KO-Pontryagin classes of TM.

    With Pontryagin roots z_i = x_i^2, pi_t(TM) = prod_i (1 + t (e^{x_i} +
    e^{-x_i} - 2)) is the genus of 1 + t f(z), f(z) = sum_{k>=1} 2 z^k/(2k)!,
    a polynomial in t of degree at most W, interpolated exactly from its
    values at t = 0..W.
    """
    weight = model.dimension // 4
    f = [Fraction(2, factorial(2 * k)) for k in range(1, weight + 1)]
    values = [
        evaluate_genus(genus_table(Series([1, *(t * c for c in f)], weight)), model.tangent_pontryagin)
        for t in range(weight + 1)
    ]
    basis = _lagrange_basis(range(weight + 1))
    zero = model.presentation.zero()
    return [sum((b[j] * v for b, v in zip(basis, values)), zero) for j in range(weight + 1)]


def _ko_characteristic_numbers(model):
    """A-hat(M; pi^J) = integral of A-hat(TM) prod_i ch(pi^{J_i}), |J| <= W."""
    weight = model.dimension // 4
    ch = _ko_pontryagin_characters(model)
    a_hat = evaluate_genus(ahat_genus_table(weight), model.tangent_pontryagin)
    numbers = {}
    for size in range(weight + 1):
        for J in partitions(size):
            twist = model.presentation.one()
            for j in J:
                twist = twist * ch[j]
            numbers[J] = model.integrate(a_hat * twist)
    return ch, numbers


@pytest.mark.parametrize(
    "model",
    [
        *(hp_model(n) for n in range(1, 5)),
        parse_descriptor("product:s:4,hp:2"),
        parse_descriptor("product:hp:2,hp:2"),
        *(ManifoldModel("E", _linear_bundle_class(n, k)) for n, k in ((2, 1), (3, -2), (4, 3))),
    ],
    ids=["HP1", "HP2", "HP3", "HP4", "S4xHP2", "HP2xHP2", "E(2,1)", "E(3,-2)", "E(4,3)"],
)
def test_ko_characteristic_numbers_are_integers(model):
    ch, numbers = _ko_characteristic_numbers(model)
    weight = model.dimension // 4
    one = model.presentation.one()
    # pi^0 = 1, and pi^1 = TM - dim M, whose character is the sum of the ph_k
    assert ch[0] == one
    assert ch[1] == sum(pont_character(model.tangent_pontryagin, weight), model.presentation.zero())
    twisted = _twisted_a_hats(model)[0]
    assert numbers[(1,)] == twisted - model.dimension * numbers[()]
    _assert_index_integral(model, list(numbers.values()))


def test_flipped_control_has_a_non_integral_ko_characteristic_number():
    _, numbers = _ko_characteristic_numbers(ManifoldModel("E", _linear_bundle_class(1, 1, sign=-1)))
    assert any(value.denominator != 1 for value in numbers.values())
