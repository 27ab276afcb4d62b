"""Integrality of twisted A-hat genera, a check against the index theorem.

On a closed spin manifold M the twisted Dirac operator with coefficients in
the complexification of a real bundle V has index
A-hat(M; V) = integral of A-hat(TM) ch(V (x) C), an integer, and an even one
when dim M = 8k + 4, where the operator is quaternionic (Atiyah-Singer).
Every model here is 3-connected, hence spin.  The twists are V = TM, with
ch(TM (x) C) = dim M + sum_k ph_k from `pont_character`, and V = Lambda^2 TM,
with ch(Lambda^2 W) = (ch(W)^2 - psi^2 ch(W)) / 2, where the Adams operation
psi^2 scales ph_k by 4^k.
"""

from fractions import Fraction

import pytest

from genuscalc import (
    ManifoldModel,
    ahat_genus_table,
    evaluate_genus,
    hp_model,
    parse_descriptor,
    pont_character,
)
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
