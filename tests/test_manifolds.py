"""Manifold catalog: tangent classes, signatures, A-hat genera, products."""

from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genuscalc import (
    ManifoldModel,
    RingPresentation,
    a_hat_genus,
    hp_model,
    parse_descriptor,
    product_model,
    signature,
    sphere_model,
)
from genuscalc.surgery import ambient_model
from oracles import (
    binomial_inverse_product,
    generator,
    hp_tangent_by_series,
    product_tangent_by_embedding,
)


def test_hp2_tangent_class_frozen():
    model = hp_model(2)
    assert model.dimension == 8
    assert model.presentation.nilpotencies == (3,)
    assert model.tangent_pontryagin.terms == {(0,): 1, (1,): 2, (2,): 7}
    assert str(model.tangent_pontryagin) == "1 + 2*z + 7*z^2"


def test_hp3_tangent_class_frozen():
    model = hp_model(3)
    assert model.tangent_pontryagin.terms == {(0,): 1, (1,): 4, (2,): 12, (3,): 8}


def test_hp1_tangent_class_is_trivial():
    # (1+z)^4 (1+4z)^{-1} = 1 mod z^2, matching the stably parallelizable S^4
    model = hp_model(1)
    assert model.tangent_pontryagin == model.presentation.one()


def test_hp_tangent_classes_match_binomial_oracle():
    for n in range(1, 7):
        model = hp_model(n)
        expected = binomial_inverse_product(2 * n + 2, 4, n)
        got = [model.tangent_pontryagin.coefficient((k,)) for k in range(n + 1)]
        assert got == expected, f"n={n}"


def test_hp_tangent_classes_match_the_series_route():
    for n in range(1, 49):
        model = hp_model(n)
        got = [model.tangent_pontryagin.coefficient((k,)) for k in range(n + 1)]
        assert got == hp_tangent_by_series(n), f"n={n}"


def test_hp_model_rejects_bad_input():
    with pytest.raises(ValueError):
        hp_model(0)
    with pytest.raises(ValueError, match="projective dimension must be an integer, got 2.0"):
        hp_model(2.0)


def test_hp_model_names_the_converted_dimension():
    model = hp_model(True)
    assert model.name == "HP1" and model.dimension == 4


def test_hp_signature_is_one_in_even_dimensions_zero_in_odd():
    assert [signature(hp_model(n)) for n in range(1, 7)] == [0, 1, 0, 1, 0, 1]


def test_hp_a_hat_genus_vanishes():
    for n in range(1, 7):
        assert a_hat_genus(hp_model(n)) == 0


def test_sphere_model_is_stably_trivial():
    model = sphere_model(4)
    assert model.dimension == 4
    assert model.tangent_pontryagin == model.presentation.one()
    assert signature(model) == 0
    assert a_hat_genus(model) == 0


def test_sphere_model_rejects_bad_dimensions():
    for k in (0, 2, 6, -4):
        with pytest.raises(ValueError):
            sphere_model(k)
    with pytest.raises(ValueError, match="sphere dimension k must be an integer, got 8.0"):
        sphere_model(8.0)


def test_point_model_integrates_constants():
    pt = ManifoldModel("pt", RingPresentation((), 0).one())
    assert pt.dimension == 0
    assert signature(pt) == 1
    assert a_hat_genus(pt) == 1


def test_product_ring_structure():
    model = product_model(sphere_model(4), hp_model(2))
    assert model.name == "S4 x HP2"
    assert model.dimension == 12
    assert model.presentation.names == ("u", "z")
    assert model.presentation.nilpotencies == (2, 3)
    assert model.presentation.top_degree == 12
    assert model.fundamental == (1, 2)
    assert model.tangent_pontryagin.terms == {(0, 0): 1, (0, 1): 2, (0, 2): 7}


PRODUCT_ATOMS = [f"hp:{n}" for n in range(1, 7)] + ["s:4", "s:8"]


def _assert_tangent_matches_embedding(first, second):
    both = product_model(first, second)
    expected = product_tangent_by_embedding(
        both.presentation, first.tangent_pontryagin, second.tangent_pontryagin
    )
    assert both.tangent_pontryagin == expected, both.name
    return both


@pytest.mark.parametrize("left", PRODUCT_ATOMS)
def test_product_tangent_class_matches_the_embedding_route(left):
    for right in PRODUCT_ATOMS:  # includes the repeated factor left x left
        _assert_tangent_matches_embedding(parse_descriptor(left), parse_descriptor(right))


def test_three_factor_tangent_classes_match_the_embedding_route():
    atoms = ["hp:1", "hp:2", "hp:3", "s:4", "s:8"]
    for triple in product(atoms, repeat=3):
        first, second, third = map(parse_descriptor, triple)
        _assert_tangent_matches_embedding(_assert_tangent_matches_embedding(first, second), third)
        _assert_tangent_matches_embedding(first, _assert_tangent_matches_embedding(second, third))


def test_genera_of_s4_x_hpn_vanish():
    for n in range(1, 13):
        model = ambient_model(n)
        assert signature(model) == 0, f"n={n}"
        assert a_hat_genus(model) == 0, f"n={n}"


def test_product_with_point_changes_nothing():
    hp2 = hp_model(2)
    prod = product_model(ManifoldModel("pt", RingPresentation((), 0).one()), hp2)
    assert prod.dimension == hp2.dimension
    assert signature(prod) == signature(hp2)
    assert a_hat_genus(prod) == a_hat_genus(hp2)


def test_product_signature_is_multiplicative():
    assert signature(product_model(sphere_model(4), hp_model(2))) == 0
    assert signature(product_model(sphere_model(8), hp_model(2))) == 0


def test_product_renames_colliding_generator_names():
    assert product_model(sphere_model(4), sphere_model(8)).presentation.names == ("u1", "u2")
    hp2_squared = product_model(hp_model(2), hp_model(2))
    assert hp2_squared.presentation.names == ("z1", "z2")
    assert hp2_squared.fundamental == (2, 2)
    assert str(hp2_squared.tangent_pontryagin) == (
        "1 + 2*z2 + 7*z2^2 + 2*z1 + 4*z1*z2 + 14*z1*z2^2 + 7*z1^2 + 14*z1^2*z2 + 49*z1^2*z2^2"
    )
    assert signature(hp2_squared) == 1 and a_hat_genus(hp2_squared) == 0
    assert signature(parse_descriptor("product:s:4,s:4")) == 0


def test_nested_products_keep_generator_names_distinct():
    hp1 = hp_model(1)
    square = product_model(hp1, hp1)
    assert product_model(square, hp1).presentation.names == ("z1", "z2", "z")
    assert product_model(square, square).presentation.names == ("z11", "z21", "z12", "z22")
    # a suffix already in use is skipped
    assert product_model(product_model(hp1, square), hp1).presentation.names == (
        "z3", "z1", "z2", "z4"
    )


def test_integrate_reads_the_fundamental_coefficient():
    model = hp_model(2)
    z = generator(model.presentation, "z")
    assert model.integrate(3 * z**2 + z) == 3
    assert model.integrate(model.presentation.one()) == 0


def test_integrate_refuses_a_class_of_another_ring():
    hp2, hp3 = hp_model(2), hp_model(3)
    with pytest.raises(ValueError, match="ring elements come from different presentations"):
        hp2.integrate(hp3.tangent_pontryagin)
    twin = RingPresentation([("z", 4, 3)], 8)
    assert twin is not hp2.presentation
    assert hp2.integrate(twin.element({(2,): 5})) == 5


@pytest.mark.parametrize(
    "call",
    [
        signature,
        a_hat_genus,
        lambda bad: product_model(bad, hp_model(1)),
        lambda bad: product_model(hp_model(1), bad),
    ],
    ids=["signature", "a_hat_genus", "product_model first", "product_model second"],
)
@pytest.mark.parametrize(
    "bad, shown",
    [(5, "5"), (None, "None"), (hp_model(2).tangent_pontryagin, "<RingElement 1 + 2*z + 7*z^2>")],
    ids=["5", "None", "ring element"],
)
def test_non_models_are_refused_by_name(call, bad, shown):
    with pytest.raises(ValueError) as refused:
        call(bad)
    assert str(refused.value) == f"expected a manifold model, got {shown}"


def test_signature_rejects_dimensions_not_divisible_by_four():
    pres = RingPresentation((("w", 6, 2),), 6)
    odd_ball = ManifoldModel("W6", pres.one())
    with pytest.raises(ValueError):
        signature(odd_ball)
    with pytest.raises(ValueError):
        a_hat_genus(odd_ball)


@pytest.mark.parametrize("k, a_hat", [(1, Fraction(-1, 8)), (2, Fraction(3, 128)), (3, Fraction(-5, 1024))])
def test_complex_projective_spaces_with_a_degree_two_generator(k, a_hat):
    # p(CP^{2k}) = (1 + x^2)^{2k+1} has terms only in degrees 4i
    pres = RingPresentation((("x", 2, 2 * k + 1),), 4 * k)
    model = ManifoldModel(f"CP{2 * k}", (pres.one() + generator(pres, "x") ** 2) ** (2 * k + 1))
    assert signature(model) == 1
    assert a_hat_genus(model) == a_hat


def test_descriptor_parsing():
    assert parse_descriptor("hp:2").name == "HP2"
    assert parse_descriptor("s:4").name == "S4"
    assert parse_descriptor(" s:8 ").name == "S8"
    prod = parse_descriptor("product:s:4,hp:2")
    assert prod.name == "S4 x HP2"
    assert prod.presentation.names == ("u", "z")
    swapped = parse_descriptor("product:hp:2,s:4")
    assert swapped.name == "HP2 x S4"
    assert swapped.presentation.names == ("z", "u")
    assert signature(prod) == signature(swapped)
    square = parse_descriptor("product:hp:2,hp:2")
    assert square.name == "HP2 x HP2"
    assert square.presentation.names == ("z1", "z2")


@pytest.mark.parametrize(
    "bad",
    ["hp:0", "s:6", "x:1", "hp:two", "hp:-1", "product:hp:2", "product:", ""],
)
def test_descriptor_parsing_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_descriptor(bad)


ATOM_WEIGHTS = {"hp:1": 1, "hp:2": 2, "hp:3": 3, "s:4": 1, "s:8": 2}


@st.composite
def factor_pairs(draw):
    """Two products of catalog atoms, repeats included, of total weight <= 6."""
    atoms = draw(st.lists(st.sampled_from(sorted(ATOM_WEIGHTS)), min_size=2, max_size=6))
    while sum(ATOM_WEIGHTS[a] for a in atoms) > 6:
        atoms.pop()
    split = draw(st.integers(1, len(atoms) - 1))
    return atoms[:split], atoms[split:]


@settings(max_examples=20, deadline=None)
@given(factor_pairs())
def test_genera_are_multiplicative_on_products(pair):
    first, second = (reduce(product_model, map(parse_descriptor, atoms)) for atoms in pair)
    both = product_model(first, second)
    assert signature(both) == signature(first) * signature(second)
    assert a_hat_genus(both) == a_hat_genus(first) * a_hat_genus(second)
