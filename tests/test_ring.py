"""Truncated graded-commutative rings with nilpotent even generators."""

import operator
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from genuscalc import (
    ManifoldModel,
    NormalInvariantParams,
    RingElement,
    RingPresentation,
    evaluate_genus,
    factored_str,
    hp_model,
    l_genus_table,
    partition_terms,
    pont_character,
    pont_classes_from_character,
    xi_total_class,
)
from genuscalc.series import quotient_parts
from oracles import (
    generator,
    inverse_parts,
    log_derivative_parts,
    monomials,
    naive_reduced_product,
    nonzero_fraction,
    random_fraction,
)


def _s4_hp2():
    return RingPresentation((("u", 4, 2), ("z", 4, 3)), 12)


def _random_element(rng, pres, unit=False):
    terms = {exps: random_fraction(rng) for exps in monomials(pres)}
    if unit:
        terms[(0,) * pres.ngens] = Fraction(1)
    return pres.element(terms)


def test_odd_degree_generator_is_rejected():
    with pytest.raises(ValueError):
        RingPresentation((("x", 3, 2),), 12)


def test_bad_nilpotency_and_duplicate_names_are_rejected():
    with pytest.raises(ValueError):
        RingPresentation((("x", 4, 0),), 12)
    with pytest.raises(ValueError):
        RingPresentation((("x", 4, 2), ("x", 4, 3)), 12)
    # sizes that are not integers are refused, not truncated
    with pytest.raises(ValueError, match="degree of generator 'z' must be an integer, got 4.5"):
        RingPresentation([("z", 4.5, 3.9)], 8.7)
    with pytest.raises(ValueError, match="nilpotency of generator 'z' must be an integer, got 3.9"):
        RingPresentation([("z", 4, 3.9)], 8)
    with pytest.raises(ValueError, match="top degree must be an integer, got 8.7"):
        RingPresentation([("z", 4, 3)], 8.7)


def test_cube_of_linear_combination():
    pres = _s4_hp2()
    u, z = generator(pres, "u"), generator(pres, "z")
    cube = (2 * z - u) ** 3
    assert cube == pres.element({(1, 2): -12})
    assert str(cube) == "-12*u*z^2"


def test_product_expansion_with_rational_coefficients():
    pres = _s4_hp2()
    u, z = generator(pres, "u"), generator(pres, "z")
    a = pres.one() + Fraction(2, 3) * z + z**2
    b = pres.one() - Fraction(1, 3) * u
    expected = pres.element(
        {
            (0, 0): 1,
            (0, 1): Fraction(2, 3),
            (0, 2): 1,
            (1, 0): Fraction(-1, 3),
            (1, 1): Fraction(-2, 9),
            (1, 2): Fraction(-1, 3),
        }
    )
    assert a * b == expected
    assert str(a * b) == "1 + 2/3*z + z^2 - 1/3*u - 2/9*u*z - 1/3*u*z^2"


def test_products_match_naive_convolution_oracle():
    pres = RingPresentation((("u", 4, 2), ("z", 4, 4)), 16)
    rng = random.Random(1203)
    for _ in range(150):
        a = _random_element(rng, pres)
        b = _random_element(rng, pres)
        expected = naive_reduced_product(
            a.terms, b.terms, pres.nilpotencies, pres.degrees, pres.top_degree
        )
        assert (a * b).terms == expected


def test_ring_laws_on_random_elements():
    pres = RingPresentation((("u", 4, 2), ("z", 4, 4)), 16)
    rng = random.Random(555)
    one = pres.one()
    for _ in range(150):
        a = _random_element(rng, pres)
        b = _random_element(rng, pres)
        c = _random_element(rng, pres)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a + pres.zero() == a


def test_nilpotency_truncates_powers():
    pres = RingPresentation((("z", 4, 3),), 8)
    z = generator(pres, "z")
    assert z**3 == pres.zero()
    assert bool(z**2)


def test_powers_are_by_repeated_squaring():
    # a multiplication per unit of the exponent would never finish here
    pres = hp_model(2).presentation
    z, e = generator(pres, "z"), 10**18
    assert z**e == pres.zero()
    assert (pres.one() + z) ** e == pres.element({(0,): 1, (1,): e, (2,): e * (e - 1) // 2})


@pytest.mark.parametrize(
    "bad, message",
    [(-1, "exponent must be >= 0"), (1.5, "exponent must be an integer")],
    ids=["-1", "1.5"],
)
def test_bad_exponents_are_refused(bad, message):
    z = generator(_s4_hp2(), "z")
    with pytest.raises(ValueError, match=message):
        z**bad


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda z: hp_model(2).integrate(5), "5"),
        (lambda z: hp_model(2).integrate(None), "None"),
        (lambda z: pont_classes_from_character([1]), "1"),
        (lambda z: pont_classes_from_character([z, 1]), "1"),
        (lambda z: pont_character(5, 2), "5"),
        (lambda z: evaluate_genus(l_genus_table(2), 5), "5"),
        # every summand of a one-construction sum is checked
        (lambda z: z.presentation._sum([z, "z"]), "'z'"),
        # an object with an element's attributes is still no element
        (lambda z: z.presentation._sum([z, SimpleNamespace(_pres=z.presentation, _terms={})]),
         "namespace(_pres=RingPresentation([z(deg 4, nil 3)], top_degree=8), _terms={})"),
        (lambda z: ManifoldModel("x", 5), "5"),
        (lambda z: partition_terms(5), "5"),
        (lambda z: factored_str(5), "5"),
    ],
)
def test_non_elements_are_refused_by_name(call, bad):
    z = generator(hp_model(2).presentation, "z")
    with pytest.raises(ValueError) as refused:
        call(z)
    assert str(refused.value) == f"expected a ring element, got {bad}"


def test_augmentation_ideal_is_nilpotent():
    rng = random.Random(808)
    for n in (2, 3):
        pres = RingPresentation((("u", 4, 2), ("z", 4, n + 1)), 4 + 4 * n)
        for _ in range(30):
            a = _random_element(rng, pres)
            a = a - pres.one() * a.constant_term()
            assert a ** (n + 2) == pres.zero()


def test_inverse_of_one_minus_nilpotent_is_geometric_series():
    pres = RingPresentation((("z", 4, 3),), 8)
    z = generator(pres, "z")
    a = pres.one() - Fraction(1, 12) * z
    assert a.inverse() == pres.one() + Fraction(1, 12) * z + Fraction(1, 144) * z**2
    assert pres.one().inverse() == pres.one()


def test_inverse_flips_sign_when_square_vanishes():
    # 1 + x with x^2 = 0 inverts to 1 - x; degree-4-and-up multiples of u square to zero here
    pres = _s4_hp2()
    u, z = generator(pres, "u"), generator(pres, "z")
    rng = random.Random(77)
    for _ in range(50):
        x = (
            u * random_fraction(rng)
            + u * z * random_fraction(rng)
            + u * z**2 * random_fraction(rng)
        )
        assert (pres.one() + x).inverse() == pres.one() - x


def test_inverse_multiplies_back_to_one():
    pres = RingPresentation((("u", 4, 2), ("z", 4, 4)), 16)
    rng = random.Random(2024)
    for _ in range(100):
        a = _random_element(rng, pres)
        while not a.constant_term():
            a = _random_element(rng, pres)
        assert a * a.inverse() == pres.one()


# S^4 x HP^n for n <= 8, whose parts step by 4, and a ring with degree-2
# generators, whose parts step by the gcd 2
_QUOTIENT_RINGS = [
    *(RingPresentation((("u", 4, 2), ("z", 4, n + 1)), 4 * n + 4) for n in range(1, 9)),
    RingPresentation((("a", 2, 4), ("b", 2, 3), ("c", 4, 2)), 10),
]


@pytest.mark.parametrize("pres", _QUOTIENT_RINGS, ids=[*(f"S4xHP{n}" for n in range(1, 9)), "degree-2"])
def test_quotient_route_matches_the_former_ring_inverse_and_log_derivative(pres):
    rng = random.Random(pres.top_degree)
    step = gcd(*pres.degrees)
    for constant in (Fraction(1), Fraction(-3, 7), nonzero_fraction(rng)):
        for _ in range(3):
            terms = _random_element(rng, pres).terms
            terms[(0,) * pres.ngens] = constant
            a = pres.element(terms)
            parts = [a.homogeneous_part(d) for d in range(0, pres.top_degree + 1, step)]
            assert a.inverse() == pres._sum(inverse_parts(parts, constant))
            if constant == 1:
                graded = quotient_parts([p * k for k, p in enumerate(parts)], parts)
                assert graded == log_derivative_parts(parts)


def test_negation_matches_the_checked_route():
    rng = random.Random(31)
    for pres in (_s4_hp2(), *_QUOTIENT_RINGS[-2:]):
        for _ in range(20):
            a = _random_element(rng, pres)
            before = a.terms
            neg = -a
            assert neg == pres.element({e: -c for e, c in before.items()})
            assert neg.terms == {e: -c for e, c in before.items()}
            assert a.terms == before and (neg + a) == pres.zero() and -neg == a


def test_inverse_of_the_bundle_genus_builds_few_elements(monkeypatch):
    # a negation copies reduced terms instead of constructing a new element
    params = NormalInvariantParams(6, A=1, C=1)
    genus = evaluate_genus(l_genus_table(7), xi_total_class(params))
    constructions = []
    checked_init = RingElement.__init__

    def counting_init(self, *args):
        constructions.append(1)
        checked_init(self, *args)

    monkeypatch.setattr(RingElement, "__init__", counting_init)
    inverse = genus.inverse()
    monkeypatch.undo()
    assert len(constructions) < 29
    assert genus * inverse == genus.presentation.one()


def test_inverse_requires_a_unit():
    pres = _s4_hp2()
    with pytest.raises(ValueError):
        generator(pres, "z").inverse()


def test_homogeneous_part_extraction():
    pres = _s4_hp2()
    u, z = generator(pres, "u"), generator(pres, "z")
    a = pres.one() + 2 * z + 7 * z**2 + 5 * u * z
    assert a.homogeneous_part(4) == 2 * z
    assert a.homogeneous_part(8) == 7 * z**2 + 5 * u * z
    assert a.homogeneous_part(12) == pres.zero()
    with pytest.raises(ValueError):
        a.homogeneous_part(16)
    with pytest.raises(ValueError):
        a.homogeneous_part(-4)
    for bad in (4.5, 4.0):
        with pytest.raises(ValueError, match=f"^degree must be an integer, got {bad}$"):
            a.homogeneous_part(bad)


def test_coefficient_extraction_is_linear():
    pres = _s4_hp2()
    rng = random.Random(4)
    fundamental = (1, 2)
    for _ in range(100):
        a = _random_element(rng, pres)
        b = _random_element(rng, pres)
        s = nonzero_fraction(rng)
        assert (a + b).coefficient(fundamental) == a.coefficient(fundamental) + b.coefficient(fundamental)
        assert (a * s).coefficient(fundamental) == a.coefficient(fundamental) * s


def test_elements_from_different_presentations_do_not_mix():
    hp2 = RingPresentation([("z", 4, 3)], 8)
    for mine, other in [
        (_s4_hp2(), RingPresentation((("u", 4, 2), ("z", 4, 3)), 16)),
        (hp2, RingPresentation([("z", 4, 4)], 12)),
        (hp2, RingPresentation([("w", 4, 3)], 8)),
    ]:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="ring elements come from different presentations"):
                op(generator(mine, "z"), generator(other, other.names[-1]))


def test_structurally_equal_presentations_interoperate():
    a = generator(_s4_hp2(), "z")
    b = generator(_s4_hp2(), "z")
    assert a == b
    assert a * b == a**2
    first, second = RingPresentation([("z", 4, 3)], 8), RingPresentation([("z", 4, 3)], 8)
    assert first is not second and first == second and hash(first) == hash(second)
    z1, z2 = generator(first, "z"), generator(second, "z")
    assert z1 + z2 == first.element({(1,): 2}) and (z1 + z2).presentation is first
    assert z1 * z2 == second.element({(2,): 1}) and z1 == z2


@pytest.mark.parametrize(
    "bad, fault", [(0.1, "a float"), (0.5, "a float"), (None, "not a rational")], ids=["0.1", "0.5", "None"]
)
def test_float_coefficients_are_refused(bad, fault):
    pres = RingPresentation([("z", 4, 3)], 8)
    with pytest.raises(ValueError, match=f"scalar {bad} is {fault}"):
        pres.element({(1,): bad})
    with pytest.raises(ValueError, match=f"scalar {bad} is {fault}"):
        pres.element({(0,): Fraction(1), (1,): bad})
    exact = pres.element({(0,): 1, (1,): "1/10", (2,): Fraction(1, 3)})
    assert exact.terms == {(0,): 1, (1,): Fraction(1, 10), (2,): Fraction(1, 3)}


def test_exponents_outside_the_presentation_are_rejected():
    pres = _s4_hp2()
    with pytest.raises(ValueError):
        pres.element({(1,): 1})
    with pytest.raises(ValueError):
        pres.element({(-1, 0): 1})


def test_keys_naming_one_exponent_vector_are_summed():
    # a range and a tuple are two dict keys for the one exponent vector (1,)
    pres = RingPresentation([("z", 4, 3)], 8)
    cancelled = pres.element({(1,): 1, range(1, 2): -1})
    assert cancelled == pres.zero() and cancelled.terms == {}
    assert pres.element({(1,): 1, range(1, 2): 2}) == 3 * generator(pres, "z")


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda pres: pres.element({(1.5,): 1}), "1.5"),
        (lambda pres: pres.element({(1.5,): 1, (1,): -1}), "1.5"),
        (lambda pres: pres.one().coefficient((0.7,)), "0.7"),
        (lambda pres: pres.one().coefficient(x for x in (1.5,)), "1.5"),
    ],
)
def test_non_integer_exponents_are_rejected_not_truncated(build, bad):
    pres = RingPresentation([("z", 4, 3)], 8)
    with pytest.raises(ValueError, match=f"exponent {bad} in \\({bad},\\) is not an integer"):
        build(pres)


@pytest.mark.parametrize("exponents", [(1.5,), (1, 0), (), (-1,), 5, None])
def test_coefficient_refuses_exponent_vectors_with_the_constructors_message(exponents):
    pres = RingPresentation([("z", 4, 3)], 8)
    with pytest.raises(ValueError) as built:
        pres.element({exponents: 1})
    with pytest.raises(ValueError) as read:
        pres.one().coefficient(exponents)
    assert str(read.value) == str(built.value)
    assert repr(exponents) in str(built.value)


def test_empty_presentation_is_the_rationals():
    pres = RingPresentation((), 0)
    assert pres.one() * pres.one() == pres.one()
    assert (pres.one() * Fraction(3, 2)).constant_term() == Fraction(3, 2)
    assert pres.one().inverse() == pres.one()


def test_quotient_relations_apply_on_construction():
    pres = _s4_hp2()
    assert pres.element({(2, 0): 5}) == pres.zero()  # u^2 = 0
    assert pres.element({(1, 2): 1}) != pres.zero()  # u z^2 survives (degree 12)


def test_zero_renders_as_zero():
    assert str(_s4_hp2().zero()) == "0"
