"""Property tests for ring arithmetic and the graded inverse/log/exp
recurrences over random presentations: products, sums and negatives are
compared with plain-dict oracles and must come out reduced, the ring's
one-construction sum equals the chain of `+` and refuses what `+` refuses,
powers by repeated squaring equal the repeated products,
mixed generator degrees exercise the gcd step of the ring inverse, and genus
evaluation and the character run through the log and exp recurrences inside
the ring."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genuscalc import (
    RingPresentation,
    Series,
    evaluate_genus,
    genus_table,
    pont_character,
    pont_classes_from_character,
)
from oracles import generator, naive_reduced_product, var_poly_add, var_poly_scale

SETTINGS = settings(max_examples=60, deadline=None)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def presentations(draw):
    specs = draw(
        st.lists(
            st.tuples(st.sampled_from((2, 4, 6, 8)), st.integers(1, 4)),
            min_size=1,
            max_size=3,
        )
    )
    top = draw(st.integers(0, 24))
    return RingPresentation(
        ((f"g{i}", deg, nil) for i, (deg, nil) in enumerate(specs)), top
    )


def _monomials(pres, step=2):
    out = [()]
    for n in pres.nilpotencies:
        out = [e + (i,) for e in out for i in range(n)]
    return [
        e
        for e in out
        if pres.monomial_degree(e) <= pres.top_degree
        and pres.monomial_degree(e) % step == 0
    ]


def _element(draw, pres, constant, step=2):
    """Random element with the given constant term, supported in degrees
    divisible by step."""
    terms = {e: draw(rationals) for e in _monomials(pres, step) if any(e)}
    terms[(0,) * pres.ngens] = constant
    return pres.element(terms)


@st.composite
def triples(draw):
    """Three elements of one presentation, each with a random constant term."""
    pres = draw(presentations())
    return tuple(_element(draw, pres, draw(rationals)) for _ in range(3))


@st.composite
def units(draw):
    pres = draw(presentations())
    constant = draw(rationals.filter(bool))
    return _element(draw, pres, constant)


@st.composite
def pontryagin_pairs(draw):
    """Two classes with constant term 1 in degrees divisible by 4, and a table
    of a random series covering the ring."""
    pres = draw(presentations())
    weight = pres.top_degree // 4
    q = Series([1] + [draw(rationals) for _ in range(weight)], weight)
    a = _element(draw, pres, 1, step=4)
    b = _element(draw, pres, 1, step=4)
    return genus_table(q), a, b


# Degrees 4 and 6 without 2: stepping by the smallest degree instead of the
# gcd would miss the degree-6 part.
_MIXED = RingPresentation((("g0", 4, 3), ("g1", 6, 2)), 14)


def _assert_reduced(x):
    pres = x.presentation
    for exps, coeff in x.terms.items():
        assert all(0 <= e < n for e, n in zip(exps, pres.nilpotencies)), exps
        assert pres.monomial_degree(exps) <= pres.top_degree, exps
        assert isinstance(coeff, Fraction) and coeff, (exps, coeff)


# (g0 + g1)(g0 - g1) = g0^2 - g1^2: the cross terms cancel and must be dropped.
_SQUARES = RingPresentation((("g0", 4, 3), ("g1", 4, 3)), 8)


@SETTINGS
@given(triples(), rationals)
@example(
    (generator(_SQUARES, "g0") + generator(_SQUARES, "g1"), generator(_SQUARES, "g0") - generator(_SQUARES, "g1"), _SQUARES.one()),
    Fraction(0),
)
def test_ring_arithmetic_matches_plain_dicts_and_stays_reduced(data, scalar):
    a, b, _ = data
    pres = a.presentation
    checks = [
        (a * b, naive_reduced_product(a.terms, b.terms, pres.nilpotencies, pres.degrees, pres.top_degree)),
        (a + b, var_poly_add(a.terms, b.terms)),
        (a - b, var_poly_add(a.terms, var_poly_scale(b.terms, Fraction(-1)))),
        (-a, var_poly_scale(a.terms, Fraction(-1))),
        (a * scalar, var_poly_scale(a.terms, scalar)),
        (a + (-a), {}),
    ]
    for result, expected in checks:
        assert result.terms == expected
        _assert_reduced(result)


@st.composite
def summands(draw):
    """A presentation and up to four of its elements, followed in a random
    order by the negatives of some of them, so that terms cancel to zero."""
    pres = draw(presentations())
    elements = [_element(draw, pres, draw(rationals)) for _ in range(draw(st.integers(0, 4)))]
    negated = [-x for x in elements if draw(st.booleans())]
    return pres, draw(st.permutations(elements + negated))


@SETTINGS
@given(summands())
@example((_SQUARES, []))
@example((_SQUARES, [generator(_SQUARES, "g0"), generator(_SQUARES, "g1"), -generator(_SQUARES, "g0")]))
def test_ring_sum_equals_the_pairwise_chain(data):
    pres, elements = data
    chained, expected = pres.zero(), {}
    for x in elements:
        chained = chained + x
        expected = var_poly_add(expected, x.terms)
    total = pres._sum(elements)
    assert total == chained and total.terms == expected
    _assert_reduced(total)


@SETTINGS
@given(st.data())
def test_ring_sum_refuses_a_mixed_presentation_as_plus_does(data):
    pres = data.draw(presentations())
    other = data.draw(presentations().filter(lambda p: p != pres))
    elements = [_element(data.draw, pres, data.draw(rationals)) for _ in range(3)]
    stranger = _element(data.draw, other, data.draw(rationals))
    with pytest.raises(ValueError) as plus:
        elements[0] + stranger
    elements.insert(data.draw(st.integers(0, 3)), stranger)
    with pytest.raises(ValueError) as summed:
        pres._sum(elements)
    assert str(summed.value) == str(plus.value) == "ring elements come from different presentations"


@SETTINGS
@given(triples())
def test_ring_laws(data):
    a, b, c = data
    one, zero = a.presentation.one(), a.presentation.zero()
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * one == a and a + zero == a and a * zero == zero


@SETTINGS
@given(triples(), st.integers(0, 8))
def test_ring_power_equals_the_repeated_product(data, exponent):
    a = data[0]
    product = a.presentation.one()
    for _ in range(exponent):
        product = product * a
    power = a**exponent
    assert power == product
    _assert_reduced(power)


@SETTINGS
@given(st.lists(rationals, min_size=1, max_size=8), st.integers(0, 8))
def test_series_power_equals_the_repeated_product(coefficients, exponent):
    a = Series(coefficients)
    product = Series([1], a.order)
    for _ in range(exponent):
        product = product * a
    assert a**exponent == product


@SETTINGS
@given(units())
@example(2 * _MIXED.one() + generator(_MIXED, "g0") + 3 * generator(_MIXED, "g1"))
def test_ring_inverse_multiplies_back_to_one(a):
    assert a * a.inverse() == a.presentation.one()
    assert a.inverse() * a == a.presentation.one()


@SETTINGS
@given(pontryagin_pairs())
def test_character_inversion_round_trips(data):
    _, p, _ = data
    max_weight = max(1, p.presentation.top_degree // 4)
    assert pont_classes_from_character(pont_character(p, max_weight)) == p


@SETTINGS
@given(pontryagin_pairs())
def test_genus_evaluation_is_multiplicative(data):
    table, a, b = data
    assert evaluate_genus(table, a * b) == evaluate_genus(table, a) * evaluate_genus(table, b)


@SETTINGS
@given(st.lists(rationals, min_size=1, max_size=12))
def test_series_log_exp_round_trips(tail):
    order = len(tail)
    unit = Series([1] + tail, order)
    nilpotent = Series([0] + tail, order)
    assert unit.log().exp() == unit
    assert nilpotent.exp().log() == nilpotent
