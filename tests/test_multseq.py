"""Genus polynomial tables, Newton identities, and the Pontryagin character."""

import random
from fractions import Fraction
from math import factorial

import pytest

from genuscalc import (
    ManifoldModel,
    RingPresentation,
    Series,
    ahat_genus_series,
    ahat_genus_table,
    ambient_model,
    evaluate_genus,
    factored_str,
    genus_table,
    hp_model,
    l_genus_series,
    l_genus_table,
    partition_terms,
    pont_character,
    pont_classes_from_character,
    signature,
)
from genuscalc.multseq import _pontryagin_ring
from oracles import (
    character_by_newton,
    expand_in_variables,
    generator,
    genus_by_substitution,
    genus_polys_by_powers,
    partitions,
    power_sum,
    random_fraction,
    signature_leading_coefficient,
)


def test_partitions_descend_lexicographically():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions(0)) == [()]
    assert len(list(partitions(10))) == 42


def test_partition_terms_cover_every_partition_of_the_weight():
    for table in (l_genus_table(10), ahat_genus_table(10)):
        for n in range(1, 11):
            assert sorted(partition_terms(table.polys[n - 1]), reverse=True) == list(partitions(n))


def test_partition_terms_come_in_display_order():
    ring = _pontryagin_ring(3)
    p1, p2, p3 = (generator(ring, f"p{i}") for i in range(1, 4))
    mixed = p3 + p1**3 + p1 + p2 * p1 + p1**2 + p2
    assert list(partition_terms(mixed)) == [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    assert factored_str(mixed) == "p1 + p2 + p1^2 + p3 + p2*p1 + p1^3"
    # each K_i is homogeneous, so within it the order is the descending
    # lexicographic one the genus command lists
    for table in (l_genus_table(16), ahat_genus_table(16)):
        for poly in table.polys:
            terms = list(partition_terms(poly))
            assert terms == sorted(terms, key=lambda part: tuple(-p for p in part))


def power_sums(max_weight):
    """Power sums s_1..s_N of the roots of the universal class 1 + p_1 + ... + p_N
    in Q[p_1..p_N], read off its Pontryagin character as s_k = (2k)!/2 ph_k."""
    pres = RingPresentation(
        [(f"p{i}", 4 * i, max_weight // i + 1) for i in range(1, max_weight + 1)], 4 * max_weight
    )
    universal = sum((generator(pres, name) for name in pres.names), pres.one())
    character = pont_character(universal, max_weight)
    return [ph * Fraction(factorial(2 * k), 2) for k, ph in enumerate(character, 1)]


def test_newton_power_sums_frozen():
    s = power_sums(4)
    assert partition_terms(s[0]) == {(1,): 1}
    assert partition_terms(s[1]) == {(1, 1): 1, (2,): -2}
    assert partition_terms(s[2]) == {(1, 1, 1): 1, (2, 1): -3, (3,): 3}
    assert partition_terms(s[3]) == {(1, 1, 1, 1): 1, (2, 1, 1): -4, (2, 2): 2, (3, 1): 4, (4,): -4}


def test_newton_power_sums_match_brute_force_expansion():
    nvars = 4
    for k in range(1, 5):
        poly = power_sums(k)[k - 1]
        assert expand_in_variables(partition_terms(poly), nvars) == power_sum(k, nvars), f"s_{k}"


def test_l_genus_table_weight_three_frozen():
    table = l_genus_table(3)
    assert partition_terms(table.polys[0]) == {(1,): Fraction(1, 3)}
    assert partition_terms(table.polys[1]) == {(2,): Fraction(7, 45), (1, 1): Fraction(-1, 45)}
    assert partition_terms(table.polys[2]) == {
        (3,): Fraction(62, 945),
        (2, 1): Fraction(-13, 945),
        (1, 1, 1): Fraction(2, 945),
    }


def test_ahat_genus_table_weight_three_frozen():
    table = ahat_genus_table(3)
    assert partition_terms(table.polys[0]) == {(1,): Fraction(-1, 24)}
    assert partition_terms(table.polys[1]) == {(2,): Fraction(-4, 5760), (1, 1): Fraction(7, 5760)}
    assert partition_terms(table.polys[2]) == {
        (3,): Fraction(-16, 967680),
        (2, 1): Fraction(44, 967680),
        (1, 1, 1): Fraction(-31, 967680),
    }


def test_factored_rendering_uses_common_denominators():
    lt = l_genus_table(3)
    assert factored_str(lt.polys[0]) == "p1/3"
    assert factored_str(lt.polys[1]) == "(7*p2 - p1^2)/45"
    assert factored_str(lt.polys[2]) == "(62*p3 - 13*p2*p1 + 2*p1^3)/945"
    at = ahat_genus_table(3)
    assert factored_str(at.polys[0]) == "-p1/24"
    assert factored_str(at.polys[1]) == "(-4*p2 + 7*p1^2)/5760"
    assert factored_str(at.polys[2]) == "(-16*p3 + 44*p2*p1 - 31*p1^3)/967680"
    # the constant series has log 0, so every genus polynomial is zero
    assert factored_str(genus_table(Series([1], 3)).polys[0]) == "0"


def test_pure_power_coefficient_equals_series_coefficient():
    for build_series, build_table in (
        (l_genus_series, l_genus_table),
        (ahat_genus_series, ahat_genus_table),
    ):
        series = build_series(6)
        table = build_table(6)
        for n in range(1, 7):
            assert partition_terms(table.polys[n - 1]).get((1,) * n, 0) == series[n], f"weight {n}"


def test_leading_coefficients_frozen_and_nonzero():
    lt = l_genus_table(6)
    assert lt.leading_coefficient(1) == Fraction(1, 3)
    assert lt.leading_coefficient(2) == Fraction(7, 45)
    assert lt.leading_coefficient(3) == Fraction(62, 945)
    at = ahat_genus_table(6)
    assert at.leading_coefficient(1) == Fraction(-1, 24)
    assert at.leading_coefficient(2) == Fraction(-1, 1440)
    assert at.leading_coefficient(3) == Fraction(-1, 60480)
    for n in range(1, 7):
        assert lt.leading_coefficient(n)
        assert at.leading_coefficient(n)


def test_signature_leading_coefficients_match_bernoulli_closed_form():
    table = l_genus_table(6)
    for n in range(1, 7):
        assert table.leading_coefficient(n) == signature_leading_coefficient(n)


def test_trivial_series_gives_trivial_sequence():
    table = genus_table(Series([1], 3))
    for i in range(1, 4):
        assert not table.polys[i - 1]
    pres = RingPresentation((("z", 4, 3),), 8)
    a = pres.one() + generator(pres, "z") * 5
    assert evaluate_genus(table, a) == pres.one()


def test_genus_table_matches_exp_by_powers_oracle():
    rng = random.Random(2718)
    random_series = Series([1] + [random_fraction(rng) for _ in range(8)], 8)
    for q in (l_genus_series(8), ahat_genus_series(8), random_series):
        table = genus_table(q)
        expected = genus_polys_by_powers(q.coefficients, 8)
        assert [partition_terms(table.polys[i - 1]) for i in range(1, 9)] == expected, repr(q)


def _ring_route_polys(table):
    """K_1..K_N as the degree-4n parts of evaluate_genus on the universal class
    1 + p_1 + ... + p_N, in the ring the table's polynomials live in."""
    pres = _pontryagin_ring(table.max_weight)
    universal = sum((generator(pres, name) for name in pres.names), pres.one())
    genus = evaluate_genus(table, universal)
    return tuple(genus.homogeneous_part(4 * n) for n in range(1, table.max_weight + 1))


@pytest.mark.parametrize("weight", range(17))
def test_table_polys_equal_the_ring_genus_of_the_universal_class(weight):
    for table in (l_genus_table(weight), ahat_genus_table(weight)):
        assert table.polys == _ring_route_polys(table)


def test_table_polys_of_other_series_equal_the_ring_route():
    rng = random.Random(1213)
    random_series = Series([1] + [random_fraction(rng) for _ in range(12)], 12)
    sparse_series = Series([1, 0, 0, Fraction(-2, 3)], 12)  # c_k = 0 unless 3 | k
    for q in (random_series, sparse_series, Series([1], 5)):
        table = genus_table(q)
        assert table.polys == _ring_route_polys(table), repr(q)


def test_leading_coefficient_matches_table_polys():
    for table in (l_genus_table(10), ahat_genus_table(10)):
        for n in range(1, 11):
            assert table.leading_coefficient(n) == partition_terms(table.polys[n - 1]).get((n,), 0), n
    with pytest.raises(ValueError):
        l_genus_table(3).leading_coefficient(4)


def test_evaluate_genus_matches_partition_substitution_oracle():
    rng = random.Random(1729)
    random_series = Series([1] + [random_fraction(rng) for _ in range(8)], 8)
    for q in (l_genus_series(8), ahat_genus_series(8), random_series):
        polys = genus_polys_by_powers(q.coefficients, 8)
        table = genus_table(q)
        for n in range(1, 8):
            model = ambient_model(n)
            classes = [model.tangent_pontryagin] + [
                _random_total_class(rng, model.presentation) for _ in range(3)
            ]
            for p in classes:
                assert evaluate_genus(table, p) == genus_by_substitution(polys, p), (q, n)


def test_weight_zero_table_is_empty():
    table = genus_table(l_genus_series(0))
    assert table.max_weight == 0
    assert table.polys == ()
    assert l_genus_table(0).polys == ahat_genus_table(0).polys == ()


def test_genus_table_preconditions():
    with pytest.raises(ValueError):
        genus_table(Series([2, 1], 3))


@pytest.mark.parametrize(
    "build, what, bad",
    [
        (lambda: l_genus_table(2.5), "series order", "2.5"),
        # a cached table of weight 2 must not answer for 2.0
        (lambda: (l_genus_table(2), l_genus_table(2.0)), "series order", "2.0"),
        (lambda: ahat_genus_series(3.0), "series order", "3.0"),
        (lambda: Series([1], 2.5), "series order", "2.5"),
        (lambda: pont_character(hp_model(2).tangent_pontryagin, 2.0), "max weight", "2.0"),
        (lambda: l_genus_table(3).leading_coefficient(2.0), "index", "2.0"),
    ],
)
def test_non_integer_weights_are_rejected_not_truncated(build, what, bad):
    with pytest.raises(ValueError, match=f"{what} must be an integer, got {bad}"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RingPresentation([("z", 4, 3)], -1), "top degree must be >= 0, got -1"),
        (lambda: Series([]), "empty coefficient list needs an explicit order"),
        (lambda: Series([1], -1), "series order must be >= 0, got -1"),
        (lambda: l_genus_series(-1), "series order must be >= 0, got -1"),
        (lambda: l_genus_table(-1), "series order must be >= 0, got -1"),
        (lambda: pont_character(hp_model(2).tangent_pontryagin, 0), "max weight must be >= 1, got 0"),
    ],
)
def test_out_of_range_arguments_name_the_fault(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_evaluate_genus_on_quaternionic_plane_classes():
    pres = RingPresentation((("z", 4, 3),), 8)
    z = generator(pres, "z")
    p = pres.one() + 2 * z + 7 * z**2
    l_class = evaluate_genus(l_genus_table(2), p)
    assert l_class == pres.one() + Fraction(2, 3) * z + z**2
    ahat_class = evaluate_genus(ahat_genus_table(2), p)
    assert ahat_class == pres.one() - Fraction(1, 12) * z
    assert ahat_class.coefficient((2,)) == 0


def test_evaluate_genus_requires_unit_constant_term():
    pres = RingPresentation((("z", 4, 3),), 8)
    with pytest.raises(ValueError):
        evaluate_genus(l_genus_table(2), generator(pres, "z"))


def test_classes_with_terms_outside_degrees_4i_are_refused():
    # read only in degrees 4i, 1 + x with |x| = 2 would pass for the class 1
    pres = RingPresentation((("x", 2, 3),), 4)
    p = pres.one() + generator(pres, "x")
    for call in (
        lambda: evaluate_genus(l_genus_table(1), p),
        lambda: pont_character(p, 1),
        lambda: signature(ManifoldModel("X", p)),
    ):
        with pytest.raises(ValueError, match="term of degree 2, not a multiple of 4"):
            call()


def test_evaluate_genus_rejects_undersized_tables():
    pres = RingPresentation((("z", 4, 4),), 12)
    with pytest.raises(ValueError, match="^genus table of weight 2 cannot cover a ring truncated at degree 12$"):
        evaluate_genus(l_genus_table(2), pres.one())
    # a fault of the class is named before the size of the table
    with pytest.raises(ValueError, match="^total class must have constant term 1$"):
        evaluate_genus(l_genus_table(2), generator(pres, "z"))


def _random_total_class(rng, pres):
    terms = {(0,) * pres.ngens: Fraction(1)}
    for exps in _positive_monomials(pres):
        terms[exps] = random_fraction(rng)
    return pres.element(terms)


def _positive_monomials(pres):
    out = [()]
    for n in pres.nilpotencies:
        out = [e + (i,) for e in out for i in range(n)]
    return [
        e
        for e in out
        if any(e) and pres.monomial_degree(e) <= pres.top_degree
    ]


def test_genus_evaluation_is_multiplicative():
    pres = RingPresentation((("u", 4, 2), ("z", 4, 4)), 16)
    rng = random.Random(606)
    for table in (l_genus_table(4), ahat_genus_table(4)):
        for _ in range(100):
            a = _random_total_class(rng, pres)
            b = _random_total_class(rng, pres)
            assert evaluate_genus(table, a * b) == evaluate_genus(table, a) * evaluate_genus(table, b)


def test_genus_of_split_bundle_is_product_of_series():
    # with p = (1+z)^{2n+2} (1+4z)^{-1}, the genus must equal Q(z)^{2n+2} Q(4z)^{-1}
    for build_series, build_table in (
        (l_genus_series, l_genus_table),
        (ahat_genus_series, ahat_genus_table),
    ):
        for n in range(1, 5):
            pres = RingPresentation((("z", 4, n + 1),), 4 * n)
            p_series = Series([1, 1], n) ** (2 * n + 2) * Series([1, 4], n).inverse()
            p_class = pres.element({(k,): p_series[k] for k in range(n + 1)})
            q = build_series(n)
            q_of_4z = Series([c * 4**k for k, c in enumerate(q.coefficients)], n)
            expected_series = q ** (2 * n + 2) * q_of_4z.inverse()
            expected = pres.element({(k,): expected_series[k] for k in range(n + 1)})
            assert evaluate_genus(build_table(n), p_class) == expected, f"n={n}"


def test_pont_character_of_a_line_of_classes():
    pres = RingPresentation((("u", 4, 2),), 4)
    u = generator(pres, "u")
    character = pont_character(pres.one() + u, 1)
    assert character == [u]


def test_pont_character_of_trivial_class_vanishes():
    pres = RingPresentation((("u", 4, 2), ("z", 4, 3)), 12)
    assert pont_character(pres.one(), 3) == [pres.zero()] * 3


def test_pont_character_linear_term_when_products_vanish():
    # classes proportional to u have pairwise zero products, so
    # ph_i = (-1)^{i+1} p_i / (2i-1)! on the nose
    rng = random.Random(11)
    n = 3
    pres = RingPresentation((("u", 4, 2), ("z", 4, n + 1)), 4 + 4 * n)
    u, z = generator(pres, "u"), generator(pres, "z")
    for _ in range(50):
        coeffs = [random_fraction(rng) for _ in range(n + 1)]
        total = pres.one()
        for i, c in enumerate(coeffs, start=1):
            total = total + u * z ** (i - 1) * c
        character = pont_character(total, n + 1)
        for i, c in enumerate(coeffs, start=1):
            expected = u * z ** (i - 1) * (c * Fraction((-1) ** (i + 1), factorial(2 * i - 1)))
            assert character[i - 1] == expected


def test_pont_character_matches_newton_substitution_oracle():
    rng = random.Random(4242)
    for n in range(1, 5):
        pres = ambient_model(n).presentation
        for _ in range(5):
            p = _random_total_class(rng, pres)
            for max_weight in (n, n + 1, n + 2):
                assert pont_character(p, max_weight) == character_by_newton(p, max_weight)


def test_character_inversion_recovers_bundle_classes():
    pres = RingPresentation((("u", 4, 2), ("z", 4, 3)), 12)
    u, z = generator(pres, "u"), generator(pres, "z")
    rng = random.Random(90125)
    for _ in range(100):
        a, b, c = (random_fraction(rng) for _ in range(3))
        lam = random_fraction(rng)
        while not lam:
            lam = random_fraction(rng)
        character = [u * (lam * a), u * z * (lam * b), u * z**2 * (lam * c)]
        total = pont_classes_from_character(character)
        expected = (
            pres.one()
            + u * (lam * a)
            + u * z * (lam * b * -6)
            + u * z**2 * (lam * c * 120)
        )
        assert total == expected


def test_character_round_trips_both_ways():
    pres = RingPresentation((("u", 4, 2), ("z", 4, 4)), 16)
    u, z = generator(pres, "u"), generator(pres, "z")
    rng = random.Random(314)
    deg_bases = {
        1: (u, z),
        2: (u * z, z**2),
        3: (u * z**2, z**3),
        4: (u * z**3,),
    }
    for _ in range(60):
        character = []
        for i in range(1, 5):
            comp = pres.zero()
            for base in deg_bases[i]:
                comp = comp + base * random_fraction(rng)
            character.append(comp)
        total = pont_classes_from_character(character)
        assert total.constant_term() == 1
        assert pont_character(total, 4) == character
        # and the reverse: start from a random total class
        p = _random_total_class(rng, pres)
        assert pont_classes_from_character(pont_character(p, 4)) == p


def test_character_components_must_be_homogeneous():
    pres = RingPresentation((("u", 4, 2), ("z", 4, 3)), 12)
    with pytest.raises(ValueError):
        pont_classes_from_character([pres.one()])
    with pytest.raises(ValueError):
        pont_classes_from_character([])


@pytest.mark.parametrize("foreign", ["nonzero", "zero"])
def test_character_components_must_share_one_presentation(foreign):
    # a zero component adds nothing to the ring's products, which skip zero
    # factors, so only the explicit check refuses it
    pres = RingPresentation((("u", 4, 2), ("z", 4, 3)), 12)
    other = RingPresentation((("u", 4, 2), ("z", 4, 4)), 16)
    second = generator(other, "u") * generator(other, "z") if foreign == "nonzero" else other.zero()
    with pytest.raises(ValueError, match="^ring elements come from different presentations$"):
        pont_classes_from_character([generator(pres, "u"), second])


def test_pont_character_requires_unit_constant_term():
    pres = RingPresentation((("u", 4, 2),), 4)
    with pytest.raises(ValueError):
        pont_character(generator(pres, "u"), 1)
