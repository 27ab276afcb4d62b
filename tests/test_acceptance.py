"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Every check is exact rational equality.  Run with ``pytest -s
tests/test_acceptance.py`` to watch the lines stream; under plain pytest the
lines appear in each test's captured stdout.
"""

import random
from fractions import Fraction
from math import factorial

from genuscalc import (
    NormalInvariantParams,
    RingPresentation,
    Series,
    a_hat_genus,
    a_hat_total_space,
    ahat_genus_series,
    ahat_genus_table,
    evaluate_genus,
    hp_model,
    l_genus_series,
    l_genus_table,
    p1_cubed_total_space,
    partition_terms,
    pont_character,
    pont_classes_from_character,
    signature,
    solve_bundle,
    surgery_obstruction,
    xi_total_class,
)
from oracles import (
    expand_in_variables,
    generator,
    nonzero_fraction,
    pair_mode_a_hat_coefficient,
    pair_mode_obstruction_coefficients,
    power_sum,
    random_fraction,
)


def _report(number, description, checks):
    try:
        checks()
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


def test_criterion_01_l_class_table():
    def checks():
        table = l_genus_table(3)
        assert partition_terms(table.polys[0]) == {(1,): Fraction(1, 3)}
        assert partition_terms(table.polys[1]) == {(2,): Fraction(7, 45), (1, 1): Fraction(-1, 45)}
        assert partition_terms(table.polys[2]) == {
            (3,): Fraction(62, 945),
            (2, 1): Fraction(-13, 945),
            (1, 1, 1): Fraction(2, 945),
        }

    _report(1, "signature genus table at weight 3", checks)


def test_criterion_02_ahat_class_table():
    def checks():
        table = ahat_genus_table(3)
        assert partition_terms(table.polys[0]) == {(1,): Fraction(-1, 24)}
        assert partition_terms(table.polys[1]) == {
            (2,): Fraction(-4, 5760),
            (1, 1): Fraction(7, 5760),
        }
        assert partition_terms(table.polys[2]) == {
            (3,): Fraction(-16, 967680),
            (2, 1): Fraction(44, 967680),
            (1, 1, 1): Fraction(-31, 967680),
        }

    _report(2, "A-hat genus table at weight 3", checks)


def test_criterion_03_quaternionic_plane_classes():
    def checks():
        model = hp_model(2)
        pres = model.presentation
        z = generator(pres, "z")
        assert model.tangent_pontryagin == pres.one() + 2 * z + 7 * z**2
        l_class = evaluate_genus(l_genus_table(2), model.tangent_pontryagin)
        assert l_class == pres.one() + Fraction(2, 3) * z + z**2
        ahat_class = evaluate_genus(ahat_genus_table(2), model.tangent_pontryagin)
        assert ahat_class == pres.one() - Fraction(1, 12) * z

    _report(3, "tangent classes of the quaternionic plane", checks)


def test_criterion_04_character_inversion():
    def checks():
        pres = RingPresentation((("u", 4, 2), ("z", 4, 3)), 12)
        u, z = generator(pres, "u"), generator(pres, "z")
        rng = random.Random(1729)
        for _ in range(100):
            a, b, c = (random_fraction(rng) for _ in range(3))
            lam = nonzero_fraction(rng)
            character = [u * (lam * a), u * z * (lam * b), u * z**2 * (lam * c)]
            total = pont_classes_from_character(character)
            assert total.homogeneous_part(4) == u * (lam * a)
            assert total.homogeneous_part(8) == u * z * (lam * b * -6)
            assert total.homogeneous_part(12) == u * z**2 * (lam * c * 120)

    _report(4, "Pontryagin-character inversion on 100 random parameter sets", checks)


def test_criterion_05_surgery_obstruction_closed_form():
    def checks():
        rng = random.Random(2718)
        for _ in range(100):
            params = NormalInvariantParams(
                2,
                A=random_fraction(rng),
                B=random_fraction(rng),
                C=random_fraction(rng),
                lam=nonzero_fraction(rng),
            )
            expected = params.lam * (
                -params.A / 3
                + params.B * Fraction(28, 45)
                - params.C * Fraction(496, 63)
            )
            assert 8 * surgery_obstruction(params) == expected

    _report(5, "surgery obstruction closed form on 100 random parameter sets", checks)


def test_criterion_06_a_hat_closed_form():
    def checks():
        rng = random.Random(3141)
        for _ in range(100):
            params = NormalInvariantParams(
                2,
                A=random_fraction(rng),
                B=random_fraction(rng),
                C=random_fraction(rng),
                lam=nonzero_fraction(rng),
            )
            expected = params.lam * (params.B / 2880 + params.C / 504)
            assert a_hat_total_space(params) == expected

    _report(6, "total-space A-hat genus closed form on 100 random parameter sets", checks)


def test_criterion_07_section_triple():
    def checks():
        params = NormalInvariantParams(2, B=Fraction(496, 63), C=Fraction(28, 45))
        assert surgery_obstruction(params) == 0
        assert a_hat_total_space(params) == Fraction(1, 252)
        solution = solve_bundle(2, require_section=True)
        assert (solution.params.A, solution.params.B, solution.params.C) == (
            0,
            Fraction(496, 63),
            Fraction(28, 45),
        )
        assert solution.sigma == 0
        assert solution.a_hat == Fraction(1, 252)

    _report(7, "section triple (0, 496/63, 28/45) with vanishing obstruction", checks)


def test_criterion_08_characteristic_number_pair():
    def checks():
        rng = random.Random(4669)
        for _ in range(100):
            params = NormalInvariantParams(
                2,
                A=random_fraction(rng),
                B=random_fraction(rng),
                C=random_fraction(rng),
                lam=nonzero_fraction(rng),
            )
            assert p1_cubed_total_space(params) == -12 * params.lam * params.A
        solution = solve_bundle(2)
        assert len(solution.kernel_basis) == 2
        v1, v2 = solution.kernel_basis
        assert any(v1[i] * v2[j] - v1[j] * v2[i] for i in range(3) for j in range(3))
        for v in (v1, v2):
            assert surgery_obstruction(NormalInvariantParams(2, A=v[0], B=v[1], C=v[2])) == 0
        assert surgery_obstruction(NormalInvariantParams(2, A=1)) != 0

    _report(8, "p1-cubed pairing and 2-dimensional obstruction kernel", checks)


def test_criterion_09_higher_even_fibres():
    def checks():
        for n in (2, 4, 6):
            assert signature(hp_model(n)) == 1
            assert a_hat_genus(hp_model(n)) == 0
        # the ring route against the Bernoulli closed form at both parities
        for n in range(2, 13):
            coeff_a = 8 * surgery_obstruction(NormalInvariantParams(n, A=1))
            coeff_c = 8 * surgery_obstruction(NormalInvariantParams(n, C=1))
            assert (coeff_a, coeff_c) == pair_mode_obstruction_coefficients(n)
            if n == 2:
                assert (coeff_a, coeff_c) == (Fraction(-1, 3), Fraction(-496, 63))
            if n % 2 == 0:
                a_hat = a_hat_total_space(NormalInvariantParams(n, C=1))
                assert a_hat == pair_mode_a_hat_coefficient(n) != 0
        assert a_hat_total_space(NormalInvariantParams(2, C=1)) == Fraction(1, 504)

    _report(9, "general fibre coefficients match the closed form", checks)


def test_criterion_10_property_suite():
    def checks():
        rng = random.Random(5772)
        # multiplicativity of both genera on random total classes
        pres = RingPresentation((("u", 4, 2), ("z", 4, 4)), 16)
        monomials = [
            e
            for e in ((i, j) for i in range(2) for j in range(4))
            if any(e) and pres.monomial_degree(e) <= 16
        ]
        for table in (l_genus_table(4), ahat_genus_table(4)):
            for _ in range(30):
                a = pres.element(
                    {(0, 0): 1, **{e: random_fraction(rng) for e in monomials}}
                )
                b = pres.element(
                    {(0, 0): 1, **{e: random_fraction(rng) for e in monomials}}
                )
                assert evaluate_genus(table, a * b) == evaluate_genus(
                    table, a
                ) * evaluate_genus(table, b)
        # Newton identities against brute-force expansion in four variables: the
        # power sums of the universal class are s_k = (2k)!/2 ph_k
        for k in range(1, 5):
            ring = RingPresentation([(f"p{i}", 4 * i, k // i + 1) for i in range(1, k + 1)], 4 * k)
            universal = sum((generator(ring, name) for name in ring.names), ring.one())
            poly = pont_character(universal, k)[k - 1] * Fraction(factorial(2 * k), 2)
            assert expand_in_variables(partition_terms(poly), 4) == power_sum(k, 4)
        # ring inverses multiply back to one
        for _ in range(30):
            a = pres.element(
                {(0, 0): nonzero_fraction(rng), **{e: random_fraction(rng) for e in monomials}}
            )
            assert a * a.inverse() == pres.one()
        # character round trip on bundle classes
        for _ in range(30):
            params = NormalInvariantParams(
                2,
                A=random_fraction(rng),
                B=random_fraction(rng),
                C=random_fraction(rng),
                lam=nonzero_fraction(rng),
            )
            total = xi_total_class(params)
            assert pont_classes_from_character(pont_character(total, 3)) == total
        # splitting: the genus of (1+z)^{2n+2} (1+4z)^{-1} is Q(z)^{2n+2} Q(4z)^{-1}
        for build_series, build_table in (
            (l_genus_series, l_genus_table),
            (ahat_genus_series, ahat_genus_table),
        ):
            for n in range(1, 5):
                ring = RingPresentation((("z", 4, n + 1),), 4 * n)
                p_series = Series([1, 1], n) ** (2 * n + 2) * Series([1, 4], n).inverse()
                p_class = ring.element({(k,): p_series[k] for k in range(n + 1)})
                q = build_series(n)
                q_of_4z = Series([c * 4**k for k, c in enumerate(q.coefficients)], n)
                expected_series = q ** (2 * n + 2) * q_of_4z.inverse()
                expected = ring.element({(k,): expected_series[k] for k in range(n + 1)})
                assert evaluate_genus(build_table(n), p_class) == expected

    _report(10, "multiplicativity, Newton, inversion, round-trip, splitting properties", checks)
