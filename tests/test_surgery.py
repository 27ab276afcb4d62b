"""Surgery obstructions, A-hat genera of total spaces, and the bundle solver."""

import random
from fractions import Fraction

import pytest

from genuscalc import (
    ManifoldModel,
    NormalInvariantParams,
    a_hat_genus,
    a_hat_total_space,
    ambient_model,
    p1_cubed_total_space,
    pont_classes_from_character,
    signature,
    solve_bundle,
    surgery_obstruction,
    xi_total_class,
)
from oracles import (
    generator,
    nonzero_fraction,
    pair_mode_a_hat_coefficient,
    pair_mode_obstruction_coefficients,
    random_fraction,
)


def _random_params(rng, n=2, lam=None):
    kwargs = dict(
        A=random_fraction(rng),
        C=random_fraction(rng),
        lam=nonzero_fraction(rng) if lam is None else lam,
    )
    if n == 2:
        kwargs["B"] = random_fraction(rng)
    return NormalInvariantParams(n, **kwargs)


def test_params_validation():
    with pytest.raises(ValueError):
        NormalInvariantParams(1, A=1)
    with pytest.raises(ValueError):
        NormalInvariantParams(2, A=1, lam=0)
    with pytest.raises(ValueError):
        NormalInvariantParams(3, B=1)
    params = NormalInvariantParams(2, A=1, B=2, C=3, lam=4)
    assert params.A == Fraction(1) and params.lam == Fraction(4)


@pytest.mark.parametrize("n", [2.5, 2.0, "2"])
@pytest.mark.parametrize(
    "entry",
    [NormalInvariantParams, solve_bundle],
)
def test_params_refuse_a_non_integer_n(entry, n):
    with pytest.raises(ValueError, match=r"fibre projective dimension must be an integer, got "):
        entry(n)


@pytest.mark.parametrize("field", ["A", "B", "C", "lam"])
def test_params_refuse_float_parameters(field):
    with pytest.raises(ValueError, match="scalar 0.1 is a float"):
        NormalInvariantParams(2, **{field: 0.1})
    with pytest.raises(ValueError, match="scalar None is not a rational"):
        NormalInvariantParams(2, **{field: None})
    exact = NormalInvariantParams(2, **{field: "1/10"})
    assert getattr(exact, field) == Fraction(1, 10)


# library text scalars are read by the CLI's grammar, not by `Fraction`'s
@pytest.mark.parametrize("text", ["\u0663", " 1.5 ", "1e3"], ids=["arabic-indic 3", "1.5", "1e3"])
@pytest.mark.parametrize("field", ["A", "B", "C", "lam"])
def test_params_refuse_text_outside_the_num_den_grammar(field, text):
    with pytest.raises(ValueError) as refused:
        NormalInvariantParams(2, **{field: text})
    assert str(refused.value) == f"malformed rational {text!r}, expected num or num/den"


def test_params_convert_n_to_an_int():
    class Four:
        def __index__(self):
            return 4

    params = NormalInvariantParams(Four(), C=1)
    assert type(params.n) is int and params.n == 4
    assert solve_bundle(Four()) == solve_bundle(4)
    with pytest.raises(ValueError, match="must be >= 2, got 1"):
        NormalInvariantParams(True, A=1)


def test_ambient_model_is_the_product_ring():
    model = ambient_model(2)
    assert model.name == "S4 x HP2"
    assert model.presentation.names == ("u", "z")
    assert model.presentation.top_degree == 12
    with pytest.raises(ValueError, match="projective dimension must be >= 1, got 0"):
        ambient_model(0)


def test_xi_total_class_frozen_n2():
    pres = ambient_model(2).presentation
    params = NormalInvariantParams(2, A=1, B=1, C=1)
    assert xi_total_class(params) == pres.element(
        {(0, 0): 1, (1, 0): 1, (1, 1): -6, (1, 2): 120}
    )
    zero = NormalInvariantParams(2)
    assert xi_total_class(zero) == pres.one()


def test_xi_total_class_scales_with_parameters():
    rng = random.Random(6174)
    pres = ambient_model(2).presentation
    u, z = generator(pres, "u"), generator(pres, "z")
    for _ in range(50):
        params = _random_params(rng)
        expected = (
            pres.one()
            + u * (params.lam * params.A)
            + u * z * (params.lam * params.B * -6)
            + u * z**2 * (params.lam * params.C * 120)
        )
        assert xi_total_class(params) == expected


def test_xi_total_class_general_n_keeps_only_edge_classes():
    pres4 = ambient_model(4).presentation
    params = NormalInvariantParams(4, A=1, C=1)
    # (2n+1)! = 9! = 362880 and the sign (-1)^n is positive for n = 4
    assert xi_total_class(params) == pres4.element(
        {(0, 0): 1, (1, 0): 1, (1, 4): 362880}
    )
    pres3 = ambient_model(3).presentation
    params3 = NormalInvariantParams(3, A=0, C=1)
    assert xi_total_class(params3) == pres3.element({(0, 0): 1, (1, 3): -5040})


def test_character_route_agrees_with_direct_construction():
    # at n = 2 the bundle has ph(xi) = lambda u (A + B z + C z^2)
    pres = ambient_model(2).presentation

    def via_character(params):
        components = (params.A, params.B, params.C)
        return pont_classes_from_character(
            [pres.element({(1, k): params.lam * c}) for k, c in enumerate(components)]
        )

    params = NormalInvariantParams(2, A=1, B=1, C=1)
    assert via_character(params) == xi_total_class(params)
    rng = random.Random(42)
    for _ in range(60):
        params = _random_params(rng)
        assert via_character(params) == xi_total_class(params)


def test_surgery_obstruction_frozen_values():
    assert surgery_obstruction(NormalInvariantParams(2, A=1)) == Fraction(-1, 24)
    assert surgery_obstruction(NormalInvariantParams(2, B=1)) == Fraction(7, 90)
    assert surgery_obstruction(NormalInvariantParams(2, C=1)) == Fraction(-62, 63)
    assert surgery_obstruction(NormalInvariantParams(2)) == 0
    section = NormalInvariantParams(2, B=Fraction(496, 63), C=Fraction(28, 45))
    assert surgery_obstruction(section) == 0


def test_surgery_obstruction_closed_form():
    rng = random.Random(112358)
    for _ in range(100):
        params = _random_params(rng)
        expected = params.lam * (
            -params.A / 3 + params.B * Fraction(28, 45) - params.C * Fraction(496, 63)
        )
        assert 8 * surgery_obstruction(params) == expected


def test_a_hat_total_space_frozen_values():
    assert a_hat_total_space(NormalInvariantParams(2, A=1)) == 0
    assert a_hat_total_space(NormalInvariantParams(2, B=1)) == Fraction(1, 2880)
    assert a_hat_total_space(NormalInvariantParams(2, C=1)) == Fraction(1, 504)
    section = NormalInvariantParams(2, B=Fraction(496, 63), C=Fraction(28, 45))
    assert a_hat_total_space(section) == Fraction(1, 252)


def test_a_hat_total_space_closed_form():
    rng = random.Random(271828)
    for _ in range(100):
        params = _random_params(rng)
        expected = params.lam * (params.B / 2880 + params.C / 504)
        assert a_hat_total_space(params) == expected


def test_p1_cubed_matches_linear_form():
    assert p1_cubed_total_space(NormalInvariantParams(2, A=1)) == -12
    assert p1_cubed_total_space(NormalInvariantParams(2, A=Fraction(1, 2), lam=3)) == -18
    rng = random.Random(999)
    for _ in range(100):
        params = _random_params(rng)
        assert p1_cubed_total_space(params) == -12 * params.lam * params.A
    with pytest.raises(ValueError):
        p1_cubed_total_space(NormalInvariantParams(4, A=1))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_obstruction_is_linear_in_the_parameters(n):
    rng = random.Random(161803)
    for _ in range(40 if n == 2 else 10):  # larger rings cost more per draw
        lam = nonzero_fraction(rng)
        p1, p2 = (_random_params(rng, n, lam) for _ in range(2))
        total = NormalInvariantParams(n, A=p1.A + p2.A, B=p1.B + p2.B, C=p1.C + p2.C, lam=lam)
        assert surgery_obstruction(total) == surgery_obstruction(p1) + surgery_obstruction(p2)
        assert a_hat_total_space(total) == a_hat_total_space(p1) + a_hat_total_space(p2)


def test_scale_factors_out():
    rng = random.Random(55)
    for _ in range(40):
        a, b, c = (random_fraction(rng) for _ in range(3))
        lam = nonzero_fraction(rng)
        scaled = NormalInvariantParams(2, A=a, B=b, C=c, lam=lam)
        base = NormalInvariantParams(2, A=a, B=b, C=c)
        assert surgery_obstruction(scaled) == lam * surgery_obstruction(base)
        assert a_hat_total_space(scaled) == lam * a_hat_total_space(base)


def _obstruction_coefficients(n):
    """Coefficients (per A, per C) of 8 sigma at lambda = 1, read off the ring
    evaluation at the unit parameters."""
    return (
        8 * surgery_obstruction(NormalInvariantParams(n, A=1)),
        8 * surgery_obstruction(NormalInvariantParams(n, C=1)),
    )


def test_general_obstruction_coefficients_frozen_n2():
    assert _obstruction_coefficients(2) == (Fraction(-1, 3), Fraction(-496, 63))
    with pytest.raises(ValueError, match="fibre projective dimension must be >= 2, got 1"):
        _obstruction_coefficients(1)


def test_general_coefficients_match_direct_ring_evaluation():
    for n in (*range(2, 13), 46):
        assert _obstruction_coefficients(n) == pair_mode_obstruction_coefficients(n), n
    # sig(HP^n) = 0 at odd n, so A drops out of sigma there
    assert _obstruction_coefficients(3) == (0, Fraction(2032, 15))


def test_general_a_hat_coefficient_matches_direct_evaluation():
    assert a_hat_total_space(NormalInvariantParams(2, C=1)) == Fraction(1, 504)
    # A-hat(HP^n) = 0, so A drops out of the A-hat genus; B (n = 2) and C do not
    assert a_hat_total_space(NormalInvariantParams(2, B=1)) == Fraction(1, 2880)
    for n in (2, 4, 6, 8, 10, 12, 46):
        assert a_hat_total_space(NormalInvariantParams(n, A=1)) == 0, n
        coeff = a_hat_total_space(NormalInvariantParams(n, C=1))
        assert coeff == pair_mode_a_hat_coefficient(n) != 0, n


def test_solve_bundle_n2_kernel_and_representative():
    solution = solve_bundle(2)
    assert solution.kernel_basis == (
        (Fraction(28), Fraction(15), Fraction(0)),
        (Fraction(496), Fraction(0), Fraction(-21)),
    )
    v1, v2 = solution.kernel_basis
    # both basis vectors genuinely lie in the kernel and are independent
    for v in (v1, v2):
        assert surgery_obstruction(NormalInvariantParams(2, A=v[0], B=v[1], C=v[2])) == 0
    assert v1[1] * v2[2] - v1[2] * v2[1] != 0
    # the functional itself is nonzero, so the kernel has dimension exactly 2
    assert surgery_obstruction(NormalInvariantParams(2, A=1)) != 0
    assert solution.sigma == 0
    assert solution.a_hat == Fraction(1, 192)
    assert solution.p1_cubed == -336
    assert (solution.params.A, solution.params.B, solution.params.C) == (28, 15, 0)


def test_solve_bundle_require_section_frozen_triple():
    solution = solve_bundle(2, require_section=True)
    params = solution.params
    assert (params.A, params.B, params.C) == (0, Fraction(496, 63), Fraction(28, 45))
    assert params.lam == 1
    assert solution.sigma == 0
    assert solution.a_hat == Fraction(1, 252)
    assert solution.p1_cubed == 0
    assert len(solution.kernel_basis) == 2


def test_solve_bundle_even_n_pair_mode():
    for n in (4, 6, 46):
        solution = solve_bundle(n)
        params = solution.params
        assert (params.A, params.C) == solution.kernel_basis[0]
        assert params.B == 0
        assert params.C != 0
        assert solution.sigma == 0
        assert surgery_obstruction(params) == 0
        assert solution.a_hat != 0
        assert solution.a_hat == a_hat_total_space(params)
        assert solution.p1_cubed is None
        assert len(solution.kernel_basis) == 1
        vec = solution.kernel_basis[0]
        assert all(c.denominator == 1 for c in vec)
        coeff_a, coeff_c = _obstruction_coefficients(n)
        assert coeff_a * vec[0] + coeff_c * vec[1] == 0


def test_solve_bundle_rejects_unsupported_modes():
    with pytest.raises(ValueError):
        solve_bundle(3)
    with pytest.raises(ValueError):
        solve_bundle(1)
    with pytest.raises(ValueError):
        solve_bundle(4, require_section=True)


def test_solve_bundle_refuses_a_vanishing_obstruction_functional(monkeypatch):
    # a broken sigma route ends in the solver's RuntimeError, not in a division by zero
    monkeypatch.setattr("genuscalc.surgery.surgery_obstruction", lambda params: Fraction(0))
    with pytest.raises(RuntimeError, match="^obstruction functional vanished identically$"):
        solve_bundle(2)


def _linear_bundle_class(n, k, sign=1):
    """p(E) of E = HP(V) for a quaternionic (n+1)-plane bundle V over S^4 with
    e_1 = k u (Borel-Hirzebruch), written in S^4 x HP^n's ring through
    Z = z + k u / (n+1), which satisfies Z^{n+1} = k u Z^n there; sign = -1
    flips the u term as a control."""
    pres = ambient_model(n).presentation
    one, u = pres.one(), generator(pres, "u")
    Z = generator(pres, "z") + Fraction(k, n + 1) * u
    twisted = sign * 2 * k * (one - Z) * (one + Z) ** (2 * n) * u
    return ((one + Z) ** (2 * n + 2) + twisted) * (one + 4 * Z).inverse()


def test_linear_bundles_have_vanishing_signature_and_a_hat_genus():
    # sig(E) = sig(S^4) sig(HP^n) (Chern-Hirzebruch-Serre); E is spin with
    # positive scalar curvature, so A-hat(E) = 0 (Lichnerowicz)
    for n in range(1, 13):
        for k in (-2, 1, 3):
            total_space = ManifoldModel("E", _linear_bundle_class(n, k))
            assert (signature(total_space), a_hat_genus(total_space)) == (0, 0), (n, k)
    flipped = ManifoldModel("E", _linear_bundle_class(1, 1, sign=-1))
    assert (signature(flipped), a_hat_genus(flipped)) == (Fraction(28, 15), Fraction(-1, 120))


@pytest.mark.parametrize("k", [1, -3])
def test_linear_bundles_at_n2_lie_in_the_kernel_with_vanishing_a_hat(k):
    tangent = _linear_bundle_class(2, k)
    params = NormalInvariantParams(2, A=Fraction(-8 * k, 3), B=Fraction(-4 * k, 9), C=Fraction(7 * k, 90))
    assert ambient_model(2).tangent_pontryagin * tangent.inverse() == xi_total_class(params)
    assert surgery_obstruction(params) == 0
    assert a_hat_total_space(params) == 0
    assert p1_cubed_total_space(params) == 32 * k
    # so the kernel's representative with A-hat != 0 is not a linear bundle
    solution = solve_bundle(2)
    assert solution.kernel_basis[0] == (28, 15, 0) and solution.a_hat == Fraction(1, 192)
