"""The frozen record classes: construction, immutability, equality, hashing,
repr and copying, as each behaved when the classes were dataclasses."""

import copy
import pickle
from fractions import Fraction

import pytest

from genuscalc import (
    BundleSolution,
    GenusTable,
    ManifoldModel,
    NormalInvariantParams,
    RingPresentation,
    Series,
    ahat_genus_table,
    genus_table,
    hp_model,
    l_genus_series,
    l_genus_table,
    parse_descriptor,
    product_model,
    solve_bundle,
    sphere_model,
)
from genuscalc.record import FrozenRecord


def _assert_frozen(record, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 0
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)


def test_params_coerce_to_fractions_and_repr():
    params = NormalInvariantParams(2, A=1, C="-2/7")
    assert all(type(v) is Fraction for v in (params.A, params.B, params.C, params.lam))
    assert (params.A, params.B, params.C, params.lam) == (1, 0, Fraction(-2, 7), 1)
    assert repr(NormalInvariantParams(2, A=1)) == (
        "NormalInvariantParams(n=2, A=Fraction(1, 1), B=Fraction(0, 1), "
        "C=Fraction(0, 1), lam=Fraction(1, 1))"
    )


def test_params_constructor_signature_and_errors():
    assert NormalInvariantParams(n=2, A=1, B=2, C=3, lam=4) == NormalInvariantParams(2, 1, 2, 3, 4)
    with pytest.raises(ValueError, match="must be >= 2, got 1"):
        NormalInvariantParams(1)
    with pytest.raises(ValueError, match="scale lambda must be nonzero"):
        NormalInvariantParams(2, lam=Fraction(0))
    with pytest.raises(ValueError, match="only meaningful when n = 2, got n = 3"):
        NormalInvariantParams(3, B=1)
    with pytest.raises(TypeError):
        NormalInvariantParams()
    with pytest.raises(TypeError):
        NormalInvariantParams(2, D=1)


def test_params_are_frozen_values():
    params = NormalInvariantParams(2, A=1)
    _assert_frozen(params, "A")
    same = NormalInvariantParams(2, A=Fraction(1), lam=1)
    assert params == same and not params != same
    assert hash(params) == hash(same)
    assert len({params, same, NormalInvariantParams(2, A=2)}) == 2
    assert params != NormalInvariantParams(2, A=2)
    assert params != NormalInvariantParams(4, A=1)
    assert params != (2, Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    with pytest.raises(TypeError):
        params[0]
    with pytest.raises(TypeError):
        params < same


def test_bundle_solution_is_a_frozen_value():
    solution = solve_bundle(2)
    assert isinstance(solution, BundleSolution)
    _assert_frozen(solution, "sigma")
    again = solve_bundle(2)
    assert solution == again and hash(solution) == hash(again)
    by_keyword = BundleSolution(
        params=solution.params,
        sigma=solution.sigma,
        a_hat=solution.a_hat,
        p1_cubed=solution.p1_cubed,
        kernel_basis=solution.kernel_basis,
    )
    assert by_keyword == solution
    assert BundleSolution(solution.params, 1, 2, None, ()) != solution
    assert repr(solution) == (
        "BundleSolution(params=NormalInvariantParams(n=2, A=Fraction(28, 1), "
        "B=Fraction(15, 1), C=Fraction(0, 1), lam=Fraction(1, 1)), "
        "sigma=Fraction(0, 1), a_hat=Fraction(1, 192), p1_cubed=Fraction(-336, 1), "
        "kernel_basis=((Fraction(28, 1), Fraction(15, 1), Fraction(0, 1)), "
        "(Fraction(496, 1), Fraction(0, 1), Fraction(-21, 1))))"
    )


def test_manifold_model_compares_by_value():
    model, same = hp_model(2), hp_model(2)
    _assert_frozen(model, "name")
    assert model == same and model is not same and hash(model) == hash(same)
    assert {model: "HP2"}[same] == "HP2" and len({model, same, hp_model(3)}) == 2
    assert model != ManifoldModel("HP^2", same.tangent_pontryagin)
    product = product_model(sphere_model(4), hp_model(2))
    assert product == parse_descriptor("product:s:4,hp:2") and product != model
    assert repr(model) == (
        "ManifoldModel(name='HP2', tangent_pontryagin=<RingElement 1 + 2*z + 7*z^2>)"
    )
    pres = RingPresentation((), 0)
    point = ManifoldModel(name="pt", tangent_pontryagin=pres.one())
    assert (point.name, point.dimension, point.fundamental) == ("pt", 0, ())
    assert point.presentation is pres
    assert point.integrate(pres.one()) == 1


def test_manifold_model_derives_its_ring_dimension_and_fundamental_monomial():
    model = ManifoldModel("W", RingPresentation([("u", 4, 2), ("z", 8, 3)], 20).one())
    assert (model.dimension, model.fundamental) == (20, (1, 2))


@pytest.mark.parametrize("top", [4, 12])
def test_manifold_model_refuses_a_ring_not_truncated_at_its_fundamental_degree(top):
    pres = RingPresentation([("z", 4, 3)], top)
    with pytest.raises(ValueError, match=f"truncated at degree {top} does not match the degree 8"):
        ManifoldModel("bad", pres.one())


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: RingPresentation([("u", 4, 2), ("z", 4, 3)], 12), "top_degree"),
        (lambda: Series([1, "1/3", "-1/45"]), "coefficients"),
    ],
)
def test_presentations_and_series_are_frozen_values(make, field):
    value, same = make(), make()
    _assert_frozen(value, field)
    assert value == same and value is not same
    assert hash(value) == hash(same)
    assert len({value, same}) == 1


def test_presentation_fields_are_its_generator_columns():
    pres = RingPresentation([("u", 4, 2), ("z", 4, 3)], 12)
    assert (pres.names, pres.degrees, pres.nilpotencies) == (("u", "z"), (4, 4), (2, 3))
    assert pres.generators == (("u", 4, 2), ("z", 4, 3))
    assert repr(pres) == "RingPresentation([u(deg 4, nil 2), z(deg 4, nil 3)], top_degree=12)"
    assert pres != RingPresentation([("u", 4, 2), ("z", 4, 3)], 16)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
def test_records_copy_and_pickle(clone):
    params = NormalInvariantParams(2, A=1, B="1/2")
    assert clone(params) == params
    solution = solve_bundle(4)
    assert clone(solution) == solution
    model = hp_model(2)
    twin = clone(model)
    assert twin is not model and twin.name == "HP2" and twin.fundamental == (2,)
    assert twin.tangent_pontryagin == model.tangent_pontryagin
    pres = RingPresentation([("u", 4, 2), ("z", 4, 3)], 12)
    assert clone(pres) == pres
    series = Series([1, "1/3", "-1/45"])
    assert clone(series) == series
    table = l_genus_table(4)
    assert clone(table).polys == table.polys
    for record in (params, solution, pres, series, model, table):
        twin = clone(record)
        assert twin == record and record == twin and hash(twin) == hash(record)


def test_a_record_equals_itself_without_reading_its_fields(monkeypatch):
    records = (
        NormalInvariantParams(2, A=1),
        solve_bundle(2),
        RingPresentation([("z", 4, 3)], 8),
        Series([1, "1/3"]),
    )
    monkeypatch.setattr(FrozenRecord, "_values", lambda self: pytest.fail("fields were read"))
    for record in records:
        assert record == record and not record != record


def test_genus_table_is_a_record_of_its_log_coefficients():
    table = l_genus_table(5)
    _assert_frozen(table, "log_coefficients")
    same = genus_table(l_genus_series(5))
    assert table == same and table is not same and hash(table) == hash(same)
    assert GenusTable(table.log_coefficients) == table
    assert table != ahat_genus_table(5) and table != l_genus_table(4)
    assert repr(l_genus_table(1)) == "GenusTable(log_coefficients=(Fraction(0, 1), Fraction(1, 3)))"
    assert GenusTable([0, 1, "1/2"]).log_coefficients == (0, 1, Fraction(1, 2))


@pytest.mark.parametrize(
    "coefficients, message",
    [
        ([], "log coefficients must begin with c_0 = 0"),
        ([1, 2], "log coefficients must begin with c_0 = 0"),
        ([0, 0.5], "scalar 0.5 is a float; give an int, a Fraction or 'num/den'"),
    ],
)
def test_genus_table_refuses_what_no_series_has_as_its_log(coefficients, message):
    with pytest.raises(ValueError) as refused:
        GenusTable(coefficients)
    assert str(refused.value) == message


def test_ring_elements_of_equal_presentations_hash_equal():
    first, second = (RingPresentation([("u", 4, 2), ("z", 4, 3)], 12) for _ in range(2))
    a = 3 * first.gen("u") + first.gen("z") ** 2
    b = second.element({(0, 2): 1, (1, 0): 3})
    assert first is not second and a == b and hash(a) == hash(b)
    assert {a: "a"}[b] == "a" and len({a, b, a + second.one()}) == 2
    assert hash(first.zero()) == hash(second.zero())
