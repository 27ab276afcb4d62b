"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import closed_forms as cf
import ops
import run
import tracer

BENCH = Path(__file__).resolve().parent


def mutated(out: dict, path: list, value) -> dict:
    """A deep copy of a normalised output with one field replaced."""
    clone = _clone(out)
    target = clone
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return clone


def _clone(value):
    if isinstance(value, dict):
        return {k: _clone(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_clone(v) for v in value]
    return value


# --- closed forms ---------------------------------------------------------


def test_closed_forms_match_known_values():
    assert [cf.bernoulli(m) for m in (0, 2, 4, 6)] == [1, F(1, 6), F(-1, 30), F(1, 42)]
    assert [cf.h(k) for k in (1, 2, 3)] == [F(1, 3), F(7, 45), F(62, 945)]
    assert [cf.a(k) for k in (1, 2)] == [F(-1, 24), F(-1, 1440)]
    assert cf.series_coefficient("Ahat", 2) == F(7, 5760)
    assert cf.series_coefficient("L", 2) == F(-1, 45)
    A, B, C, lam = F(3), F(1, 2), F(-2), F(5, 7)
    assert cf.eight_sigma(2, A, B, C, lam) == lam * (-A / 3 + F(28, 45) * B - F(496, 63) * C)
    assert cf.ahat_total_space(2, A, B, C, lam) == lam * (B / 2880 + C / 504)
    assert cf.hp_pontryagin(2) == {(): 1, (("z", 1),): 2, (("z", 2),): 7}


def test_parsers_read_rendered_polynomials():
    assert cf.parse_poly("1 + 3*u - 3*u*z - 240*u*z^2") == {
        (): 1, (("u", 1),): 3, (("u", 1), ("z", 1)): -3, (("u", 1), ("z", 2)): -240}
    assert cf.parse_poly("-1/2*u + z") == {(("u", 1),): F(-1, 2), (("z", 1),): 1}
    assert cf.parse_factored("(7*p2 - p1^2)/45") == {(("p2", 1),): F(7, 45), (("p1", 2),): F(-1, 45)}
    assert cf.parse_factored("p1/3") == {(("p1", 1),): F(1, 3)}
    assert cf.partition_of((("p1", 2), ("p3", 1))) == (3, 1, 1)


def _genus_output(series: str, weight: int) -> dict:
    polys = []
    for k in range(1, weight + 1):
        poly = {(("p1", k),): cf.series_coefficient(series, k)}
        if k > 1:
            poly[((f"p{k}", 1),)] = cf.leading(series, k)
        polys.append(poly)
    return {"polys": polys}


def _surgery_output(n: int, params: dict) -> dict:
    A, B, C, lam = (params[k] for k in ("A", "B", "C", "lambda"))
    return {"n": n, "params": params, "sigma": cf.eight_sigma(n, A, B, C, lam) / 8,
            "a_hat": cf.ahat_total_space(n, A, B, C, lam),
            "p1_cubed": cf.p1_cubed(A, lam) if n == 2 else None}


PARAMS = {"A": F(3), "B": F(1, 2), "C": F(-2), "lambda": F(5, 7)}


@pytest.mark.parametrize(
    "check, args, out, path, wrong",
    [
        (cf.check_genus, ("L", 4), _genus_output("L", 4), ["polys", 2, ((("p3", 1),))], F(1)),
        (cf.check_genus, ("Ahat", 3), _genus_output("Ahat", 3), ["polys", 1, ((("p1", 2),))], F(0)),
        (cf.check_coeff, ("L", 3), {"coefficients": [F(1), F(1, 3), F(-1, 45), F(2, 945)]},
         ["coefficients", 3], F(2, 947)),
        (cf.check_manifold, ("hp:2",), cf.manifold_expected("hp:2"), ["signature"], F(0)),
        (cf.check_manifold, ("product:s:4,hp:2",), cf.manifold_expected("product:s:4,hp:2"),
         ["signature"], F(1)),
        (cf.check_manifold, ("hp:3",), cf.manifold_expected("hp:3"), ["ahat"], F(1, 8)),
        (cf.check_surgery, (2, PARAMS), _surgery_output(2, PARAMS), ["sigma"], F(1)),
        (cf.check_surgery, (2, PARAMS), _surgery_output(2, PARAMS), ["a_hat"], F(1)),
        (cf.check_surgery, (2, PARAMS), _surgery_output(2, PARAMS), ["p1_cubed"], F(1)),
        (cf.check_surgery, (5, dict(PARAMS, B=F(0))), _surgery_output(5, dict(PARAMS, B=F(0))),
         ["sigma"], F(-1)),
        (cf.check_pontryagin, (2, PARAMS),
         {"n": 2, "params": PARAMS, "ph": cf.xi_character(2, *PARAMS.values()),
          "total": cf.xi_total(2, *PARAMS.values()),
          "classes": [{m: c for m, c in cf.xi_total(2, *PARAMS.values()).items() if sum(e for _, e in m) == i}
                      for i in (1, 2, 3)]},
         ["ph", (("u", 1),)], F(4)),
    ],
)
def test_each_checker_accepts_the_closed_form_and_rejects_a_wrong_value(check, args, out, path, wrong):
    check(*args, out)
    with pytest.raises(cf.CheckError):
        check(*args, mutated(out, path, wrong))


def test_solve_bundle_check_rejects_a_wrong_solution():
    # n = 4: 8 sigma = -A/3 + C h_5 9! (-1)^5, so (A, C) = (-3 h_5 9!, 1) spans the kernel.
    A = -3 * cf.h(5) * 362880
    params = {"A": A, "B": F(0), "C": F(1), "lambda": F(1)}
    good = {"n": 4, "params": params, "sigma": F(0), "a_hat": cf.ahat_total_space(4, A, 0, 1, 1),
            "p1_cubed": None, "kernel_basis": [[A, F(1)]]}
    cf.check_solve_bundle(4, False, good)
    with pytest.raises(cf.CheckError):
        cf.check_solve_bundle(4, False, mutated(good, ["sigma"], F(1, 8)))
    with pytest.raises(cf.CheckError):
        cf.check_solve_bundle(4, False, mutated(good, ["a_hat"], F(0)))
    with pytest.raises(cf.CheckError):
        cf.check_solve_bundle(4, False, mutated(good, ["params", "C"], F(2)))
    with pytest.raises(cf.CheckError):
        cf.check_solve_bundle(4, False, mutated(good, ["kernel_basis"], [[F(1), F(1)]]))


def test_text_and_json_disagreement_is_a_failure():
    text = b"K_1 = p1/3\nK_2 = (7*p2 - p1^2)/45\n"
    good = json.dumps({"series": "L", "weight": 2, "polys": [
        {"weight": 1, "text": "p1/3", "terms": [{"partition": [1], "coefficient": "1/3"}]},
        {"weight": 2, "text": "(7*p2 - p1^2)/45", "terms": [
            {"partition": [2], "coefficient": "7/45"}, {"partition": [1, 1], "coefficient": "-1/45"}]},
    ]}).encode()
    argv = ["genus", "--series", "L", "--weight", "2"]
    json_argv = argv + ["--format", "json"]
    ok = run.OpResult(0.1, text, None)
    assert run.check_cli_outputs([argv, json_argv], [ok, run.OpResult(0.1, good, None)]) == [None, None]
    # JSON whose terms disagree with its own text field.
    bad_terms = good.replace(b'"coefficient": "-1/45"', b'"coefficient": "-2/45"')
    errors = run.check_cli_outputs([json_argv], [run.OpResult(0.1, bad_terms, None)])
    assert errors[0] and errors[0].startswith("check:")
    # Text output that disagrees with an earlier JSON output of the same question.
    other_text = text.replace(b"7*p2", b"7*p2 + p3")
    errors = run.check_cli_outputs([json_argv, argv], [run.OpResult(0.1, good, None),
                                                       run.OpResult(0.1, other_text, None)])
    assert errors[0] is None and errors[1]


def test_lib_checks_reject_a_wrong_value():
    import worker

    op = ("surgery", 3, F(1), F(0), F(2), F(1))
    right = (cf.eight_sigma(3, F(1), F(0), F(2), F(1)) / 8, cf.ahat_total_space(3, F(1), F(0), F(2), F(1)), None)
    worker.check_lib(op, right)
    with pytest.raises(cf.CheckError):
        worker.check_lib(op, (right[0] + 1, right[1], None))
    with pytest.raises(cf.CheckError):
        worker.check_lib(("manifold", "hp", 2), (F(0), F(0)))


# --- failures count in error_rate ------------------------------------------


def test_failing_timed_out_and_noisy_operations_are_failures():
    py = sys.executable
    ok = run.run_process([py, "-c", "print('hi')"], 10)
    assert ok.error is None and ok.stdout == b"hi\n"
    assert run.run_process([py, "-c", "raise SystemExit(2)"], 10).error.startswith("exit 2")
    assert run.run_process([py, "-c", "import sys; sys.stderr.write('warn')"], 10).error.startswith("stderr")
    slow = run.run_process([py, "-c", "import time; time.sleep(30)"], 0.5)
    assert slow.error.startswith("timeout") and slow.latency < 10


def test_failed_operations_reach_error_rate(monkeypatch):
    calls = []

    def fake_run_process(cmd, timeout):
        calls.append(cmd)
        if "-c" in cmd:  # the set-up import
            return run.OpResult(0.05, b"", None)
        op = len(calls) - run.CLI_SETUP_SAMPLES
        error = {10: f"timeout after {timeout} s", 20: "exit 2: genuscalc: error: bad"}.get(op)
        return run.OpResult(0.01 * (op % 7 + 1), b"", error)

    monkeypatch.setattr(run, "run_process", fake_run_process)
    monkeypatch.setattr(run, "check_cli_outputs", lambda argvs, results: [r.error for r in results])
    record, result = run.measure("cli-tables", 1, 0, False)
    assert result["attempted"] == 100 and result["failed"] == 2 and result["correct"] is False
    assert record["error_rate"]["value"] == pytest.approx(0.02)
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(0.98)
    assert any("timeout" in f for f in record["failures"])


# --- the percentile rule -----------------------------------------------------


def test_p90_is_refused_with_fewer_than_ten_samples_beyond_it():
    assert run.percentile(list(range(1, 101)), 0.9) == 90
    with pytest.raises(ValueError, match="ten samples"):
        run.percentile(list(range(1, 100)), 0.9)
    with pytest.raises(ValueError):
        run.percentile([1.0] * 50, 0.9)


# --- operation streams ---------------------------------------------------------


def test_streams_are_seeded_and_balanced():
    def take(stream, n):
        return [next(stream) for _ in range(n)]

    for name, make in ops.STREAMS.items():
        assert take(make(7), 60) == take(make(7), 60)
        assert take(make(7), 60) != take(make(8), 60)
    tables = [(int(argv[4]), argv[2]) for argv in take(ops.cli_tables(1), 40)]
    assert all(sorted(tables[i:i + 8]) == sorted((w, s) for w in (7, 8, 9, 10) for s in ("L", "Ahat"))
               for i in range(0, 40, 8))
    kinds = [op[0] for op in take(ops.lib_sweep(1), 20)]
    assert (kinds.count("surgery"), kinds.count("manifold"), kinds.count("character")) == (12, 5, 3)


def test_loop_runs_for_the_seconds_and_until_the_prefix():
    assert ops.should_continue(5, 1.0, 2.0, 10)
    assert ops.should_continue(5, 3.0, 2.0, 10)
    assert not ops.should_continue(10, 3.0, 2.0, 10)
    assert not ops.should_continue(5, ops.LOOP_CAP_S, 2.0, 10)


# --- tracer ----------------------------------------------------------------------


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(ops.STREAMS)


def test_tracer_patches_direct_imports_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH.parent / "src"))
    import genuscalc.cli
    import genuscalc.manifolds
    import genuscalc.multseq
    import genuscalc.surgery
    from genuscalc.ring import RingElement

    originals = (genuscalc.surgery.evaluate_genus, genuscalc.manifolds.evaluate_genus,
                 genuscalc.cli._TABLES["L"], RingElement.__mul__)
    t = tracer.Tracer()
    t.install()
    try:
        assert genuscalc.surgery.evaluate_genus is not originals[0]
        assert genuscalc.manifolds.evaluate_genus is not originals[1]
        assert genuscalc.cli._TABLES["L"] is not originals[2]
        t.begin_op()
        params = genuscalc.surgery.NormalInvariantParams(3, A=1, C=1)
        sigma = genuscalc.surgery.surgery_obstruction(params)
        t.end_op()
    finally:
        t.uninstall()
    assert (genuscalc.surgery.evaluate_genus, genuscalc.manifolds.evaluate_genus,
            genuscalc.cli._TABLES["L"], RingElement.__mul__) == originals
    assert 8 * sigma == cf.eight_sigma(3, F(1), F(0), F(1), F(1))
    metrics = tracer.layer_metrics(t.raw())
    assert metrics["surgery.ops"] == 1
    assert metrics["surgery.evals_per_op"] == 3  # ambient L-class, bundle L-class, signature
    assert metrics["ring.mul_calls"] > 0 and metrics["ring.inverse_calls"] == 1
    assert metrics["multseq.table_lookups"] >= 2
