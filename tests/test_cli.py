"""Command-line interface: golden outputs, JSON round trips, error handling."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import genuscalc
from genuscalc.cli import COEFF_MAX_WEIGHT, GENUS_MAX_WEIGHT, run
from genuscalc.manifolds import MODEL_MAX_WEIGHT

_HUGE = "9" * 5000  # past the interpreter's 4,300-digit limit on int()
_WIDEST = "9" * 1000  # the most digits a rational argument may have


def _invoke(capsys, argv):
    status = run(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_coeff_text_output(capsys):
    status, out, err = _invoke(capsys, ["coeff", "--series", "L", "--weight", "4"])
    assert status == 0 and err == ""
    assert out == "z^0: 1\nz^1: 1/3\nz^2: -1/45\nz^3: 2/945\nz^4: -1/4725\n"


def test_coeff_ahat_text_output(capsys):
    status, out, err = _invoke(capsys, ["coeff", "--series", "Ahat", "--weight", "3"])
    assert status == 0
    assert out == "z^0: 1\nz^1: -1/24\nz^2: 7/5760\nz^3: -31/967680\n"


def test_genus_text_output_matches_displayed_expansions(capsys):
    status, out, err = _invoke(capsys, ["genus", "--series", "L", "--weight", "3"])
    assert status == 0
    assert out == (
        "K_1 = p1/3\n"
        "K_2 = (7*p2 - p1^2)/45\n"
        "K_3 = (62*p3 - 13*p2*p1 + 2*p1^3)/945\n"
    )
    status, out, err = _invoke(capsys, ["genus", "--series", "Ahat", "--weight", "3"])
    assert status == 0
    assert out == (
        "K_1 = -p1/24\n"
        "K_2 = (-4*p2 + 7*p1^2)/5760\n"
        "K_3 = (-16*p3 + 44*p2*p1 - 31*p1^3)/967680\n"
    )


def test_genus_json_payload(capsys):
    status, out, err = _invoke(
        capsys, ["genus", "--series", "L", "--weight", "2", "--format", "json"]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["series"] == "L"
    assert payload["polys"][0] == {
        "weight": 1,
        "text": "p1/3",
        "terms": [{"partition": [1], "coefficient": "1/3"}],
    }
    assert payload["polys"][1]["terms"] == [
        {"partition": [2], "coefficient": "7/45"},
        {"partition": [1, 1], "coefficient": "-1/45"},
    ]


# sha256 of `genus --weight 10` stdout, recorded while genus_table still built
# tables as exp by summed powers (the construction genus_polys_by_powers in
# oracles.py repeats), so they do not come from the graded recurrence
_WEIGHT_TEN_SHA256 = {
    ("L", "text"): "294bd3d8e6f85e9a357744ed4baa0f3b4edebf6f36f21006a5de8ebf15861691",
    ("L", "json"): "10c1381fd00657eddbd3478c3dd3d256f3900a60bec6445a771a512f41c65d74",
    ("Ahat", "text"): "010249643662e6a5b86a538070ce8cd187134aa50785c3cebb1bf4ef5fcb97b0",
    ("Ahat", "json"): "82bb77f311d8ddb7100100b884f6f79f3187efe8257ccd9267f8f0fd589d6f91",
}


# sha256 of `genus --weight 16` stdout, recorded while the genus polynomials
# were still built in a partition-keyed algebra of their own
_WEIGHT_SIXTEEN_SHA256 = {
    ("L", "text"): "8a2ffc3f01936ce8c76409c9a55d30a3800f04679292fa0cb016ec1286a6b8b4",
    ("L", "json"): "00553ab9c1daf55bfba31e4f7e6a8298d1d6bfe531f04c5c82afa99fbc5cac51",
    ("Ahat", "text"): "a73514e7fce1613e9bb1415a3cf5a6272260d86848d85fe1e060a99dd6726217",
    ("Ahat", "json"): "0111387a63433113ed3ce699e189b909287ba31499b6bd0b61e38d6838ed46cf",
}


def _genus_sha256(capsys, weight, series, fmt):
    status, out, err = _invoke(
        capsys, ["genus", "--series", series, "--weight", str(weight), "--format", fmt]
    )
    assert status == 0 and err == ""
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("series, fmt", sorted(_WEIGHT_TEN_SHA256))
def test_weight_ten_genus_output_is_pinned(capsys, series, fmt):
    assert _genus_sha256(capsys, 10, series, fmt) == _WEIGHT_TEN_SHA256[series, fmt]


@pytest.mark.parametrize("series, fmt", sorted(_WEIGHT_SIXTEEN_SHA256))
def test_weight_sixteen_genus_output_is_pinned(capsys, series, fmt):
    assert _genus_sha256(capsys, 16, series, fmt) == _WEIGHT_SIXTEEN_SHA256[series, fmt]


_ERROR_ARGVS = [
    ["frobnicate"],
    ["coeff", "--series", "L"],
    ["coeff", "--series", "X", "--weight", "3"],
    ["coeff", "--series", "L", "--weight", "-1"],
    ["surgery", "--n", "2", "--A", "1.5"],
    ["surgery", "--n", "2", "--A", "1/0"],
    ["surgery", "--n", "1", "--A", "1"],
    ["surgery", "--n", "3", "--B", "1"],
    ["surgery", "--n", "2", "--lambda", "0"],
    ["manifold", "--descriptor", "made:up"],
    ["manifold", "--descriptor", "hp:2", "--report", "volume"],
    ["manifold", "--descriptor", "hp:2", "--unknown-flag"],
    ["solve-bundle", "--n", "3"],
    ["solve-bundle", "--n", "4", "--require-section"],
    [],
    ["genus", "--series", "L", "--weight", "\u0663"],
    ["genus", "--series", "L", "--weight", "\u00b2"],
    ["manifold", "--descriptor", "hp:\u0662"],
    ["genus", "--series", "L", "--weight", _HUGE],
    ["manifold", "--descriptor", "hp:" + _HUGE],
    ["manifold", "--descriptor", "s:" + _HUGE],
    ["surgery", "--n", _HUGE],
    ["surgery", "--n", "2", "--C", "-2/7"],
    ["coeff", "--series", "L", "--weight", "1", "x\ny"],
    ["surgery", "--n", "2", "--A", "\u0663", "--C", "\uff13"],
    ["manifold", "--descriptor", "hp:2", "--report", "ahat,ahat"],
    ["manifold", "--descriptor", "product:hp:2,,hp:2"],
]


_MANIFOLD_DESCRIPTORS = (
    [f"hp:{n}" for n in range(1, 17)]
    + [f"s:{k}" for k in range(4, 65, 4)]
    + [f"product:s:4,hp:{n}" for n in range(1, 9)]
    + ["product:hp:2,hp:2", "product:hp:1,hp:1,s:4,s:8", "product:hp:3,hp:5"]
)
_PARAMS = ["--A", "1/3", "--C=-5/7"]
_SWEEPS = {
    "manifold": [["manifold", "--descriptor", d] for d in _MANIFOLD_DESCRIPTORS],
    "surgery": [["surgery", "--n", str(n), *_PARAMS] for n in range(2, 13)],
    "pontryagin": [["pontryagin", "--n", str(n), *_PARAMS] for n in range(2, 13)],
    "solve-bundle": [["solve-bundle", "--n", str(n)] for n in range(2, 13)],
    "coeff": [
        ["coeff", "--series", s, "--weight", str(w)] for s in ("L", "Ahat") for w in [*range(21), 150]
    ],
    "genus": [["genus", "--series", s, "--weight", str(w)] for s in ("L", "Ahat") for w in range(17)],
    "help": [["--help"]]
    + [[c, "--help"] for c in ("coeff", "genus", "manifold", "pontryagin", "surgery", "solve-bundle")],
    "errors": [*_ERROR_ARGVS, ["surgery", "--n", "99", "--A", "x"]],
}

# sha256 over (status, stdout, stderr) of each argv of a sweep, recorded while
# a manifold model still stored its dimension, ring and fundamental monomial
# beside its tangent class; odd n pins solve-bundle's one-line refusal.
# The coeff, help and errors digests were recorded before the subcommand
# table and the payload renderer replaced per-subcommand flags and lines;
# help and errors argvs run as written, without a --format flag.  The genus
# digests were recorded while the genus polynomials were still the ring
# genus of the universal class, before they moved to integer numerators.
_SWEEP_SHA256 = {
    ("manifold", "text"): "9962a9affdd1f2dc9596ea967d81d99134493d7355aaf38724951a049d8980a9",
    ("manifold", "json"): "a6b2b8ecbb1df3e9da9483f1cf2e2aca8a892382187e9a9ae7a40361cc72d2d8",
    ("surgery", "text"): "a9543b8bf6d08bb35f725682da6cbdeb48bf405c014dda8e213f5b64bcd3166c",
    ("surgery", "json"): "1c9d1d8989adf080a75f3ffc9a442078aa72ad6596ddd23657d5c22d6116ced5",
    ("pontryagin", "text"): "c949955d08a76e2de8f45f817b5c2f64f770708afc7412ffcd2ed535e3d2a687",
    ("pontryagin", "json"): "be04513e431cbd705ee602253d52d49c8edbdf68fb2dfc56bcc53b48305a7e98",
    ("solve-bundle", "text"): "a519dc8d715358bf23f257e0f7f2ec1df84d29277491fd4d744d2ffc5d313573",
    ("solve-bundle", "json"): "6f469d12ad5ba94a047a21d57e89b628c5f163ca8e83a2f50c940de8c526acc7",
    ("coeff", "text"): "37eaab747d9847526d6cd96bba9e2a142a314279cb1e0b2f46c9be9c0e35fb2c",
    ("coeff", "json"): "b306201db3841f59a8080d1d9a2840e70e263e42a4b6037fdf783166aea2d036",
    ("genus", "text"): "10b4fcb534c6100b324e8c06f567771303a36cbe0314c4deb3f25e09c6c016e9",
    ("genus", "json"): "816219f6c9d7175064a9696a9c87c2a738564a23e4541abcf69728b54a2bcfdd",
    ("help", None): "eea6c986914a2f6f59d2f408cef0b5ac97dabf86299f95b44a640c0fc5c43cb7",
    ("errors", None): "1dfc08c45026182c90d6163a6985c4f409bf0252ce58d3c8244baff280cec311",
}


@pytest.mark.parametrize("command, fmt", sorted(_SWEEP_SHA256))
def test_sweep_output_is_pinned(capsys, monkeypatch, command, fmt):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    digest = hashlib.sha256()
    for argv in _SWEEPS[command]:
        format_flag = ["--format", fmt] if fmt else []
        digest.update(repr(_invoke(capsys, [*argv, *format_flag])).encode())
    assert digest.hexdigest() == _SWEEP_SHA256[command, fmt]


def test_manifold_text_output(capsys):
    status, out, err = _invoke(capsys, ["manifold", "--descriptor", "hp:2"])
    assert status == 0
    assert out == (
        "manifold: HP2\n"
        "dimension: 8\n"
        "pontryagin: 1 + 2*z + 7*z^2\n"
        "signature: 1\n"
        "ahat: 0\n"
    )


def test_manifold_product_with_a_repeated_factor(capsys):
    status, out, err = _invoke(capsys, ["manifold", "--descriptor", "product:hp:2,hp:2"])
    assert status == 0 and err == ""
    assert out == (
        "manifold: HP2 x HP2\n"
        "dimension: 16\n"
        "pontryagin: 1 + 2*z2 + 7*z2^2 + 2*z1 + 4*z1*z2 + 14*z1*z2^2 + 7*z1^2 + 14*z1^2*z2"
        " + 49*z1^2*z2^2\n"
        "signature: 1\n"
        "ahat: 0\n"
    )


def test_manifold_report_selection(capsys):
    status, out, err = _invoke(
        capsys, ["manifold", "--descriptor", "product:s:4,hp:2", "--report", "signature"]
    )
    assert status == 0
    assert out == "manifold: S4 x HP2\ndimension: 12\nsignature: 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hp:2", "--report", "ahat,ahat"], "duplicate report 'ahat'"),
        (["hp:2", "--report", "signature, pontryagin,signature"], "duplicate report 'signature'"),
        (["product:hp:2,,hp:2"], "empty factor in product descriptor 'product:hp:2,,hp:2'"),
        (["product:s:4"], "product descriptor needs at least two factors, got 'product:s:4'"),
        (["hp:1", "--report", ","], "empty report list"),
    ],
)
def test_manifold_input_errors_name_the_fault(capsys, argv, message):
    status, out, err = _invoke(capsys, ["manifold", "--descriptor", *argv])
    assert status == 2 and out == ""
    assert err == f"genuscalc: error: {message}\n"


def test_pontryagin_text_output(capsys):
    status, out, err = _invoke(
        capsys,
        ["pontryagin", "--n", "2", "--A", "1", "--B", "1", "--C", "1"],
    )
    assert status == 0
    assert out.endswith(
        "ph: u + u*z + u*z^2\n"
        "p: 1 + u - 6*u*z + 120*u*z^2\n"
        "p_1: u\n"
        "p_2: -6*u*z\n"
        "p_3: 120*u*z^2\n"
    )


def test_surgery_text_output(capsys):
    status, out, err = _invoke(
        capsys,
        ["surgery", "--n", "2", "--B", "496/63", "--C", "28/45"],
    )
    assert status == 0
    assert out == (
        "n: 2\n"
        "A: 0\n"
        "B: 496/63\n"
        "C: 28/45\n"
        "lambda: 1\n"
        "sigma: 0\n"
        "a_hat: 1/252\n"
        "p1_cubed: 0\n"
    )


def test_surgery_json_schema(capsys):
    status, out, err = _invoke(
        capsys,
        ["surgery", "--n", "2", "--A", "1", "--lambda", "1/2", "--format", "json"],
    )
    assert status == 0
    payload = json.loads(out)
    assert payload == {
        "n": 2,
        "params": {"A": "1", "B": "0", "C": "0", "lambda": "1/2"},
        "sigma": "-1/48",
        "a_hat": "0",
        "p1_cubed": "-6",
    }


def test_solve_bundle_section_json(capsys):
    status, out, err = _invoke(
        capsys, ["solve-bundle", "--n", "2", "--require-section", "--format", "json"]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload == {
        "n": 2,
        "params": {"A": "0", "B": "496/63", "C": "28/45", "lambda": "1"},
        "sigma": "0",
        "a_hat": "1/252",
        "p1_cubed": "0",
        "kernel_basis": [["28", "15", "0"], ["496", "0", "-21"]],
    }


def test_solve_bundle_text_output(capsys):
    status, out, err = _invoke(capsys, ["solve-bundle", "--n", "2"])
    assert status == 0
    assert out == (
        "n: 2\n"
        "A: 28\n"
        "B: 15\n"
        "C: 0\n"
        "lambda: 1\n"
        "sigma: 0\n"
        "a_hat: 1/192\n"
        "p1_cubed: -336\n"
        "kernel_basis: [28, 15, 0]; [496, 0, -21]\n"
    )


def test_solve_bundle_pair_mode_json(capsys):
    status, out, err = _invoke(
        capsys, ["solve-bundle", "--n", "4", "--format", "json"]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["params"]["B"] == "0"
    assert payload["sigma"] == "0"
    assert payload["a_hat"] != "0"
    assert payload["p1_cubed"] is None
    assert len(payload["kernel_basis"]) == 1


def test_json_output_round_trips_byte_for_byte(capsys):
    for argv in (
        ["coeff", "--series", "L", "--weight", "3", "--format", "json"],
        ["genus", "--series", "Ahat", "--weight", "3", "--format", "json"],
        ["manifold", "--descriptor", "hp:3", "--format", "json"],
        ["surgery", "--n", "2", "--B", "1", "--format", "json"],
        ["solve-bundle", "--n", "2", "--require-section", "--format", "json"],
    ):
        status, out, err = _invoke(capsys, argv)
        assert status == 0
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_repeat_runs_are_byte_identical(capsys):
    argv = ["solve-bundle", "--n", "2", "--require-section", "--format", "json"]
    _, first, _ = _invoke(capsys, argv)
    _, second, _ = _invoke(capsys, argv)
    assert first == second


@pytest.mark.parametrize("argv", _ERROR_ARGVS)
def test_errors_exit_nonzero_with_one_diagnostic_line(capsys, argv):
    status, out, err = _invoke(capsys, argv)
    assert status != 0
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("genuscalc: error: ")


@pytest.mark.parametrize(
    "command, cap", [("genus", GENUS_MAX_WEIGHT), ("coeff", COEFF_MAX_WEIGHT)]
)
def test_weights_above_the_cap_are_refused_quickly(capsys, command, cap):
    for weight in (cap + 1, 1200):
        start = time.perf_counter()
        status, out, err = _invoke(
            capsys, [command, "--series", "L", "--weight", str(weight)]
        )
        assert time.perf_counter() - start < 1.0
        assert status == 2 and out == ""
        assert err == (
            f"genuscalc: error: argument --weight: at most {cap} is supported, "
            f"got {weight}\n"
        )


def test_genus_runs_at_its_cap(capsys):
    status, out, err = _invoke(
        capsys, ["genus", "--series", "L", "--weight", str(GENUS_MAX_WEIGHT)]
    )
    assert status == 0 and err == ""
    assert out.count("\n") == GENUS_MAX_WEIGHT


_TOP_DIM = 4 * MODEL_MAX_WEIGHT
_N_CAP = MODEL_MAX_WEIGHT - 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["manifold", "--descriptor", f"hp:{MODEL_MAX_WEIGHT + 1}"],
         f"manifold dimension at most {_TOP_DIM} is supported, got {_TOP_DIM + 4}"),
        (["manifold", "--descriptor", "s:1200"],
         f"manifold dimension at most {_TOP_DIM} is supported, got 1200"),
        (["manifold", "--descriptor", f"product:s:4,hp:{MODEL_MAX_WEIGHT}"],
         f"manifold dimension at most {_TOP_DIM} is supported, got {_TOP_DIM + 4}"),
        (["surgery", "--n", str(_N_CAP + 1), "--A", "1"],
         f"argument --n: at most {_N_CAP} is supported, got {_N_CAP + 1}"),
        (["pontryagin", "--n", "1200"], f"argument --n: at most {_N_CAP} is supported, got 1200"),
        (["solve-bundle", "--n", str(_N_CAP + 1)],
         f"argument --n: at most {_N_CAP} is supported, got {_N_CAP + 1}"),
        (["genus", "--series", "L", "--weight", _HUGE],
         "argument --weight: 5000-digit integer is too large"),
        (["manifold", "--descriptor", "hp:" + _HUGE], "manifold size with 5000 digits is too large"),
        (["surgery", "--n", "2", "--A=" + _HUGE], "argument --A: 5000-digit integer is too large"),
        (["surgery", "--n", "2", "--C=-1/" + _HUGE], "argument --C: 5000-digit integer is too large"),
        (["manifold", "--descriptor", "product:" + ",".join(["hp:2"] * 24)],
         f"product ring with at most 200 monomials is supported, got {3**24}"),
        (["manifold", "--descriptor", "product:hp:15,hp:13"],
         "product ring with at most 200 monomials is supported, got 224"),
        (["surgery", "--n", "2", "--lambda=1/9" + _WIDEST], "argument --lambda: 1001-digit integer is too large"),
        # each input parses, but sigma would carry ~4x their digits, past the
        # interpreter's limit on printing an integer
        *(([command, "--n", "2", "--A", "9" * 4000, "--lambda", "9" * 4000, *fmt],
           "argument --A: 4000-digit integer is too large")
          for command, fmt in [("surgery", []), ("surgery", ["--format", "json"]), ("pontryagin", [])]),
        (["genus", "--series", "L", "--weight", "9" + _WIDEST], "argument --weight: 1001-digit integer is too large"),
        (["surgery", "--n", "9" + _WIDEST], "argument --n: 1001-digit integer is too large"),
        (["manifold", "--descriptor", "hp:9" + _WIDEST], "manifold size with 1001 digits is too large"),
    ],
)
def test_oversized_inputs_are_refused_quickly(capsys, argv, message):
    start = time.perf_counter()
    status, out, err = _invoke(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == ""
    assert err == f"genuscalc: error: {message}\n"


def test_integer_arguments_are_capped_whatever_the_interpreter_allows():
    # with the interpreter's own limit off, int() would convert and the
    # refusal would echo all 100,000 digits
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "genuscalc", "surgery", "--n", "9" * 100_000],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "0"},
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "genuscalc: error: argument --n: 100000-digit integer is too large\n"
    assert len(proc.stderr.encode()) < 100


@pytest.mark.parametrize("flag", ["--A", "--B", "--C", "--lambda"])
def test_negative_fraction_as_separate_argument_names_the_equals_form(capsys, flag):
    status, out, err = _invoke(capsys, ["surgery", "--n", "2", flag, "-2/7"])
    assert status == 2 and out == ""
    assert err == (
        f"genuscalc: error: argument {flag}: expected one argument "
        f"(write a negative value as {flag}=-num/den)\n"
    )
    status, out, err = _invoke(capsys, ["surgery", "--n", "2", f"{flag}=-2/7"])
    assert status == 0 and err == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_leading_zeros_in_a_denominator_are_accepted(capsys, fmt):
    plain = _invoke(capsys, ["surgery", "--n", "2", "--A=1/2", "--format", fmt])
    assert plain[0] == 0
    assert _invoke(capsys, ["surgery", "--n", "2", "--A=1/02", "--format", fmt]) == plain
    status, out, err = _invoke(capsys, ["surgery", "--n", "2", "--A=1/00", "--format", fmt])
    assert status == 2 and out == ""
    assert err == "genuscalc: error: argument --A: malformed rational '1/00', expected num or num/den\n"


def test_runtime_errors_exit_with_one_diagnostic_line(capsys, monkeypatch):
    def failing_self_check(*args, **kwargs):
        raise RuntimeError("self-check failed")

    monkeypatch.setattr("genuscalc.surgery.solve_bundle", failing_self_check)
    status, out, err = _invoke(capsys, ["solve-bundle", "--n", "2"])
    assert status == 2 and out == ""
    assert err == "genuscalc: error: self-check failed\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["manifold", "--descriptor", f"hp:{MODEL_MAX_WEIGHT}"],
        ["surgery", "--n", str(_N_CAP), "--A", "1", "--C", "1"],
        *([command, "--n", n, "--A", _WIDEST, "--C", _WIDEST, "--lambda", _WIDEST, "--format", fmt]
          + (["--B", _WIDEST] if n == "2" else [])
          for command in ("surgery", "pontryagin") for n in ("2", "46") for fmt in ("text", "json")),
    ],
)
def test_models_at_the_cap_run(capsys, argv):
    status, out, err = _invoke(capsys, argv)
    assert status == 0 and err == ""


def test_help_exits_zero(capsys):
    status, out, err = _invoke(capsys, ["--help"])
    assert status == 0
    assert "coeff" in out and "solve-bundle" in out


def test_version_prints_the_package_version(capsys):
    status, out, err = _invoke(capsys, ["--version"])
    assert status == 0 and err == ""
    assert out == f"genuscalc {genuscalc.__version__}\n"


def test_package_version_matches_pyproject():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.MULTILINE)
    assert match and match.group(1) == genuscalc.__version__ == "0.1.0"


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    # dataclasses pulls in inspect, ast, dis and tokenize; the CLI needs none
    # of them, and json only when it prints JSON.
    package_root = str(Path(genuscalc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import genuscalc.cli, sys; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "genuscalc", "genus", "--series", "L", "--weight", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "K_1 = p1/3\nK_2 = (7*p2 - p1^2)/45\n"
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv, buffered",
    [
        (["genus", "--series", "L", "--weight", "10"], True),
        (["genus", "--series", "L", "--weight", "10"], False),
        (["coeff", "--series", "L", "--weight", "1", "--format", "json"], True),
        (["coeff", "--series", "L", "--weight", "1", "--format", "json"], False),
        (["--help"], True),
        (["--help"], False),
        (["--version"], False),
    ],
)
def test_a_closed_stdout_exits_with_one_diagnostic_line(argv, buffered):
    # the read end is closed before the child starts, so its first write to
    # stdout, or its flush when buffered, meets a broken pipe
    package_root = str(Path(genuscalc.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = package_root
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "genuscalc", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "genuscalc: error: [Errno 32] Broken pipe\n"
