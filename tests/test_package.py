"""The package namespace re-exports exactly the public names of its layers
and loads them on first use, the `genus` and `coeff` commands load neither
`surgery` nor `manifolds`, no module keeps an unused import or an
unreferenced private helper, the benchmark's tracer and worker still find
what they wrap and call, and the first lib-sweep operations pass the
benchmark's own checks."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import genuscalc

LAYERS = ("rational", "series", "ring", "multseq", "manifolds", "surgery")
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench_module(filename: str, name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_exports_the_union_of_the_layer_exports():
    layer_names = {}
    for layer in LAYERS:
        module = importlib.import_module(f"genuscalc.{layer}")
        for name in module.__all__:
            layer_names[name] = getattr(module, name)
    assert sorted(genuscalc.__all__) == sorted(layer_names)
    for name, obj in layer_names.items():
        assert getattr(genuscalc, name) is obj, name


def _fresh_interpreter(code: str) -> str:
    """The last stdout line of `code` run in a new interpreter on this package."""
    package_root = str(Path(genuscalc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _public_names() -> list[str]:
    return sorted(
        name for layer in LAYERS for name in importlib.import_module(f"genuscalc.{layer}").__all__
    )


@pytest.mark.parametrize("command", ["genus", "coeff"])
def test_genus_and_coeff_load_neither_surgery_nor_manifolds(command):
    loaded = _fresh_interpreter(
        "import sys; from genuscalc import cli; "
        f"status = cli.run([{command!r}, '--series', 'L', '--weight', '3']); "
        "print(status, sorted({'genuscalc.surgery', 'genuscalc.manifolds'} & set(sys.modules)))"
    )
    assert loaded == "0 []"


def test_layers_load_on_first_use_of_a_package_attribute():
    names = _public_names()
    assert len(names) == 31
    listed = json.loads(_fresh_interpreter(
        "import json, sys, genuscalc; "
        "before = sorted(m for m in sys.modules if m.startswith('genuscalc.')); "
        "print(json.dumps([before, dir(genuscalc), genuscalc.__all__]))"
    ))
    assert listed[0] == []
    assert set(names) <= set(listed[1]) and listed[2] == names
    bound = json.loads(_fresh_interpreter(
        "import json; from genuscalc import *; "
        f"print(json.dumps(sorted(set({names!r}) & set(globals()))))"
    ))
    assert bound == names


def _module_trees():
    for path in sorted(Path(genuscalc.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _names_used(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _exported(tree) -> set[str]:
    """A layer's literal `__all__`; the package computes its own from the layers'."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.List)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used_or_exported():
    unused = []
    for filename, tree in _module_trees():
        used = _names_used(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{filename}: {bound}")
    assert unused == []


def test_every_private_module_level_helper_is_referenced():
    # a helper is referenced in its own module, or in one that imports it from there
    trees = dict(_module_trees())
    used = {filename: _names_used(tree) for filename, tree in trees.items()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported = {alias.name for alias in node.names}
                used[f"{node.module}.py"] |= imported & _names_used(tree)
    dead = []
    for filename, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and node.name not in used[filename]
            ):
                dead.append(f"{filename}: {node.name}")
    assert dead == []


# What `bench/worker.py` calls in each layer during a lib-sweep operation.
_WORKER_CALLS = {
    "surgery": ("NormalInvariantParams", "ambient_model", "a_hat_total_space",
                "p1_cubed_total_space", "surgery_obstruction"),
    "manifolds": ("a_hat_genus", "hp_model", "product_model", "signature", "sphere_model"),
    "multseq": ("pont_character", "pont_classes_from_character"),
}


def test_bench_tracer_installs_and_the_worker_calls_exist():
    tracer = _load_bench_module("tracer.py", "bench_tracer").Tracer()
    surgery = importlib.import_module("genuscalc.surgery")
    original = surgery.evaluate_genus
    tracer.install()
    try:
        assert surgery.evaluate_genus is not original
    finally:
        tracer.uninstall()
    assert surgery.evaluate_genus is original
    for layer, names in _WORKER_CALLS.items():
        module = importlib.import_module(f"genuscalc.{layer}")
        assert [name for name in names if not hasattr(module, name)] == [], layer


def test_lib_sweep_operations_pass_the_bench_checks(monkeypatch):
    # the worker imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(BENCH))
    worker = _load_bench_module("worker.py", "bench_worker")
    library = worker.Library()
    library.warm_up()
    seen = set()
    for op in islice(worker.ops.lib_sweep(1), 100):
        worker.check_lib(op, library.run(op))
        seen.add(op[:2] if op[0] != "character" else op[:1])
    assert seen == (
        {("surgery", n) for n in range(2, 9)}
        | {("manifold", "hp"), ("manifold", "s4xhp"), ("character",)}
    )
