"""The package namespace re-exports exactly the public names of its layers
and loads them on first use, the `genus` and `coeff` commands load neither
`surgery` nor `manifolds`, no module keeps an unused import or an
unreferenced private helper or unbounded size, every public member of an
exported class is read in src or shown in the README, every public entry
that takes a size refuses a negative one and a fraction by the one rule and
takes any `__index__` integer, every public callable given a hostile value
in place of any one argument returns or raises `ValueError` (bar the two
`lru_cache` builders given a list) and a value of the wrong kind is refused
by name, the benchmark's tracer and worker still find what they wrap and
call, and the first lib-sweep operations pass the benchmark's own checks."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

import genuscalc
from oracles import generator

LAYERS = ("rational", "series", "ring", "multseq", "manifolds", "surgery")
BENCH = Path(__file__).resolve().parent.parent / "bench"
README = BENCH.parent / "README.md"


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


def _attributes_read(tree) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


# Read nowhere, and kept only because `bench/tracer.py` wraps it.
_UNREAD_BY_DESIGN = {"Series.exp"}


def test_every_public_member_is_read_in_src_or_shown_in_the_readme():
    # a public method, property or slot field of an exported class is read in
    # src (the CLI included) or in a README code example, so none lacks a path
    read = set().union(*(_attributes_read(tree) for _, tree in _module_trees()))
    for example in re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL):
        read |= _attributes_read(ast.parse(example))
    unread = {
        f"{name}.{member}"
        for name in genuscalc.__all__
        if isinstance(cls := getattr(genuscalc, name), type)
        for member in vars(cls)
        if not member.startswith("_") and member not in read
    }
    assert unread == _UNREAD_BY_DESIGN


def test_every_size_passes_a_lower_bound():
    # so no range check is written by hand beside the one in `rational._size`
    calls = [
        (filename, node)
        for filename, tree in _module_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_size"
    ]
    assert calls
    unbounded = [
        f"{filename}:{node.lineno}"
        for filename, node in calls
        if len(node.args) < 3 and not any(k.arg == "low" for k in node.keywords)
    ]
    assert unbounded == []


def _s4_hp2():
    return genuscalc.ambient_model(2).presentation


def _z():
    return generator(genuscalc.RingPresentation([("z", 4, 3)], 8), "z")


# Every public entry that takes a size (an order, weight, index, degree,
# exponent or dimension), each called with that size alone varied.
_SIZED = {
    "hp_model": lambda n: genuscalc.hp_model(n),
    "sphere_model": lambda n: genuscalc.sphere_model(n),
    "ambient_model": lambda n: genuscalc.ambient_model(n),
    "l_genus_series": lambda n: genuscalc.l_genus_series(n),
    "ahat_genus_series": lambda n: genuscalc.ahat_genus_series(n),
    "l_genus_table": lambda n: genuscalc.l_genus_table(n),
    "ahat_genus_table": lambda n: genuscalc.ahat_genus_table(n),
    "Series order": lambda n: genuscalc.Series([1], n),
    "pont_character": lambda n: genuscalc.pont_character(genuscalc.hp_model(2).tangent_pontryagin, n),
    "GenusTable.leading_coefficient": lambda n: genuscalc.l_genus_table(4).leading_coefficient(n),
    "RingElement.homogeneous_part": lambda n: _z().homogeneous_part(n),
    "RingElement **": lambda n: _z() ** n,
    "Series **": lambda n: genuscalc.Series([1, 1], 3) ** n,
    "RingPresentation degree": lambda n: genuscalc.RingPresentation([("z", n, 3)], 8),
    "RingPresentation nilpotency": lambda n: genuscalc.RingPresentation([("z", 4, n)], 8),
    "RingPresentation top degree": lambda n: genuscalc.RingPresentation([("z", 4, 3)], n),
    "NormalInvariantParams": lambda n: genuscalc.NormalInvariantParams(n),
    "solve_bundle": lambda n: genuscalc.solve_bundle(n),
}


# The two shapes of an out-of-range size, from `rational._size`.
_OUT_OF_RANGE = re.compile(r".+ must be (>= \d+|in \d+\.\.\d+), got -1")


@pytest.mark.parametrize("size", [-1, 2.5])
@pytest.mark.parametrize("entry", list(_SIZED))
def test_every_size_refuses_a_negative_and_a_fraction(entry, size):
    with pytest.raises(ValueError, match=re.escape(str(size))) as refused:
        _SIZED[entry](size)
    if size == -1:
        assert _OUT_OF_RANGE.fullmatch(str(refused.value))


class _Index:
    """An integer that is no int: it converts only through `__index__`."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


@pytest.mark.parametrize("entry", list(_SIZED))
def test_every_size_takes_an_index_integer(entry):
    # 4 is a valid size of every entry
    assert _SIZED[entry](_Index(4)) == _SIZED[entry](4)


def _valid_arguments() -> dict:
    """Valid positional arguments of every public callable: each argument
    without a default."""
    hp2 = genuscalc.hp_model(2)
    tangent = hp2.tangent_pontryagin
    params = genuscalc.NormalInvariantParams(2, A=1)
    return {
        "BundleSolution": (params, Fraction(0), Fraction(1), None, ()),
        "GenusTable": ([0, 1],),
        "ManifoldModel": ("x", tangent),
        "NormalInvariantParams": (2,),
        "RingElement": (genuscalc.RingPresentation([("z", 4, 3)], 8), {}),
        "RingPresentation": ([("z", 4, 3)], 8),
        "Series": ([1, 1],),
        "a_hat_genus": (hp2,),
        "a_hat_total_space": (params,),
        "ahat_genus_series": (2,),
        "ahat_genus_table": (2,),
        "ambient_model": (2,),
        "evaluate_genus": (genuscalc.l_genus_table(2), tangent),
        "factored_str": (tangent,),
        "format_rational": (Fraction(1, 2),),
        "genus_table": (genuscalc.l_genus_series(2),),
        "hp_model": (2,),
        "l_genus_series": (2,),
        "l_genus_table": (2,),
        "p1_cubed_total_space": (params,),
        "parse_descriptor": ("hp:2",),
        "parse_rational": ("1/2",),
        "partition_terms": (tangent,),
        "pont_character": (tangent, 2),
        "pont_classes_from_character": ([tangent.homogeneous_part(4)],),
        "product_model": (hp2, hp2),
        "signature": (hp2,),
        "solve_bundle": (2,),
        "sphere_model": (4,),
        "surgery_obstruction": (params,),
        "xi_total_class": (params,),
    }


# Given in place of one argument at a time: no value, numbers of every kind,
# text, sequences and an object of no kind at all.
_HOSTILE = [None, 5, -1, 2.5, "x", Fraction(1, 2), [], [1], object()]


def test_every_public_callable_has_valid_arguments_listed():
    valid = _valid_arguments()
    assert sorted(valid) == _public_names()
    for name, args in valid.items():
        parameters = inspect.signature(getattr(genuscalc, name)).parameters.values()
        assert len(args) >= sum(p.default is p.empty for p in parameters), name
        getattr(genuscalc, name)(*args)


@pytest.mark.parametrize("name", _public_names())
def test_every_public_callable_returns_or_raises_value_error(name):
    # the library's input contract, as `test_cli_fuzz.py` is the CLI's
    entry, args = getattr(genuscalc, name), _valid_arguments()[name]
    leaks = []
    for i in range(len(args)):
        for bad in _HOSTILE:
            try:
                entry(*args[:i], bad, *args[i + 1:])
            except ValueError:
                pass
            except Exception as exc:
                leaks.append((i, bad, type(exc).__name__))
    assert leaks == []


_PARAMS_EXPECTED = "expected normal invariant parameters, got "


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: genuscalc.xi_total_class(5), _PARAMS_EXPECTED + "5"),
        (lambda: genuscalc.surgery_obstruction(None), _PARAMS_EXPECTED + "None"),
        (lambda: genuscalc.a_hat_total_space("x"), _PARAMS_EXPECTED + "'x'"),
        (lambda: genuscalc.p1_cubed_total_space([]), _PARAMS_EXPECTED + "[]"),
        (lambda: genuscalc.evaluate_genus(5, genuscalc.hp_model(1).tangent_pontryagin),
         "expected a genus table, got 5"),
        (lambda: genuscalc.genus_table([1]), "expected a series, got [1]"),
        (lambda: genuscalc.parse_rational(5), "expected a string, got 5"),
        (lambda: genuscalc.parse_descriptor(None), "expected a string, got None"),
        (lambda: genuscalc.RingPresentation(5, 4), "expected (name, degree, nilpotency) triples, got 5"),
        (lambda: genuscalc.RingPresentation([1], 4), "expected (name, degree, nilpotency) triples, got [1]"),
        (lambda: genuscalc.RingPresentation("x", 4), "expected (name, degree, nilpotency) triples, got 'x'"),
        (lambda: genuscalc.RingPresentation([("z", 4)], 4),
         "expected (name, degree, nilpotency) triples, got [('z', 4)]"),
        (lambda: genuscalc.RingPresentation([("z", 4, 2, 9)], 4),
         "expected (name, degree, nilpotency) triples, got [('z', 4, 2, 9)]"),
        (lambda: genuscalc.RingPresentation({("z", 4, 3)}, 12),
         "expected (name, degree, nilpotency) triples, got {('z', 4, 3)}"),
        (lambda: genuscalc.RingPresentation({("z", 4, 3): 1}, 12),
         "expected (name, degree, nilpotency) triples, got {('z', 4, 3): 1}"),
        (lambda: genuscalc.RingPresentation([(5, 4, 2)], 4), "expected a string, got 5"),
        (lambda: genuscalc.ManifoldModel(None, genuscalc.hp_model(1).tangent_pontryagin),
         "expected a string, got None"),
        (lambda: genuscalc.RingElement(5, {}), "expected a ring presentation, got 5"),
        (lambda: genuscalc.RingElement(SimpleNamespace(ngens=0, nilpotencies=(), degrees=(), top_degree=0), {}),
         "expected a ring presentation, got namespace(ngens=0, nilpotencies=(), degrees=(), top_degree=0)"),
        (lambda: genuscalc.hp_model(1).presentation.element(5),
         "expected a mapping of exponent vectors to scalars, got 5"),
        (lambda: genuscalc.pont_classes_from_character(5), "expected a sequence of ring elements, got 5"),
        (lambda: genuscalc.pont_classes_from_character({_z(): 1}),
         "expected a sequence of ring elements, got {<RingElement z>: 1}"),
        (lambda: genuscalc.factored_str(genuscalc.ambient_model(2).tangent_pontryagin),
         "expected a polynomial in p_1..p_N with |p_i| = 4i, got <RingElement 1 + 2*z + 7*z^2>"),
        (lambda: _s4_hp2().element({frozenset({1, 0}): 3}),
         "exponent vector must be a sequence of integers, got frozenset({0, 1})"),
        (lambda: _s4_hp2().element({b"\x01\x00": 1}),
         "exponent vector must be a sequence of integers, got b'\\x01\\x00'"),
        (lambda: genuscalc.RingElement(_s4_hp2(), {((1, 0), 1), ((1, 0), 2)}),
         "expected a mapping of exponent vectors to scalars, got {((1, 0), 1), ((1, 0), 2)}"),
        (lambda: genuscalc.RingElement(_s4_hp2(), [((1, 0), 1), ((1, 0), 2)]),
         "expected a mapping of exponent vectors to scalars, got [((1, 0), 1), ((1, 0), 2)]"),
        (lambda: genuscalc.ambient_model(2).tangent_pontryagin.coefficient({1: 0, 0: 0}),
         "exponent vector must be a sequence of integers, got {1: 0, 0: 0}"),
        (lambda: genuscalc.solve_bundle(2, "False"), "expected a bool for require_section, got 'False'"),
    ],
    ids=[
        "xi_total_class", "surgery_obstruction", "a_hat_total_space", "p1_cubed_total_space",
        "evaluate_genus", "genus_table", "parse_rational", "parse_descriptor", "RingPresentation 5",
        "RingPresentation [1]", "RingPresentation 'x'", "RingPresentation pair",
        "RingPresentation quadruple", "RingPresentation set", "RingPresentation mapping",
        "RingPresentation name", "ManifoldModel name", "RingElement presentation",
        "RingElement look-alike", "RingElement terms", "pont_classes_from_character",
        "pont_classes_from_character mapping", "factored_str ring", "exponent vector set",
        "exponent vector bytes", "RingElement set of pairs", "RingElement list of pairs",
        "coefficient mapping", "solve_bundle require_section",
    ],
)
def test_a_value_of_the_wrong_kind_is_refused_by_name(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


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
