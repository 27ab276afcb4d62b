"""The package namespace re-exports exactly the public names of its layers,
and no module keeps an unused import or an unreferenced private helper."""

import ast
import importlib
from pathlib import Path

import genuscalc

LAYERS = ("rational", "series", "ring", "multseq", "manifolds", "surgery")


def test_package_exports_the_union_of_the_layer_exports():
    layer_names = {}
    for layer in LAYERS:
        module = importlib.import_module(f"genuscalc.{layer}")
        for name in module.__all__:
            layer_names[name] = getattr(module, name)
    assert sorted(genuscalc.__all__) == sorted(layer_names)
    for name, obj in layer_names.items():
        assert getattr(genuscalc, name) is obj, name


def _module_trees():
    for path in sorted(Path(genuscalc.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _names_used(tree) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
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
    dead = []
    for filename, tree in _module_trees():
        used = _names_used(tree)
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and node.name not in used
            ):
                dead.append(f"{filename}: {node.name}")
    assert dead == []
