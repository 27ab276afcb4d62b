"""The package namespace re-exports exactly the public names of its layers."""

import importlib

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
