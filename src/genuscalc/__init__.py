"""Exact rational calculus of characteristic classes.

Multiplicative sequences for the signature and A-hat genera, truncated
cohomology rings of spheres and quaternionic projective spaces, the rational
Pontryagin character and its inverse, and the surgery obstruction pipeline
for normal invariants of bundles over S^4 x HP^n.  Every value is a
`fractions.Fraction`; nothing is approximated.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name is listed once, in its layer's `__all__`.  The layers load
# on first use of a package attribute, so a CLI call compiles only the layers
# its subcommand needs.
_LAYERS = ("manifolds", "multseq", "rational", "ring", "series", "surgery")


def _load_layers() -> None:
    """Bind every layer's public names here; `__all__` is their sorted union."""
    names = []
    for layer in _LAYERS:
        module = import_module(f".{layer}", __name__)
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = sorted(names)


def __getattr__(name: str):
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name != "__all__" and name.isidentifier():
        try:  # a module of the package, as in `from genuscalc import cli`
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    _load_layers()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load_layers()
    return sorted(globals())
