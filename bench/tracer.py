"""Per-layer spans recorded around calls into genuscalc, from outside the package.

`Tracer.install` wraps every public function defined in the layer modules and
a few `RingElement` and `Series` methods, and rebinds every module attribute
and dict entry in `genuscalc.*` that refers to a wrapped function: the modules
import names directly (`surgery` and `manifolds` bind `evaluate_genus`, the
CLI keeps `l_genus_table` in a dict), so patching only the defining module
would miss most calls.

Spans are aggregated as they close instead of being kept: a lib-sweep run
makes millions of ring multiplications.  For each group the tracer keeps the
call count, the busy time (outermost spans of the group only, so nested calls
are not counted twice) and the self time (span time minus the time of the
spans it caused).
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

LAYERS = ("series", "ring", "multseq", "manifolds", "surgery", "formatting", "rational")

METHODS = {
    ("ring", "RingElement"): ("__mul__", "inverse"),
    ("series", "Series"): ("__mul__", "__pow__", "inverse", "log", "exp"),
}

_GROUPS = {
    "multseq.genus_table": "multseq.table",
    "multseq.l_genus_table": "multseq.lookup",
    "multseq.ahat_genus_table": "multseq.lookup",
    "multseq.evaluate_genus": "multseq.eval",
    "multseq.pont_character": "multseq.character",
    "multseq.pont_classes_from_character": "multseq.character",
    "ring.RingElement.__mul__": "ring.mul",
    "ring.RingElement.inverse": "ring.inverse",
    "manifolds.signature": "manifolds.genus",
    "manifolds.a_hat_genus": "manifolds.genus",
}

# Per-layer metrics of a traced run: (name, unit, better).  BENCHMARK.json
# lists the same names; the `cli.*` values are measured by the caller.
PER_LAYER = [
    ("multseq.table_builds", "count", "lower"),
    ("multseq.table_busy_ms", "ms", "lower"),
    ("multseq.table_terms", "count", "lower"),
    ("multseq.table_lookups", "count", "lower"),
    ("multseq.table_cache_hit_ratio", "ratio", "higher"),
    ("multseq.eval_calls", "count", "lower"),
    ("multseq.eval_self_ms", "ms", "lower"),
    ("multseq.character_busy_ms", "ms", "lower"),
    ("ring.mul_calls", "count", "lower"),
    ("ring.mul_busy_ms", "ms", "lower"),
    ("ring.inverse_calls", "count", "lower"),
    ("ring.inverse_busy_ms", "ms", "lower"),
    ("ring.terms_max", "count", "lower"),
    ("ring.coeff_bits_max", "bits", "lower"),
    ("surgery.calls", "count", "lower"),
    ("surgery.self_ms", "ms", "lower"),
    ("surgery.ops", "count", "higher"),
    ("surgery.evals_per_op", "count", "lower"),
    ("manifolds.model_busy_ms", "ms", "lower"),
    ("manifolds.genus_self_ms", "ms", "lower"),
    ("series.calls", "count", "lower"),
    ("series.busy_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.run_ms", "ms", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("formatting.busy_ms", "ms", "lower"),
    ("formatting.output_bytes", "bytes", "lower"),
    ("rational.busy_ms", "ms", "lower"),
    ("trace.throughput_ops_s", "ops/s", "higher"),
]


def group_of(qualname: str) -> str:
    if qualname in _GROUPS:
        return _GROUPS[qualname]
    layer = qualname.split(".", 1)[0]
    return "manifolds.model" if layer == "manifolds" else layer


class Tracer:
    """Wraps genuscalc from the outside and aggregates its spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._open: Counter = Counter()
        self._stack: list[list] = []  # [start, seconds spent in child spans]
        self._patches: list[tuple] = []
        self._op_in_surgery = False

    # -- spans ------------------------------------------------------------

    def _span(self, group: str, fn, args, kwargs, after=None):
        if group == "surgery":
            self._op_in_surgery = True
        elif group == "multseq.eval" and self._open["surgery"]:
            self.counts["surgery_evals"] += 1
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[group] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._open[group] -= 1
            duration = end - frame[0]
            self.calls[group] += 1
            self.self_s[group] += duration - frame[1]
            if not self._open[group]:
                self.busy[group] += duration
            if self._stack:
                self._stack[-1][1] += duration
        if after is not None:
            started = perf_counter()
            after(result)
            if self._stack:  # keep the bookkeeping out of the caller's self time
                self._stack[-1][1] += perf_counter() - started
        return result

    def _wrap(self, qualname: str, fn):
        group = group_of(qualname)
        tracer = self
        if group == "multseq.lookup" and hasattr(fn, "cache_info"):
            @wraps(fn)
            def lookup(*args, **kwargs):
                hits = fn.cache_info().hits
                result = tracer._span(group, fn, args, kwargs)
                tracer.counts["table_hits"] += fn.cache_info().hits - hits
                return result
            return lookup
        after = {
            "multseq.table": self._table_size,
            "ring.mul": self._ring_size,
            "ring.inverse": self._ring_size,
        }.get(group)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._span(group, fn, args, kwargs, after)
        return wrapper

    def _table_size(self, table) -> None:
        self.counts["table_terms"] += sum(len(p.terms) for p in table.polys)

    def _ring_size(self, element) -> None:
        terms = getattr(element, "terms", None)
        if terms is None:  # NotImplemented from a mixed-type operand
            return
        self.maxima["ring_terms"] = max(self.maxima["ring_terms"], len(terms))
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in terms.values()),
            default=0,
        )
        self.maxima["ring_bits"] = max(self.maxima["ring_bits"], bits)

    def begin_op(self) -> None:
        self._op_in_surgery = False

    def end_op(self) -> None:
        if self._op_in_surgery:
            self.counts["surgery_ops"] += 1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions and rebind every reference to them."""
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"genuscalc.{layer}")
            for name, obj in list(vars(module).items()):
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"genuscalc.{layer}"), cls_name)
            for method in methods:
                original = cls.__dict__[method]
                self._set(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "genuscalc" and not mod_name.startswith("genuscalc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._set(value, key, hit[1])

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def raw(self) -> dict:
        """Plain-data aggregate, to be merged across processes."""
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }


def merge(raws: list[dict]) -> dict:
    out: dict = {"calls": Counter(), "busy": Counter(), "self": Counter(), "counts": Counter(), "maxima": Counter()}
    for raw in raws:
        for key in ("calls", "busy", "self", "counts"):
            out[key].update(raw[key])
        for key, value in raw["maxima"].items():
            out["maxima"][key] = max(out["maxima"][key], value)
    return out


def layer_metrics(raw: dict) -> dict:
    """Named per-layer values from a merged aggregate (without the cli.* and trace.* ones)."""
    calls, busy, self_s = Counter(raw["calls"]), Counter(raw["busy"]), Counter(raw["self"])
    counts, maxima = Counter(raw["counts"]), Counter(raw["maxima"])
    lookups = calls["multseq.lookup"]
    return {
        "multseq.table_builds": calls["multseq.table"],
        "multseq.table_busy_ms": busy["multseq.table"] * 1e3,
        "multseq.table_terms": counts["table_terms"],
        "multseq.table_lookups": lookups,
        "multseq.table_cache_hit_ratio": counts["table_hits"] / lookups if lookups else 0.0,
        "multseq.eval_calls": calls["multseq.eval"],
        "multseq.eval_self_ms": self_s["multseq.eval"] * 1e3,
        "multseq.character_busy_ms": busy["multseq.character"] * 1e3,
        "ring.mul_calls": calls["ring.mul"],
        "ring.mul_busy_ms": busy["ring.mul"] * 1e3,
        "ring.inverse_calls": calls["ring.inverse"],
        "ring.inverse_busy_ms": busy["ring.inverse"] * 1e3,
        "ring.terms_max": maxima["ring_terms"],
        "ring.coeff_bits_max": maxima["ring_bits"],
        "surgery.calls": calls["surgery"],
        "surgery.self_ms": self_s["surgery"] * 1e3,
        "surgery.ops": counts["surgery_ops"],
        "surgery.evals_per_op": counts["surgery_evals"] / counts["surgery_ops"] if counts["surgery_ops"] else 0.0,
        "manifolds.model_busy_ms": busy["manifolds.model"] * 1e3,
        "manifolds.genus_self_ms": self_s["manifolds.genus"] * 1e3,
        "series.calls": calls["series"],
        "series.busy_ms": busy["series"] * 1e3,
        "formatting.busy_ms": busy["formatting"] * 1e3,
        "rational.busy_ms": busy["rational"] * 1e3,
    }
