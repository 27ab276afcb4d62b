"""Child processes of the benchmark.

    python3 bench/worker.py cli <genuscalc argv...>
        One traced CLI invocation: installs the tracer, runs
        `genuscalc.cli.run(argv)` and appends one TRACE_MARKER line with the
        aggregate to stderr.  Stdout is exactly what the CLI prints.

    python3 bench/worker.py lib --seed N --seconds S --trace 0|1 [--setup-only]
        The lib-sweep process: imports genuscalc, warms up the models and
        tables for n = 2..8, prints one "ready" line, then runs the seeded
        closed loop and prints one JSON line with the results.

Both expect `src` of the checkout on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import sys
from fractions import Fraction
from time import perf_counter

import closed_forms
import ops
from tracer import Tracer

TRACE_MARKER = "#bench-trace "
LIB_OP_TIMEOUT_S = 10.0
FAILURE_SAMPLES = 5


def cli_main(argv: list[str]) -> int:
    tracer = Tracer()
    started = perf_counter()
    import genuscalc.cli

    import_ms = (perf_counter() - started) * 1e3
    tracer.install()
    tracer.begin_op()
    started = perf_counter()
    code = genuscalc.cli.run(argv)
    run_ms = (perf_counter() - started) * 1e3
    tracer.end_op()
    sys.stdout.flush()
    record = {"import_ms": import_ms, "run_ms": run_ms, "raw": tracer.raw()}
    print(TRACE_MARKER + json.dumps(record), file=sys.stderr)
    return code


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"no result within {LIB_OP_TIMEOUT_S} s")


class Library:
    """The genuscalc calls of one lib-sweep operation, looked up at call time
    so that the tracer's wrappers are used when installed."""

    def __init__(self):
        import genuscalc.manifolds
        import genuscalc.multseq
        import genuscalc.surgery

        self.manifolds = genuscalc.manifolds
        self.multseq = genuscalc.multseq
        self.surgery = genuscalc.surgery
        self.rings: dict = {}

    def run(self, op: tuple) -> tuple:
        kind = op[0]
        if kind == "surgery":
            _, n, A, B, C, lam = op
            s = self.surgery
            params = s.NormalInvariantParams(n, A=A, B=B, C=C, lam=lam)
            p1 = s.p1_cubed_total_space(params) if n == 2 else None
            return (s.surgery_obstruction(params), s.a_hat_total_space(params), p1)
        if kind == "manifold":
            _, which, k = op
            m = self.manifolds
            model = m.hp_model(k) if which == "hp" else m.product_model(m.sphere_model(4), m.hp_model(k))
            return (m.signature(model), m.a_hat_genus(model))
        _, n, coeffs = op
        total = self.rings[n].element({(0, 0): 1, **coeffs})
        return (self.multseq.pont_classes_from_character(self.multseq.pont_character(total, n + 1)),)

    def warm_up(self) -> None:
        """Build every model and table the timed operations need (n = 2..8)."""
        # Character round trips run in the rings of S^4 x HP^n, fetched once
        # so that those operations make no call into the surgery layer.
        self.rings = {n: self.surgery.ambient_model(n).presentation for n in range(1, 6)}
        for n in range(2, 9):
            self.run(("surgery", n, Fraction(1), Fraction(1) if n == 2 else Fraction(0), Fraction(1), Fraction(1)))
        for k in range(1, 9):
            self.run(("manifold", "hp", k))
            self.run(("manifold", "s4xhp", k))
        for n in range(1, 6):
            self.run(("character", n, {(1, 0): Fraction(1)}))


def check_lib(op: tuple, result: tuple) -> None:
    kind = op[0]
    cf = closed_forms
    if kind == "surgery":
        _, n, A, B, C, lam = op
        sigma, a_hat, p1 = result
        cf.expect_equal(8 * sigma, cf.eight_sigma(n, A, B, C, lam), f"8 sigma at n = {n}")
        cf.expect_equal(a_hat, cf.ahat_total_space(n, A, B, C, lam), f"total-space A-hat at n = {n}")
        cf.expect_equal(p1, cf.p1_cubed(A, lam) if n == 2 else None, "p1^3")
    elif kind == "manifold":
        _, which, k = op
        want = cf.sig_hp(k) if which == "hp" else Fraction(0)
        cf.expect_equal(result, (want, Fraction(0)), f"signature and A-hat of {which} {k}")
    else:
        _, n, coeffs = op
        want = {(0, 0): Fraction(1), **{e: c for e, c in coeffs.items() if c}}
        cf.expect_equal(result[0].terms, want, f"character round trip at n = {n}")


def lib_main(args) -> int:
    tracer = Tracer() if args.trace else None
    started = perf_counter()
    library = Library()
    import_ms = (perf_counter() - started) * 1e3
    if tracer:
        tracer.install()
    started = perf_counter()
    library.warm_up()
    warmup_ms = (perf_counter() - started) * 1e3
    print("ready " + json.dumps({"import_ms": import_ms, "warmup_ms": warmup_ms}), flush=True)
    if args.setup_only:
        return 0

    prefix = ops.PREFIX_OPS["lib-sweep"]
    stream = ops.lib_sweep(args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    done, latencies, results, prefix_raw = [], [], [], None
    loop_start = perf_counter()
    while ops.should_continue(len(done), perf_counter() - loop_start, args.seconds, prefix):
        op = next(stream)
        if tracer:
            tracer.begin_op()
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, LIB_OP_TIMEOUT_S)
        try:
            result, error = library.run(op), None
        except Exception as exc:  # any failure counts against error_rate
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(perf_counter() - t0)
        if tracer:
            tracer.end_op()
        done.append(op)
        results.append((result, error))
        if tracer and len(done) == prefix:
            prefix_raw = tracer.raw()
    wall = perf_counter() - loop_start

    failures, digest, output_bytes = [], hashlib.sha256(), 0
    for i, (op, (result, error)) in enumerate(zip(done, results)):
        if error is None:
            try:
                check_lib(op, result)
            except closed_forms.CheckError as exc:
                error = f"check: {exc}"
        if error is not None:
            failures.append(f"op {i} {op[:2]}: {error}")
        if i < prefix:
            text = (f"failed: {error}" if result is None else " ".join(str(v) for v in result)) + "\n"
            output_bytes += len(text.encode())
            digest.update(text.encode())
    print(json.dumps({
        "attempted": len(done),
        "failed": len(failures),
        "failures": failures[:FAILURE_SAMPLES],
        "latencies": latencies,
        "wall": wall,
        "digest": digest.hexdigest(),
        "output_bytes": output_bytes,
        "import_ms": import_ms,
        "raw": prefix_raw,
    }))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"]:
        return cli_main(argv[1:])
    parser = argparse.ArgumentParser(prog="worker.py lib")
    parser.add_argument("mode", choices=["lib"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    return lib_main(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
