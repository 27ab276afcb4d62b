"""The genuscalc benchmark: three closed-loop workloads with one client each.

    python3 bench/run.py --workload cli-tables|cli-invariants|lib-sweep \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is `src/genuscalc` of the checkout
holding this file, used from source.  Standard library only.

Workloads (why each exists is in BENCHMARK.json):

- cli-tables: each operation is a fresh `python3 -m genuscalc genus` process.
- cli-invariants: each operation is a fresh CLI process running manifold,
  surgery, solve-bundle, pontryagin or coeff.
- lib-sweep: one process imports the package, warms up every model and table
  for n = 2..8, then calls the library in a loop.

A run measures for --seconds, and goes on until it has finished the
workload's prefix of operations (ops.PREFIX_OPS), over which the output
digest is taken.  Every output is checked against closed forms computed in
closed_forms.py without the package; an operation fails on a nonzero exit,
any stderr output, a per-operation timeout or a failed check.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
the operations run under the tracer (tracer.py) and the last line reports the
per-layer metrics instead, taken over set-up plus the prefix.  The line before
the last one is a full record (digest, environment, failures) that
compare.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

import closed_forms
import ops
import tracer
from worker import FAILURE_SAMPLES, LIB_OP_TIMEOUT_S, TRACE_MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = str(BENCH / "worker.py")

CLI_OP_TIMEOUT_S = 20.0
LIB_RUN_TIMEOUT_S = ops.LOOP_CAP_S + 40.0
CLI_SETUP_SAMPLES = 9
LIB_SETUP_SAMPLES = 3
# Traced CLI operations among the first few are run a second time untraced:
# the tracer must not change a byte of stdout.
UNTRACED_REPLAYS = 4

END_TO_END = [
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; refused unless at least ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < 10:
        raise ValueError(
            f"p{round(q * 100)} needs at least ten samples beyond it; "
            f"{len(ordered)} samples leave {beyond}"
        )
    return ordered[rank - 1]


def child_env() -> dict:
    """Children import the package from source and write no bytecode caches, so
    every CLI process pays the same cold import whatever the caller's setting."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class OpResult:
    __slots__ = ("latency", "stdout", "error", "trace")

    def __init__(self, latency: float, stdout: bytes, error: str | None, trace: dict | None = None):
        self.latency = latency
        self.stdout = stdout
        self.error = error
        self.trace = trace


def run_process(cmd: list[str], timeout: float) -> OpResult:
    """One operation in a fresh process.  Trace lines on stderr are split off."""
    started = perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, timeout=timeout, env=child_env(), cwd=ROOT,
            stdin=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return OpResult(perf_counter() - started, b"", f"timeout after {timeout} s")
    latency = perf_counter() - started
    trace, other = None, []
    for line in proc.stderr.decode(errors="replace").splitlines():
        if line.startswith(TRACE_MARKER):
            trace = json.loads(line[len(TRACE_MARKER):])
        else:
            other.append(line)
    error = None
    if proc.returncode:
        error = f"exit {proc.returncode}: {' | '.join(other)[:200]}"
    elif other:
        error = f"stderr: {' | '.join(other)[:200]}"
    return OpResult(latency, proc.stdout, error, trace)


def _format_of(argv: list[str]) -> tuple[str, tuple]:
    if argv[-2:] == ["--format", "json"]:
        return "json", tuple(argv[:-2])
    return "text", tuple(argv)


def check_cli_outputs(argvs: list[list[str]], results: list[OpResult]) -> list[str | None]:
    """Per-operation error (or None) after the closed-form and text/JSON checks."""
    errors = [r.error for r in results]
    seen: dict[tuple, dict] = {}
    for i, (argv, r) in enumerate(zip(argvs, results)):
        if errors[i]:
            continue
        fmt, key = _format_of(argv)
        try:
            out = closed_forms.normalize(argv[0], r.stdout.decode(), fmt)
            closed_forms.check_cli(list(key), out)
            if key in seen:
                prev = seen[key]
                for field in out.keys() & prev.keys():
                    closed_forms.expect_equal(out[field], prev[field], f"{field} in text vs JSON output")
            else:
                seen[key] = out
        except Exception as exc:  # malformed output of any kind is a failed check
            errors[i] = f"check: {type(exc).__name__}: {exc}"
    return errors


def run_cli(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    setup = []
    for _ in range(CLI_SETUP_SAMPLES):
        r = run_process([sys.executable, "-c", "import genuscalc.cli"], CLI_OP_TIMEOUT_S)
        if r.error:
            raise BenchError(f"cannot import genuscalc.cli from {SRC}: {r.error}")
        setup.append(r.latency)

    stream = ops.STREAMS[workload](seed)
    prefix = ops.PREFIX_OPS[workload]
    argvs, results = [], []
    started = perf_counter()
    while ops.should_continue(len(results), perf_counter() - started, seconds, prefix):
        argv = next(stream)
        if traced:
            cmd = [sys.executable, WORKER, "cli", *argv]
        else:
            cmd = [sys.executable, "-m", "genuscalc", *argv]
        argvs.append(argv)
        results.append(run_process(cmd, CLI_OP_TIMEOUT_S))
    wall = perf_counter() - started

    errors = check_cli_outputs(argvs, results)
    if traced:
        for i in range(min(UNTRACED_REPLAYS, len(results))):
            plain = run_process([sys.executable, "-m", "genuscalc", *argvs[i]], CLI_OP_TIMEOUT_S)
            if not errors[i] and plain.stdout != results[i].stdout:
                errors[i] = "traced stdout differs from untraced stdout"

    digest = hashlib.sha256()
    for r, e in zip(results[:prefix], errors[:prefix]):
        digest.update(r.stdout if e is None else f"failed: {e}\n".encode())
    failures = [f"op {i} {' '.join(a)}: {e}" for i, (a, e) in enumerate(zip(argvs, errors)) if e]
    out = {
        "latencies": [r.latency for r in results],
        "wall": wall,
        "setup": setup,
        "failed": len(failures),
        "failures": failures[:FAILURE_SAMPLES],
        "digest": digest.hexdigest(),
        "output_bytes": sum(len(r.stdout) for r in results[:prefix]),
    }
    if traced:
        head = [r for r in results[:prefix] if r.trace is not None]
        layers = tracer.layer_metrics(tracer.merge([r.trace["raw"] for r in head]))
        layers["cli.import_ms"] = sum(r.trace["import_ms"] for r in head)
        layers["cli.run_ms"] = sum(r.trace["run_ms"] for r in head)
        layers["cli.startup_ms"] = sum(r.latency * 1e3 - r.trace["run_ms"] for r in head)
        out["layers"] = layers
    return out


def _await_ready(proc: subprocess.Popen, timeout: float) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else b""
    if not line.startswith(b"ready "):
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"lib-sweep worker did not get ready: {err.decode(errors='replace')[-500:]}")
    return json.loads(line[len(b"ready "):])


def run_lib(seed: int, seconds: float, traced: bool) -> dict:
    base = [sys.executable, WORKER, "lib", "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(traced))]
    setup = []
    for sample in range(LIB_SETUP_SAMPLES):
        last = sample == LIB_SETUP_SAMPLES - 1
        started = perf_counter()
        proc = subprocess.Popen(
            base if last else base + ["--setup-only"], stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT,
        )
        try:
            ready = _await_ready(proc, LIB_RUN_TIMEOUT_S)
            setup.append(perf_counter() - started)
            stdout, stderr = proc.communicate(timeout=LIB_RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"lib-sweep worker ran past {LIB_RUN_TIMEOUT_S} s") from None
        if proc.returncode or stderr:
            raise BenchError(f"lib-sweep worker failed (exit {proc.returncode}): "
                             f"{stderr.decode(errors='replace')[-500:]}")
    result = json.loads(stdout.decode().splitlines()[-1])
    out = {
        "latencies": result["latencies"],
        "wall": result["wall"],
        "setup": setup,
        "failed": result["failed"],
        "failures": result["failures"],
        "digest": result["digest"],
        "output_bytes": result["output_bytes"],
    }
    if traced:
        if result["raw"] is None:
            raise BenchError("traced lib-sweep run ended before its prefix of operations")
        layers = tracer.layer_metrics(result["raw"])
        layers["cli.import_ms"] = result["import_ms"]
        layers["cli.run_ms"] = 0.0
        layers["cli.startup_ms"] = setup[-1] * 1e3 - ready["warmup_ms"]
        out["layers"] = layers
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "genuscalc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Run one workload; returns (record, last-line result)."""
    if not (SRC / "genuscalc" / "__init__.py").is_file():
        raise BenchError(f"no genuscalc package under {SRC}")
    if workload == "lib-sweep":
        out = run_lib(seed, seconds, traced)
    else:
        out = run_cli(workload, seed, seconds, traced)
    latencies = out["latencies"]
    attempted = len(latencies)
    failed = out["failed"]
    prefix = ops.PREFIX_OPS[workload]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "throughput_ops_s": attempted / out["wall"],
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "setup_s": statistics.median(out["setup"]),
        "peak_rss_mb": rss_kb / 1024,
        "success_rate": 1 - failed / attempted,
    }
    end_to_end = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if traced:
        layers = dict(out["layers"], **{
            "formatting.output_bytes": out["output_bytes"],
            "trace.throughput_ops_s": values["throughput_ops_s"],
        })
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics = end_to_end
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "attempted": attempted,
        "failed": failed,
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "failures": out["failures"],
        "digest": out["digest"],
        "digest_ops": prefix,
        "setup_samples_s": out["setup"],
        "op_timeout_s": LIB_OP_TIMEOUT_S if workload == "lib-sweep" else CLI_OP_TIMEOUT_S,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "end_to_end": end_to_end,
        "metrics": metrics,
    }
    result = {
        "correct": failed == 0 and attempted >= prefix,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
