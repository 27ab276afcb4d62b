"""Seeded operation streams for the three workloads.

Every stream is an endless generator driven by one `random.Random(seed)`, so
the same seed gives the same operations in the same order.  Operations are
drawn in shuffled blocks of fixed composition: the mix of sizes is then the
same in every run and every prefix of a run, and seed-to-seed differences in
the latency percentiles come from the machine, not from a lucky draw.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

# Operations per run over which the output digest and the traced per-layer
# metrics are taken.  Every run completes at least this many operations, so
# the digest of one seed is comparable between runs and between commits.
PREFIX_OPS = {"cli-tables": 100, "cli-invariants": 100, "lib-sweep": 1000}

# The closed loop never starts an operation after this many seconds, so a run
# ends well inside its 180 s limit even when the prefix is out of reach.
LOOP_CAP_S = 120.0


def should_continue(done: int, elapsed: float, seconds: float, prefix: int) -> bool:
    """Run for `seconds`, and on until the prefix is complete, but never past the cap."""
    return elapsed < LOOP_CAP_S and (elapsed < seconds or done < prefix)


def rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if q or not nonzero:
            return q


def _arg(name: str, q: Fraction) -> str:
    # "--A=-3/4": argparse would read a separate "-3/4" as an option.
    return f"--{name}={q}"


def _blocks(rng: random.Random, block: list) -> Iterator:
    while True:
        items = list(block)
        rng.shuffle(items)
        yield from items


def cli_tables(seed: int) -> Iterator[list[str]]:
    """`genus` tables at weights 7..10 of both series, each pair once per block of eight.

    A third of the operations ask for JSON.
    """
    rng = random.Random(seed)
    json_format = _blocks(rng, [True, False, False])
    for weight, series in _blocks(rng, [(w, s) for w in (7, 8, 9, 10) for s in ("L", "Ahat")]):
        argv = ["genus", "--series", series, "--weight", str(weight)]
        yield argv + (["--format", "json"] if next(json_format) else [])


def _params_args(rng: random.Random, n: int) -> list[str]:
    args = ["--n", str(n), _arg("A", rational(rng))]
    if n == 2:
        args.append(_arg("B", rational(rng)))
    return args + [_arg("C", rational(rng)), _arg("lambda", rational(rng, nonzero=True))]


class _Invariants:
    """Argument streams of cli-invariants.  Each size and descriptor kind comes
    from its own shuffled cycle, so every run of 100 operations holds nearly
    the same sizes, whatever the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.descriptor = _blocks(rng, ["hp", "s", "product"])
        self.k = {True: _blocks(rng, [1, 2, 3]), False: _blocks(rng, [4, 5, 6, 7, 8])}
        # The large sizes are weighted so that about 5% of all operations
        # (n = 8) are slower than the p90 rank and the next 15% (surgery at
        # n = 7, solve-bundle at n = 6) cost about the same: p90 then falls
        # inside a cluster of a dozen or more samples, so it does not jump
        # between clusters when the machine's speed drifts during a run.
        self.surgery_n = {True: _blocks(rng, [2, 3]), False: _blocks(rng, [4, 5, 6, 7, 7, 7, 7, 8])}
        self.solve_n = _blocks(rng, [4, 6, 6, 8])
        self.section = _blocks(rng, [True, False])
        self.pont_n = _blocks(rng, [2, 3])
        self.series = _blocks(rng, ["L", "Ahat"])
        self.weight = {True: _blocks(rng, [1, 2, 3, 4, 5, 6]), False: _blocks(rng, [7, 8, 9, 10, 11, 12])}

    def argv(self, kind: str, small: bool) -> list[str]:
        rng = self.rng
        if kind == "manifold":
            k, descriptor = next(self.k[small]), next(self.descriptor)
            atom = {"hp": f"hp:{k}", "s": f"s:{4 * k}", "product": f"product:s:4,hp:{k}"}[descriptor]
            return ["manifold", "--descriptor", atom]
        if kind == "surgery":
            return ["surgery"] + _params_args(rng, next(self.surgery_n[small]))
        if kind == "solve-bundle":
            if small:
                return ["solve-bundle", "--n", "2"] + (["--require-section"] if next(self.section) else [])
            return ["solve-bundle", "--n", str(next(self.solve_n))]
        if kind == "pontryagin":
            return ["pontryagin"] + _params_args(rng, next(self.pont_n) if small else 4)
        return ["coeff", "--series", next(self.series), "--weight", str(next(self.weight[small]))]


def cli_invariants(seed: int) -> Iterator[list[str]]:
    """Blocks of twenty: per kind, half README-sized (n <= 3) and half larger.

    Kinds per block: 4 manifold, 6 surgery, 4 solve-bundle, 4 pontryagin and
    2 coeff.  A third of the operations ask for JSON.
    """
    rng = random.Random(seed)
    streams = _Invariants(rng)
    block = [(kind, small) for kind, count in
             (("manifold", 2), ("surgery", 3), ("solve-bundle", 2), ("pontryagin", 2), ("coeff", 1))
             for small in (True, False) for _ in range(count)]
    json_format = _blocks(rng, [True, False, False])
    for kind, small in _blocks(rng, block):
        argv = streams.argv(kind, small)
        yield argv + (["--format", "json"] if next(json_format) else [])


def lib_sweep(seed: int) -> Iterator[tuple]:
    """A block of twenty: 12 surgery, 5 manifold-genus and 3 character round trips.

    Surgery takes n = 2..8, manifolds HP^k and S^4 x HP^k for k = 1..8, and
    character round trips n = 1..5, each size once per cycle.  (With n = 2..5
    the slowest tenth of the operations would end right at the edge between
    the character round trips at n = 5 and the surgery operations at n = 8,
    and p90 would jump between the two from run to run.)

    Operations are plain tuples so that this module needs no genuscalc:
    ("surgery", n, A, B, C, lam), ("manifold", "hp" | "s4xhp", k) and
    ("character", n, coefficients), where coefficients maps (u, z) exponents
    of the degree-4i monomials u z^{i-1} and z^i to a random rational.
    """
    rng = random.Random(seed)
    surgery_n = _blocks(rng, range(2, 9))
    manifold = _blocks(rng, [(which, k) for which in ("hp", "s4xhp") for k in range(1, 9)])
    character_n = _blocks(rng, range(1, 6))
    for kind in _blocks(rng, ["surgery"] * 12 + ["manifold"] * 5 + ["character"] * 3):
        if kind == "surgery":
            n = next(surgery_n)
            b = rational(rng) if n == 2 else Fraction(0)
            yield ("surgery", n, rational(rng), b, rational(rng), rational(rng, nonzero=True))
        elif kind == "manifold":
            yield ("manifold", *next(manifold))
        else:
            n = next(character_n)
            coeffs = {(1, i - 1): rational(rng) for i in range(1, n + 2)}
            coeffs.update({(0, i): rational(rng) for i in range(1, n + 1)})
            yield ("character", n, coeffs)


STREAMS = {"cli-tables": cli_tables, "cli-invariants": cli_invariants, "lib-sweep": lib_sweep}
