"""Compare saved benchmark runs of two commits.

    python3 bench/run.py --workload lib-sweep --seed 7 --seconds 30 --trace 0 > base.txt
    ... (append more runs to the same file, then the same runs on the other commit)
    python3 bench/compare.py base.txt new.txt

For each (workload, seed, trace) in both files it prints whether the output
digests agree and how each metric moved.  Any digest mismatch is a changed
output byte and makes the exit status 1.  Where a file holds a traced and an
untraced run of the same workload and seed, it also prints the tracing
overhead (the difference between the two runs' throughput) and checks that
tracing left the output digest unchanged.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    records = {}
    with open(path) as f:
        for line in f:
            if line.startswith('{"record"'):
                rec = json.loads(line)["record"]
                records[(rec["workload"], rec["seed"], rec["trace"])] = rec
    return records


def overheads(name: str, records: dict) -> int:
    """Print tracing overhead per traced/untraced pair; return digest mismatches."""
    mismatches = 0
    for (workload, seed, trace), rec in sorted(records.items()):
        traced = records.get((workload, seed, 1))
        if trace or traced is None:
            continue
        plain = rec["end_to_end"]["throughput_ops_s"]["value"]
        slow = traced["metrics"]["trace.throughput_ops_s"]["value"]
        same = rec["digest"] == traced["digest"]
        mismatches += not same
        print(f"{name} {workload} seed {seed}: tracing overhead {plain / slow - 1:+.1%} "
              f"({plain:.4g} ops/s untraced, {slow:.4g} ops/s traced); "
              f"digest {'same' if same else 'MISMATCH'} traced vs untraced")
    return mismatches


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    mismatches = 0
    for key in sorted(base.keys() & new.keys()):
        a, b = base[key], new[key]
        same = a["digest"] == b["digest"] and a["digest_ops"] == b["digest_ops"]
        mismatches += not same
        print(f"{key[0]} seed {key[1]} trace {key[2]}: digest {'same' if same else 'MISMATCH'}"
              f"; failed {a['failed']}/{a['attempted']} -> {b['failed']}/{b['attempted']}")
        for metric, old in a["metrics"].items():
            value = b["metrics"].get(metric, {}).get("value")
            if value is None:
                print(f"  {metric}: missing in {argv[1]}")
            elif old["value"]:
                print(f"  {metric}: {old['value']:.6g} -> {value:.6g} {old['unit']} "
                      f"({value / old['value'] - 1:+.1%})")
            else:
                print(f"  {metric}: {old['value']:.6g} -> {value:.6g} {old['unit']}")
    for name, records in ((argv[0], base), (argv[1], new)):
        mismatches += overheads(name, records)
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
