"""Paired benchmark runs of two checkouts, through their own ``perfbench/run.py``.

    python scripts/bench.py compare PARENT CHANGE
    python scripts/bench.py compare PARENT CHANGE --workloads insertion --pairs 10 --seconds 30

``compare`` runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` of each checkout, unchanged, in that checkout, for each
workload W and pair S = 1, 2, ...: the two runs of a pair share the seed,
and the side that runs first alternates from pair to pair (the parent
first in odd pairs).  Both trees lose their ``__pycache__`` directories
before the first run, and every run has ``PYTHONDONTWRITEBYTECODE=1``, so
each run compiles the sources alike.  For each workload and end-to-end
metric of the change's ``BENCHMARK.json`` it prints the parent's median
and interquartile range, the change's median, the pairs the change wins,
and ``worse`` where the change's median is worse than the parent's by
more than the metric's bound, else ``ok``.  A run whose checks fail, or
that fails an input, is reported on stderr, and the script then exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep", "descent", "insertion")


def schedule(pairs: int) -> list:
    """(seed, first side) for each pair: seeds 1.., parent first in odd pairs."""
    return [(seed, ("parent", "change")[(seed - 1) % 2]) for seed in range(1, pairs + 1)]


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last line, as JSON."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(command[1:])} exited with {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _number(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 10_000 else f"{value:.0f}"


def summary(metric: dict, parent: list, change: list) -> str:
    """One metric's line: parent median [IQR] -> change median, wins, verdict."""
    lower = metric["better"] == "lower"
    base, new = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (base, base, base)
    wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
    limit = base * (1 + metric["bound"]) if lower else base * (1 - metric["bound"])
    worse = new > limit if lower else new < limit
    return (f"  {metric['name']:<13} {_number(base):>8} [{_number(q1)}, {_number(q3)}] -> "
            f"{_number(new):>8} {metric['unit']:<4} wins {wins}/{len(parent)}  "
            f"{'worse' if worse else 'ok'}")


def compare(parent: Path, change: Path, workloads, pairs: int, seconds: float) -> int:
    trees = {"parent": parent, "change": change}
    for tree in trees.values():
        for cache in list(tree.rglob("__pycache__")):
            shutil.rmtree(cache)
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    failed = False
    for workload in workloads:
        values = {side: {m["name"]: [] for m in metrics} for side in trees}
        for seed, first in schedule(pairs):
            for side in sorted(trees, key=lambda side: side != first):
                result = run(trees[side], workload, seed, seconds)
                if not result["correct"] or result["failed"]:
                    print(f"{side} {workload} seed {seed}: correct {result['correct']}, "
                          f"{result['failed']} of {result['attempted']} inputs failed",
                          file=sys.stderr)
                    failed = True
                for m in metrics:
                    values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"{workload}: {pairs} pairs, parent median [IQR] -> change median")
        for m in metrics:
            print(summary(m, values["parent"][m["name"]], values["change"][m["name"]]), flush=True)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("compare", help="paired perfbench runs of two checkouts")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return compare(args.parent.resolve(), args.change.resolve(), args.workloads, args.pairs,
                   args.seconds)


if __name__ == "__main__":
    sys.exit(main())
