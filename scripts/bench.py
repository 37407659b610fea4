"""Paired benchmark runs of two checkouts, through their own ``perfbench/run.py``,
and program-only layer timings of one checkout.

    python scripts/bench.py compare PARENT CHANGE
    python scripts/bench.py compare PARENT CHANGE --workloads insertion --pairs 10 --seconds 30
    python scripts/bench.py compare PARENT CHANGE --workloads descent --output .
    python scripts/bench.py layers [--tree CHECKOUT] [--sizes 4 8 16 32] [--output BENCH_layers.json]
    python scripts/bench.py layers --against PARENT [--tree CHANGE] [--pairs 5]

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
With ``--output DIR`` it also writes ``DIR/BENCH_<workload>.json`` for
each workload: the change's median and interquartile range of each
end-to-end metric, with the parent's median and the pairs the change
wins.  Each run, ``layers --against``'s too, starts in its own session,
so its process group is the run and its workers: when the script is
stopped by SIGTERM (exit status 143) or Ctrl-C, it kills that group
before it exits, and leaves nothing running.

``layers`` times the program alone, with no checker, in this process, on
the ``src/`` of a checkout (default: this one).  Each layer runs on fixed
seeded diagrams at each size n: ``random_diagram(n, 1000 * n + s)`` for s
< 20, and for the R3 family two R1 insertions into each, a positive kink
at gaps 0 and n.  A layer's figure is the best of ``--repeats`` passes
over its cases, in microseconds per call; a pass repeats the cases in
turn until it makes at least ``MIN_CALLS`` calls, so that a layer with
few cases, such as ``expand``'s R3, is not timed in passes of a few
dozen microseconds, which one burst of contention can all inflate:
- ``canonical_code``: ``codec._canonical_code`` on a diagram's rows, the
  key of every search state;
- ``canonical_code_barred``: the same scan given a bar that the rows'
  code is above, as the search scans a child it leaves out: each
  diagram's rows against the entries of the next lower code among the
  size's 20 diagrams (the least code's diagram is left out);
- ``r3_find``: the full sign-free R3 find, ``sites._r3_sites``;
- ``r3_family_r1_child``: ``moves._family_rows`` over the R3 family of a
  state an R1 insertion made, as the search walks it, the kink named as
  the chord its insertion added: the one triple next to the kink
  (``sites._kink_triple``), walked here whether or not it is movable.
``expand`` gives, for each move kind, ``apply_move`` against
``moves._edit``, the unchecked edit the search builds each expanded state
with, from the move's fields (an R3's arcs found by the edit, as in the
search): R1 and R2 insertions at gap n (R2: heads at gap n, tails at 0),
the deletion of the chords those insertions added, and every movable
triple's R3 on the diagrams (none, and no R3 figure, at a size with no
movable triple).
It adds one seed-1 round of the ``insertion`` and ``descent`` searches, on
their ``perfbench`` inputs and budgets parsed beforehand: the median
process CPU time of ``--repeats`` rounds after one warm-up round, and
the keys of one more round, counted by wrapping the search's
``_canonical_code`` and ``_canonical_code_entries`` and its queue's
``heappush``: the full keys of starts and of walks' children, the scans
given a bar and those of them that returned None, the deferred children
(in the round without insertions, whose budget never binds, a scan given
a bar is one against its count's least stored code, and its child is
deferred when the scan returns None or a code above that one), the
re-keyed children (the full keys a resolution makes), and the states
stored.  It prints each
figure and writes them all as JSON to ``--output``.

``layers --against PARENT`` times two checkouts' layers, the change's
(``--tree``) and the parent's, with this script, in ``--pairs`` pairs of
``layers`` subprocesses whose order alternates as ``compare``'s does.
It writes the change's medians over the pairs in the single-tree form,
and under ``against`` the parent's medians and, for each figure, the
change/parent ratio: [median, first quartile, third quartile] of the
pairs' ratios.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

WORKLOADS = ("sweep", "descent", "insertion")
MIN_CALLS = 20  # the fewest calls one timed pass of a layer makes


def schedule(pairs: int) -> list:
    """(seed, first side) for each pair: seeds 1.., parent first in odd pairs."""
    return [(seed, ("parent", "change")[(seed - 1) % 2]) for seed in range(1, pairs + 1)]


def _child(command: list, cwd: Path) -> str:
    """Run ``command`` in ``cwd``, in its own session, and return its
    stdout.  Stopped while it waits (an exception, SIGTERM's included), it
    kills the run's process group first."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(command, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):  # the group has ended already
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"{cwd}: {' '.join(command[1:])} exited with {proc.returncode}\n"
                         f"{stderr}")
    return stdout


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last line, as JSON."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    return json.loads(_child(command, tree).strip().splitlines()[-1])


def _stop(signum, frame):
    """SIGTERM's handler: exit as the signal would, through ``run``'s cleanup."""
    raise SystemExit(128 + signum)


def _number(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 10_000 else f"{value:.0f}"


def _quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _wins(metric: dict, parent: list, change: list) -> int:
    """The pairs whose change is better than its parent."""
    lower = metric["better"] == "lower"
    return sum(c < p if lower else c > p for p, c in zip(parent, change))


def summary(metric: dict, parent: list, change: list) -> str:
    """One metric's line: parent median [IQR] -> change median, wins, verdict."""
    lower = metric["better"] == "lower"
    base, new = statistics.median(parent), statistics.median(change)
    q1, _, q3 = _quartiles(parent)
    wins = _wins(metric, parent, change)
    limit = base * (1 + metric["bound"]) if lower else base * (1 - metric["bound"])
    worse = new > limit if lower else new < limit
    return (f"  {metric['name']:<13} {_number(base):>8} [{_number(q1)}, {_number(q3)}] -> "
            f"{_number(new):>8} {metric['unit']:<4} wins {wins}/{len(parent)}  "
            f"{'worse' if worse else 'ok'}")


def bench_file(workload: str, pairs: int, seconds: float, metrics: list, values: dict) -> dict:
    """A workload's ``BENCH_<workload>.json``: the change's median and
    interquartile range of each end-to-end metric, beside the parent's
    median and the pairs the change wins."""
    figures = {}
    for m in metrics:
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        q1, median, q3 = _quartiles(change)
        figures[m["name"]] = {"unit": m["unit"], "better": m["better"], "median": median,
                              "iqr": [q1, q3], "parent_median": statistics.median(parent),
                              "wins": _wins(m, parent, change)}
    return {"workload": workload, "pairs": pairs, "seconds": seconds, "python":
            platform.python_version(), "cpus": os.cpu_count(), "metrics": figures}


def compare(parent: Path, change: Path, workloads, pairs: int, seconds: float,
            output: Path | None = None) -> int:
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
        if output is not None:
            figures = bench_file(workload, pairs, seconds, metrics, values)
            (output / f"BENCH_{workload}.json").write_text(json.dumps(figures, indent=2) + "\n")
    return 1 if failed else 0


def _per_call_us(fn, cases, repeats: int) -> float:
    """The best of ``repeats`` passes of ``fn`` over ``cases``, repeated in
    turn to at least ``MIN_CALLS`` calls a pass, in microseconds per call."""
    cases = cases * -(-MIN_CALLS // len(cases))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for case in cases:
            fn(*case)
        best = min(best, time.perf_counter() - start)
    return best / len(cases) * 1e6


def _round_keys(search, starts: list, limits) -> dict:
    """The keys of one round of searches, counted by wrapping the search
    module's ``_canonical_code`` and ``_canonical_code_entries`` (its
    deferring walk's) and its queue's ``heappush`` (see ``layers``)."""
    from gaussdiag.codec import _TOKENS

    canonical_code, queue = search._canonical_code, search.heapq
    canonical_code_entries = getattr(search, "_canonical_code_entries", None)
    counts = dict.fromkeys(("full_keys", "barred", "barred_none", "deferred", "rekeyed",
                            "stored_states"), 0)
    # in a tree with the sixth rule, a search without insertions keys its
    # walks where no bar applies through _canonical_code_entries, so a full
    # key through _canonical_code after the start's is a resolution's
    rekeys = canonical_code_entries is not None and not limits.allow_insertions
    start = [False]  # whether the next key is a search's start

    def tally(bar, code, rekey):
        if bar is None:
            counts["rekeyed" if rekey else "full_keys"] += 1
            return
        counts["barred"] += 1
        counts["barred_none"] += code is None
        if not limits.allow_insertions:  # against the count's least stored code
            counts["deferred"] += code is None or code > " ".join(map(_TOKENS.__getitem__, bar))

    def key(chords, bases, bar=None):
        code = canonical_code(chords, bases, bar)
        tally(bar, code, rekeys and not start[0])
        start[0] = False
        return code

    def key_entries(chords, bases, bar):
        code, entries = canonical_code_entries(chords, bases, bar)
        tally(bar, code, False)
        return code, entries

    def push(heap, entry):
        counts["stored_states"] += entry[1]  # a state, not a family
        queue.heappush(heap, entry)

    search._canonical_code = key
    if canonical_code_entries is not None:  # a tree without the sixth rule has none
        search._canonical_code_entries = key_entries
    search.heapq = types.SimpleNamespace(heappush=push, heappop=queue.heappop)
    try:
        for d in starts:
            start[0] = True
            search.simplify(d, limits)
    finally:
        search._canonical_code, search.heapq = canonical_code, queue
        if canonical_code_entries is not None:
            search._canonical_code_entries = canonical_code_entries
    return counts


def layers(tree: Path, sizes, repeats: int) -> dict:
    """The ``layers`` figures of the gaussdiag in ``tree``, imported here."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import inputs
    from gaussdiag import (R1Delete, R1Insert, R2Delete, R2Insert, R3, SearchLimits, apply_move,
                           parse_gauss_code, r3_movable_triples, random_diagram, simplify)
    from gaussdiag.codec import _canonical_code, _code_entries
    from gaussdiag.diagram import _rows
    from gaussdiag.moves import _KINDS, _edit, _family_rows
    from gaussdiag.sites import _r3_sites

    figures = {name: {} for name in
               ("canonical_code", "canonical_code_barred", "r3_find", "r3_family_r1_child")}
    changes = {kind.move: kind.change for kind in _KINDS}
    expand = {kind.move.__name__: {"apply_move": {}, "edit": {}} for kind in _KINDS}
    for n in sizes:
        diagrams = [random_diagram(n, 1000 * n + s) for s in range(20)]
        children = []
        for d in diagrams:
            for gap in (0, n):
                child = apply_move(d, R1Insert(gap, 1, True))
                children.append((child, 0, tuple(set(child.signs) - set(d.signs))))
        rows = [_rows(d.endpoints, d.signs) for d in diagrams]
        figures["canonical_code"][n] = _per_call_us(_canonical_code, rows, repeats)
        codes = sorted(_canonical_code(*row) for row in rows)
        barred = [(*row, _code_entries(codes[codes.index(_canonical_code(*row)) - 1]))
                  for row in rows if _canonical_code(*row) != codes[0]]
        figures["canonical_code_barred"][n] = _per_call_us(_canonical_code, barred, repeats)
        figures["r3_find"][n] = _per_call_us(_r3_sites, [(d,) for d in diagrams], repeats)
        figures["r3_family_r1_child"][n] = _per_call_us(
            lambda *walk: list(_family_rows(*walk)), children, repeats)
        moves = {kind.move: [] for kind in _KINDS}  # (diagram, move) cases of each kind
        for d in diagrams:
            for insertion, deletion in ((R1Insert(n, 1, True), R1Delete),
                                        (R2Insert(n, 0, 1, True), R2Delete)):
                child = apply_move(d, insertion)
                added = sorted(set(child.signs) - set(d.signs))
                moves[type(insertion)].append((d, insertion))
                moves[deletion].append((child, deletion(added[0] if deletion is R1Delete else added)))
            moves[R3] += [(d, R3(t)) for t in r3_movable_triples(d)]
        for kind, cases in moves.items():
            if not cases:  # no movable triple below three chords
                continue
            edits = [(d, changes[kind], move._values()) for d, move in cases]
            expand[kind.__name__]["apply_move"][n] = _per_call_us(apply_move, cases, repeats)
            expand[kind.__name__]["edit"][n] = _per_call_us(_edit, edits, repeats)
    rounds, keys = {}, {}
    search = importlib.import_module("gaussdiag.simplify")
    for name, limits in (("insertion", SearchLimits(60, allow_insertions=True)),
                         ("descent", SearchLimits(20_000))):
        starts = [parse_gauss_code(code) for _, code in getattr(inputs, f"{name}_inputs")(1)]
        times = []
        for _ in range(repeats + 1):  # the first round warms up
            start = time.process_time()
            for d in starts:
                simplify(d, limits)
            times.append(time.process_time() - start)
        rounds[name] = statistics.median(times[1:])
        keys[name] = _round_keys(search, starts, limits)
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeats": repeats,
        "layers_us_per_call": {name: {str(n): round(us, 3) for n, us in by_size.items()}
                               for name, by_size in figures.items()},
        "expand_us_per_call": {kind: {path: {str(n): round(us, 3) for n, us in by_size.items()}
                                      for path, by_size in paths.items()}
                               for kind, paths in expand.items()},
        "seed_1_round_cpu_s": {name: round(s, 5) for name, s in rounds.items()},
        "seed_1_round_keys": keys,
    }


FIXED = ("python", "cpus", "repeats")  # the fields of a layers file that are not figures


def _figures(result: dict, path: tuple = ()):
    """(path, value) for each figure of a layers result, nested keys in order."""
    for name, value in result.items():
        if isinstance(value, dict):
            yield from _figures(value, (*path, name))
        elif path or name not in FIXED:
            yield (*path, name), value


def _nest(pairs) -> dict:
    """The nested dict whose ``_figures`` are these (path, value) pairs."""
    nested = {}
    for path, value in pairs:
        node = nested
        for name in path[:-1]:
            node = node.setdefault(name, {})
        node[path[-1]] = value
    return nested


def _median(values: list):
    """The median, an int when the values are ints and it is one (a count)."""
    median = statistics.median(values)
    return int(median) if all(type(v) is int for v in values) and median == int(median) else median


def layers_against(parent: Path, change: Path, sizes, repeats: int, pairs: int) -> dict:
    """The change's layers against its parent's: ``pairs`` pairs of
    ``layers`` subprocesses, each run by this script on one tree, in the
    order ``schedule`` gives.  The change's medians in the single-tree
    form, with the parent's medians and each figure's change/parent ratio
    under ``against``: [median, first quartile, third quartile] of the
    pairs' ratios, for each figure the parent has and is not 0."""
    trees = {"parent": parent, "change": change}
    runs = {side: [] for side in trees}
    with tempfile.TemporaryDirectory() as scratch:
        output = Path(scratch) / "layers.json"
        for _, first in schedule(pairs):
            for side in sorted(trees, key=lambda side: side != first):
                _child([sys.executable, str(Path(__file__).resolve()), "layers",
                        "--tree", str(trees[side]), "--sizes", *map(str, sizes),
                        "--repeats", str(repeats), "--output", str(output)], trees[side])
                runs[side].append(json.loads(output.read_text()))
    figures = {side: [dict(_figures(result)) for result in results]
               for side, results in runs.items()}
    medians = {side: {path: _median([run[path] for run in values]) for path in values[0]}
               for side, values in figures.items()}
    ratios = []
    for path in medians["change"]:
        pair_ratios = [change[path] / parent[path]
                       for parent, change in zip(figures["parent"], figures["change"])
                       if parent.get(path)]  # a figure the parent has and is not 0
        if pair_ratios:
            q1, median, q3 = _quartiles(pair_ratios)
            ratios.append((path, [round(median, 4), round(q1, 4), round(q3, 4)]))
    result = {name: runs["change"][0][name] for name in FIXED}
    result.update(_nest(medians["change"].items()))
    result["against"] = {"pairs": pairs, "parent": _nest(medians["parent"].items()),
                         "ratio": _nest(ratios)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("compare", help="paired perfbench runs of two checkouts")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--output", type=Path, help="write BENCH_<workload>.json files here")
    p = sub.add_parser("layers", help="program-only layer timings of one checkout")
    p.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1])
    p.add_argument("--sizes", nargs="+", type=int, default=[4, 8, 16, 32])
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--output", type=Path, default=Path("BENCH_layers.json"))
    p.add_argument("--against", type=Path, help="a parent checkout to time in alternation")
    p.add_argument("--pairs", type=int, default=5, help="pairs of runs with --against")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    signal.signal(signal.SIGTERM, _stop)
    if args.command == "compare":
        if args.output is not None and not args.output.is_dir():
            parser.error(f"--output {args.output} is not a directory")
        return compare(args.parent.resolve(), args.change.resolve(), args.workloads, args.pairs,
                       args.seconds, args.output)
    if args.repeats < 1 or min(args.sizes) < 1:
        parser.error("--repeats and each of --sizes must be at least 1")
    if args.against is None:
        result = layers(args.tree.resolve(), args.sizes, args.repeats)
    else:
        result = layers_against(args.against.resolve(), args.tree.resolve(), args.sizes,
                                args.repeats, args.pairs)
    for name, by_size in result["layers_us_per_call"].items():
        print(f"{name:<19} " + "  ".join(f"n={n} {us:.4g} us" for n, us in by_size.items()))
    for kind, paths in result["expand_us_per_call"].items():
        for path, by_size in paths.items():
            print(f"expand {kind:<8} {path:<10} "
                  + "  ".join(f"n={n} {us:.4g} us" for n, us in by_size.items()))
    for name, seconds in result["seed_1_round_cpu_s"].items():
        keys = ", ".join(f"{key} {count}" for key, count in result["seed_1_round_keys"][name].items())
        print(f"{name:<19} seed-1 round {seconds:.4g} s CPU; {keys}")
    if args.against is not None:
        for path, (median, q1, q3) in _figures(result["against"]["ratio"]):
            print(f"{'/'.join(path):<48} change/parent {median:.4g} [{q1:.4g}, {q3:.4g}]")
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
