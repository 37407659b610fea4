"""One workload in one single-threaded process; prints one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload sweep --seed 1 \
        --seconds 30 --mode run

Modes:
  setup  import gaussdiag and prepare the inputs, report when that ended
         and the speed of calibration slices run right after;
  run    set up, then time as many whole rounds of the workload as fill
         --seconds at its nominal round time (at least three);
  trace  set up, time whole rounds untraced for a third of --seconds, then
         as many traced, fit the growth slopes, and write the spans to
         perfbench/out/<workload>-seed<seed>-trace1.spans.json.

``run.py`` starts this process and turns its report into the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import reference as ref
from inputs import random_tokens

OUT = Path(__file__).resolve().parent / "out"
MIN_ROUNDS = 3


def round_count(workload, seconds, least):
    """The number of whole rounds that fills ``seconds`` at the workload's
    nominal round time.  It depends on ``--seconds`` alone, never on how
    fast the rounds run, so both commits of a comparison time the same
    rounds."""
    return max(least, int(seconds / workload.nominal_round_s))


# ----------------------------------------------------------- machine speed
#
# The machine's speed wanders by up to a factor of two over minutes, with CPU
# time tracking wall time, and a whole run can fall in a slow spell.  So the
# timed pass also times, about every CAL_EVERY_S of the program's time, one
# slice of fixed work that does not touch gaussdiag, and scales the
# program's times by how fast those slices ran: times are reported in
# seconds of a machine on which one slice takes CAL_REF_S.

CAL_DIAGRAMS = [random_tokens(n, random.Random(f"calibration-{n}-{i}"))
                for n in range(4, 13) for i in range(15)]
CAL_EVERY_S = 0.05
CAL_REF_S = 0.0025
SETUP_SLICES = 11


def calibration_slice():
    """Time one slice of reference computations on fixed diagrams.  The
    cyclic GC is held off meanwhile, so that no collection of the program's
    objects lands in the slice; the slice keeps nothing, so it leaves the
    program's GC counts as they were."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for tokens in CAL_DIAGRAMS:
        ref.odd_writhe(tokens)
        ref.r2_sites(tokens)
        ref.code_of(tokens)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Round:
    """One round's per-input wall times and the speed scale of the machine
    over it: CAL_REF_S over the mean slice time."""

    def __init__(self, times, slices):
        self.times = times
        self.scale = CAL_REF_S / statistics.fmean(slices)

    def seconds(self):
        return sum(self.times) * self.scale


def timed_rounds(workload, checker, count):
    """Run ``count`` whole rounds, with calibration slices between inputs
    (outside the inputs' times)."""
    rounds = []
    for _ in range(count):
        times, slices = array("d"), array("d", [calibration_slice()])
        since = 0.0
        t = time.perf_counter()
        for _ in workload.operations(checker):
            elapsed = time.perf_counter() - t
            times.append(elapsed)
            since += elapsed
            if since >= CAL_EVERY_S:
                slices.append(calibration_slice())
                since = 0.0
            t = time.perf_counter()
        slices.append(calibration_slice())
        rounds.append(Round(times, slices))
    return rounds


def inputs_per_s(rounds):
    """Inputs per round over the median round's scaled time.  Everything
    that happens in a round counts, including costs that land on different
    inputs from round to round, such as cyclic-GC passes."""
    return len(rounds[0].times) / statistics.median(r.seconds() for r in rounds)


def input_p50_ms(rounds):
    """The median of the scaled times of every input in every round, in ms."""
    return statistics.median(t * r.scale for r in rounds for t in r.times) * 1000


# ------------------------------------------------------------ growth slopes

GROWTH_SIZES = (16, 32, 64)
GROWTH_BATCHES = 3
GROWTH_BATCH_S = 0.02


def _seconds_per_call(fn, arg):
    """Median over GROWTH_BATCHES batches of at least GROWTH_BATCH_S of the
    time per call."""
    per_call = []
    for _ in range(GROWTH_BATCHES):
        calls, start = 0, time.perf_counter()
        while True:
            fn(arg)
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= GROWTH_BATCH_S:
                break
        per_call.append(elapsed / calls)
    return statistics.median(per_call)


def growth_slopes(P):
    """Log-log slope of one call's time over GROWTH_SIZES chords, on fixed
    random diagrams (the same for every seed)."""
    diagrams = [
        P.codec.parse_gauss_code(ref.code_of(random_tokens(n, random.Random(f"growth-{n}"))))
        for n in GROWTH_SIZES
    ]
    calls = {
        "moves.r3_detect.slope": P.moves.r3_movable_triples,
        "moves.r2_detect.slope": P.moves.r2_removable_pairs,
        "diagram.canonical.slope": P.diagram.canonical,
        "diagram.construct.slope": lambda d: P.diagram.make_diagram(d.endpoints, d.signs),
    }
    xs = [math.log(n) for n in GROWTH_SIZES]
    mean_x = statistics.fmean(xs)
    out = {}
    for name, fn in calls.items():
        ys = [math.log(_seconds_per_call(fn, d)) for d in diagrams]
        mean_y = statistics.fmean(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs)
        out[name] = (slope, "exponent")
    return out


# --------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    import gaussdiag  # its import is part of set-up
    from workloads import WORKLOADS, Checker, Program

    P = Program()
    workload = WORKLOADS[args.workload](P, args.seed)
    ready = time.monotonic()
    calibration_slice()  # warm-up
    setup_slice = statistics.median(calibration_slice() for _ in range(SETUP_SLICES))
    report = {"ready": ready, "gaussdiag": gaussdiag.__file__,
              "setup_scale": CAL_REF_S / setup_slice}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    checker = Checker()
    if args.mode == "run":
        rounds = timed_rounds(workload, checker, round_count(workload, args.seconds, MIN_ROUNDS))
        report.update(
            rounds=len(rounds),
            round_s=[sum(r.times) for r in rounds],
            round_scale=[r.scale for r in rounds],
            inputs_per_s=inputs_per_s(rounds),
            input_p50_ms=input_p50_ms(rounds),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    else:
        from tracing import Tracer

        count = round_count(workload, args.seconds / 3, 1)
        plain = timed_rounds(workload, checker, count)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_rounds(workload, checker, count)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(traced))
        metrics["trace.overhead"] = (
            (inputs_per_s(plain) / inputs_per_s(traced) - 1) * 100, "%")
        metrics.update(growth_slopes(P))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-trace1.spans.json")
        rounds = plain + traced
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["rounds"] = len(rounds)

    workload.final_checks(checker)
    report.update(
        attempted=sum(len(r.times) for r in rounds),
        failed=checker.failed,
        check_errors=checker.error_count,
        errors=checker.errors,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
