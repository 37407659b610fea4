"""Run one benchmark workload on the gaussdiag sources of this checkout.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, descent, insertion (see README.md).  Each runs in its own
process (``worker.py``) with ``PYTHONPATH`` set to this checkout's ``src``.
The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-module ones from a separate
traced process.  Results and traces are also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 11  # set-up-only processes, besides the timed one
DEADLINE_S = 170


def spawn(args, deadline):
    """Run worker.py to its end; returns (its report, when it was started)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - start),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(report["gaussdiag"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported gaussdiag from {report['gaussdiag']}, not from {ROOT / 'src'}")
    return report, start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "descent", "insertion"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "gaussdiag" / "__init__.py").is_file():
        print(f"no gaussdiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    if args.trace:
        report, _ = spawn(common + ["--mode", "trace"], deadline)
        metrics = report["per_layer"]
        record = {"rounds": report["rounds"]}
    else:
        report, start = spawn(common + ["--mode", "run"], deadline)
        setups = [(report["ready"] - start) * report["setup_scale"]]
        for _ in range(SETUP_SAMPLES):
            sample, start = spawn(common + ["--mode", "setup"], deadline)
            setups.append((sample["ready"] - start) * sample["setup_scale"])
        metrics = {
            "setup_s": {"value": min(setups), "unit": "s"},
            "inputs_per_s": {"value": report["inputs_per_s"], "unit": "1/s"},
            "input_p50_ms": {"value": report["input_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        record = {key: report[key] for key in ("rounds", "round_s", "round_scale")}
        record["setup_s"] = setups

    for error in report["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": report["check_errors"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    (OUT / f"{name}.result.json").write_text(json.dumps(dict(result, **record)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
