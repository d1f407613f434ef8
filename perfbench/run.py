"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {cli,expansion,stability,oracle} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics (set-up time, throughput, median op time, peak memory); with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
Set-up is measured in several fresh interpreters, before and after the
timed loop, and reported as their median.  See README.md in this
directory for what each workload does.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "expansion", "stability", "oracle")
# Fresh interpreters whose set-up time is sampled; the main worker is one.
SETUP_SAMPLES = 9
# Time allowed beyond --seconds for the set-ups, the checks and, in a
# traced run, the probe and the import-time children.
MARGIN_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def start_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (set-up seconds, its JSON result)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    # A session of its own, so that on timeout the worker's CLI children
    # are killed with it.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker did not finish within {args.seconds + MARGIN_S:g} s") from None
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result["ready"] - spawned, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hfosc" / "__init__.py").is_file():
        print(f"error: no hfosc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + MARGIN_S

    # Set-up samples on both sides of the timed loop, so that a slow stretch
    # of the host weighs on fewer of them.
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [start_worker(args, True, deadline)[0] for _ in range(extra // 2)]
    setup, result = start_worker(args, False, deadline)
    setups.append(setup)
    setups += [start_worker(args, True, deadline)[0] for _ in range(extra - extra // 2)]

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']}")
    for err in result["errors"]:
        print(f"{args.workload} check: {err}")
    if "trace_file" in result:
        print(f"{args.workload} spans written to {result['trace_file']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
