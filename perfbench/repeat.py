"""Run each workload several times and report the spread of every metric.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1]

Runs every workload of BENCHMARK.json, untraced, for its ``run_seconds``.
Each run uses its own seed (first-seed, first-seed + 1, ...).  For every
metric the table gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the quartile distance as a share
of the median (``iqr%``) and the max - min spread as a share of the median
(``range%``).  The bounds in BENCHMARK.json were set from these tables;
README.md records the figures.  All results also go to
``perfbench/out/repeat-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "iqr_share": (q3 - q1) / med if med else float("nan"),
        "range_share": (max(values) - min(values)) / med if med else float("nan"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (HERE / "out").mkdir(exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(args.runs):
            res = one_run(workload, args.first_seed + i, bench["run_seconds"])
            runs.append(res)
            print(f"{workload} seed {args.first_seed + i}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        names = list(runs[0]["metrics"])
        table = {name: spread([r["metrics"][name]["value"] for r in runs]) for name in names}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
              f"failed share {shares}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr%':>7s} {'range%':>7s}")
        for name, s in table.items():
            print(f"  {name:34s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{100 * s['iqr_share']:7.2f} {100 * s['range_share']:7.2f}")
        out = HERE / "out" / f"repeat-{workload}.json"
        out.write_text(json.dumps({"args": vars(args), "runs": runs, "spread": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
