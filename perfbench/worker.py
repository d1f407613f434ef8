"""One workload in one process: set-up, a closed loop of whole rounds, checks.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP pinned to one
thread.  Prints one JSON object on its last stdout line.  With
``--setup-only`` it stops when the first timed operation could be issued and
reports that instant (``time.monotonic``, shared by all processes).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from hfosc import averaging, bounds, cli, expansion, model, oracle, spectral  # noqa: E402
from hfosc.errors import BoundaryUndecidable, NotRealError  # noqa: E402
from tracer import Tracer  # noqa: E402

# Public functions timed by the traced run, as "<module>.<function>".
LAYERS = [
    "cli.run",
    "model.load_problem",
    "spectral.compute_kernel_data",
    "expansion.expand",
    "expansion.partial_sum",
    "expansion.ode_residual",
    "bounds.normalize",
    "bounds.constants",
    "bounds.check_growth",
    "averaging.formal_average",
    "averaging.char_poly_series",
    "averaging.hurwitz_series",
    "averaging.classify",
    "oracle.monodromy",
    "oracle.periodic_solution",
    "oracle.floquet_verdict",
    "oracle.error_slope",
]


def fingerprint(obj) -> str:
    """Digest of a result, to confirm later rounds repeat the first."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, dict):
            for k in sorted(o, key=repr):
                h.update(repr(k).encode())
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            for v in o:
                feed(v)
        elif hasattr(o, "tobytes"):
            h.update(o.tobytes())
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


class Loop:
    """Runs whole rounds of a workload's ops and keeps what the checks need."""

    def __init__(self, workload):
        self.wl = workload
        self.first = {}  # label -> result of its first successful run
        self.prints = {}  # label -> fingerprint of that result
        self.errors = []  # reasons the outputs are wrong
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, tracer=None):
        """Whole rounds until ``seconds`` have passed.

        Returns the op times (seconds) and the ops completed per second of
        the loop.
        """
        times = []
        attempted, failed = self.attempted, self.failed
        start = time.perf_counter()
        while True:
            for label, fn in self.wl.ops:
                times.append(self._one(label, fn, tracer))
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                done = (self.attempted - attempted) - (self.failed - failed)
                return times, done / elapsed

    def _one(self, label, fn, tracer):
        self.attempted += 1
        if tracer is not None:
            tracer.op_id += 1
            span = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed op is counted, not fatal
            elapsed = time.perf_counter() - t0
            self.failed += 1
            if not self.wl.expected_failure(label, exc):
                self.errors.append(f"{label}: unexpected {type(exc).__name__}: {exc}")
            return elapsed
        finally:
            if tracer is not None:
                tracer.end(span)
        elapsed = time.perf_counter() - t0
        digest = fingerprint(result)
        if label not in self.first:
            self.first[label] = result
            self.prints[label] = digest
        elif digest != self.prints[label]:
            self.errors.append(f"{label}: output differs between rounds")
        return elapsed

    def check(self):
        for label, result in self.first.items():
            reason = self.wl.check(label, result)
            if reason:
                self.errors.append(f"{label}: {reason}")
        return not self.errors


def import_times(repeats: int = 3) -> dict:
    """Median cumulative import times (ms) from ``python -X importtime``."""
    samples = {"import.hfosc_cli.ms": [], "import.scipy_integrate.ms": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hfosc.cli"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        total = scipy_integrate = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            # Top-level entries are the ones "import hfosc.cli" triggered.
            if name.startswith(" hfosc"):
                total += int(cumulative) / 1e3
            if name.strip() == "scipy.integrate":
                scipy_integrate = int(cumulative) / 1e3
        samples["import.hfosc_cli.ms"].append(total)
        samples["import.scipy_integrate.ms"].append(scipy_integrate)
    return {k: statistics.median(v) for k, v in samples.items()}


def time_system_matrix(points) -> tuple[float, int]:
    """Mean microseconds of ``system_matrix`` at the Gauss nodes of a period.

    256 sample intervals with 10 Gauss-Legendre nodes each: the 2,560
    evaluations the reference solver's defect quadrature makes.
    """
    x, _ = np.polynomial.legendre.leggauss(10)
    total, calls = 0.0, 0
    for spec, omega in points:
        T = 2 * np.pi / omega
        edges = np.linspace(0.0, T, 257)
        mids, halves = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        taus = omega * (mids[:, None] + halves[:, None] * x[None, :]).ravel()
        t0 = time.perf_counter()
        for tau in taus:
            spec.system_matrix(tau, omega)
        total += time.perf_counter() - t0
        calls += len(taus)
    return total / calls * 1e6, calls


def probe(missing) -> Tracer:
    """Time, once each, the layers the workload's own ops never call.

    Uses the fixed fixture ``random_n3_m1.json`` so every traced run reports
    every layer; the figures say what one call costs on a small problem.
    """
    path = ROOT / "fixtures" / "random_n3_m1.json"
    tracer = Tracer()
    tracer.install(missing)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["analyze", str(path)])
        spec = model.load_problem(path)
        omega = 100.0
        kd = spectral.compute_kernel_data(spec)
        exp = expansion.expand(spec, 2, kernel_data=kd)
        expansion.partial_sum(exp, 2, omega, np.linspace(0.0, 2 * np.pi / omega, 65))
        expansion.ode_residual(spec, exp, 1, omega)
        prime, _ = bounds.normalize(spec)
        bounds.check_growth(expansion.expand(prime, 2), bounds.constants(prime))
        minors = averaging.hurwitz_series(averaging.char_poly_series(averaging.formal_average(spec)))
        with contextlib.suppress(NotRealError):
            averaging.classify(minors)
        oracle.monodromy(spec, omega)
        with contextlib.suppress(BoundaryUndecidable):
            oracle.floquet_verdict(spec, omega)
        sols = {w: oracle.periodic_solution(spec, w) for w in (omega, 2 * omega)}
        oracle.error_slope(spec, exp, 0, tuple(sols), solutions=sols)
    finally:
        tracer.uninstall()
    return tracer


def layer_metrics(tracer: Tracer, probed: Tracer | None) -> dict:
    """Mean ms and calls per layer; probed figures fill the layers not called."""
    rows = tracer.summary()
    out = {}
    for name in LAYERS:
        row = rows.get(name) or probed.summary()[name]
        out[f"{name}.ms"] = (row["total_s"] / row["calls"] * 1e3, "ms")
        out[f"{name}.calls"] = (row["calls"], "count")
    source = tracer if "averaging.classify" in rows else probed
    attempts = source.summary()["averaging.classify"]["calls"]
    out["averaging.decided_ratio"] = (source.decided / attempts, "ratio")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    loop = Loop(wl)
    label, fn = wl.ops[0]
    fn()  # warm-up: first-call costs (lazy imports, caches) stay out of the timing
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    result = {"ready": ready}
    if not args.trace:
        times, rate = loop.run(args.seconds)
        if args.workload == "cli":
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "ops_per_s": (rate, "ops/s"),
            "op_s.p50": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    else:
        if args.workload == "cli":
            # Per-layer figures come from the same commands run in-process,
            # which leaves out interpreter and import start-up.
            wl.in_process = True
            fn()
        half = args.seconds / 2.0
        _, plain_rate = loop.run(half)
        tracer = Tracer()
        tracer.install(LAYERS)
        try:
            _, traced_rate = loop.run(half, tracer)
        finally:
            tracer.uninstall()
        called = tracer.summary()
        missing = [name for name in LAYERS if name not in called]
        probe_tracer = probe(missing) if missing else None
        metrics = layer_metrics(tracer, probe_tracer)
        us, calls = time_system_matrix(wl.matrix_points())
        metrics["model.system_matrix.us"] = (us, "us")
        metrics["model.system_matrix.calls"] = (calls, "count")
        for name, ms in import_times().items():
            metrics[name] = (ms, "ms")
        metrics["trace.overhead"] = ((plain_rate / traced_rate - 1.0) * 100.0, "%")
        result["metrics"] = metrics
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {
            "workload": args.workload,
            "seed": args.seed,
            "probed_layers": missing,
            "probe_summary": probe_tracer.summary() if probe_tracer else {},
        })
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    result["correct"] = loop.check()
    result["errors"] = loop.errors[:20]
    result["attempted"] = loop.attempted
    result["failed"] = loop.failed
    print(json.dumps(result))


if __name__ == "__main__":
    main()
