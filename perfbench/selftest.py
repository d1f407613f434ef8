"""Show that every correctness check rejects a deliberately perturbed result.

    python3 perfbench/selftest.py

For each workload, takes the real result of a few operations (seed 1),
confirms the workload's check accepts it, then applies each perturbation
below and confirms the check rejects it.  Also confirms that a result
which changes between rounds is flagged.  Exits 1 if any check does not
behave.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402


def _rotated(basis, eps=1e-6):
    """An orthonormal basis tilted out of the original span by about eps."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(basis + eps * rng.standard_normal(basis.shape))
    return q


def _scaled(factor):
    return lambda a: np.asarray(a) * factor


def _set(key, fn):
    def apply(res):
        res[key] = fn(res[key])

    return apply


def _first(key, fn):
    """Perturb the entry for the first frequency of a per-omega dict."""

    def apply(res):
        w = next(iter(res[key]))
        res[key][w] = fn(res[key][w])

    return apply


def _json(fn):
    """Perturb a CLI result through its JSON report."""

    def apply(res):
        doc = json.loads(res["out"])
        fn(doc)
        res["out"] = json.dumps(doc)

    return apply


def _bump_pairs(path, eps):
    def apply(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        arr = np.asarray(node[path[-1]], dtype=float)
        arr.flat[0] += eps * max(1.0, float(np.max(np.abs(arr))))
        node[path[-1]] = arr.tolist()

    return apply


def _put(path, value):
    def apply(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return apply


def _code(code):
    return _set("code", lambda _: code)


# workload -> [(op label, [(perturbation name, mutate(result))])]
CASES = {
    "expansion": lambda wl: [
        (wl.ops[1][0], [
            ("kernel tilted by 1e-6", _set("kernel", _rotated)),
            ("left kernel tilted by 1e-6", _set("left_kernel", _rotated)),
            ("A1 entry off by 1e-9 relative", _set("averaged", lambda a: a + 1e-9 * np.max(np.abs(a)) * np.eye(len(a)))),
            ("leading term scaled by 1 + 1e-6", _set("lead", _scaled(1 + 1e-6))),
            ("partial sum scaled by 1 + 1e-5", _set("x", _scaled(1 + 1e-5))),
            ("ODE defect scaled by 1.01", _set("residual", lambda r: r * 1.01)),
            ("growth envelope reported violated", _set("growth_ok", lambda _: False)),
        ]),
    ],
    "stability": lambda wl: [
        ("stable n=3 m=1 s=1", [
            ("characteristic polynomial off by 1e-6", _set("alpha0", lambda a: a + 1e-6)),
            ("series verdict flipped", _set("series", lambda _: "Unstable")),
            ("multiplier verdict flipped", _set("floquet", lambda _: "Unstable")),
        ]),
        ("random n=3 m=1 s=1", [
            ("multiplier verdict disagrees with the series", _set("floquet", lambda k: "Stable" if k == "Unstable" else "Unstable")),
        ]),
        ("borderline_unstable", [
            ("series decided where it must be Inconclusive", _set("series", lambda _: "Unstable")),
            ("multipliers scaled by 1 + 1e-7", _set("multipliers", _scaled(1 + 1e-7))),
        ]),
    ],
    "oracle": lambda wl: [
        (wl.ops[0][0], [
            ("order-2 slope off by 0.5", _set("slopes", lambda s: s[:2] + [s[2] + 0.5])),
            ("order-0 slope off by 0.5", _set("slopes", lambda s: [s[0] - 0.5] + s[1:])),
            ("periodic solution scaled by 1 + 1e-6", _first("x", _scaled(1 + 1e-6))),
        ]),
        (wl.ops[1][0], [
            ("monodromy entry off by 1e-7", _first("monodromy", lambda p: p + 1e-7 * np.eye(len(p)))),
        ]),
    ],
    "cli": lambda wl: [
        ("analyze forced_borderline", [
            ("kernel basis tilted", _json(_bump_pairs(["kernel"], 1e-6))),
            ("A1 entry off by 1e-9", _json(_bump_pairs(["averaged"], 1e-9))),
        ]),
        ("analyze degenerate", [("exit code 0 instead of 2", _code(0))]),
        ("expand gen_stable", [("leading coefficient off by 1e-6", _json(_bump_pairs(["leading"], 1e-6)))]),
        ("evaluate random_n3_m1", [
            ("one sample off by 1e-3", _json(_bump_pairs(["x"], 1e-3))),
        ]),
        ("stability borderline_stable", [
            ("series verdict decided", _json(_put(["series", "kind"], "Stable"))),
            ("multipliers off by 1e-7", _json(_bump_pairs(["floquet", "multipliers"], 1e-7))),
        ]),
        ("stability gen_unstable", [("multiplier verdict flipped", _json(_put(["floquet", "kind"], "Stable")))]),
        ("slope random_n3_m1", [("slope off by 0.5", _json(lambda d: d.update(slope=d["slope"] + 0.5)))]),
        ("validate random_n3_m1", [
            ("validate reports failure", _json(_put(["ok"], False))),
            ("nonzero exit", _code(1)),
        ]),
    ],
}


def main() -> int:
    worker.OUT.mkdir(exist_ok=True)
    bad = 0
    for name, cases in CASES.items():
        wl = workloads.WORKLOADS[name](1, worker.OUT)
        if name == "cli":
            wl.in_process = True
        ops = dict(wl.ops)
        for label, perturbations in cases(wl):
            result = ops[label]()
            reason = wl.check(label, result)
            status = "ok" if reason is None else f"WRONG, rejected: {reason}"
            bad += reason is not None
            print(f"{name:9s} {label}: true result accepted: {status}")
            for what, mutate in perturbations:
                perturbed = copy.deepcopy(result)
                mutate(perturbed)
                reason = wl.check(label, perturbed)
                bad += reason is None
                print(f"{name:9s}   {what}: " + (f"rejected ({reason})" if reason else "NOT REJECTED"))
        loop = worker.Loop(wl)
        label, fn = wl.ops[0]
        loop._one(label, fn, None)
        loop.prints[label] = "a different digest"
        loop._one(label, fn, None)
        flagged = any("differs between rounds" in e for e in loop.errors)
        bad += not flagged
        print(f"{name:9s}   output changing between rounds: " + ("rejected" if flagged else "NOT REJECTED"))
    print("selftest:", "all checks behave" if bad == 0 else f"{bad} problems")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
