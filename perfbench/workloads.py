"""The four workloads: their inputs, one round of operations, and checks.

A workload is built from the seed (its set-up), then exposes ``ops``: one
round, a list of (label, callable) pairs.  Every callable returns a small
result object that ``check`` compares with independent references from
``reference.py``.  The checks import ``reference.py`` (and with it
``scipy.linalg``) only when they run, after the timed loop, so that set-up
time holds only what the workload itself needs.  Calls into the program go
through module attributes (``expansion.expand``), so the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import problems as P
from hfosc import averaging, bounds, cli, expansion, fixtures, model, oracle, spectral
from hfosc.errors import NotRealError

ROOT = Path(__file__).resolve().parent.parent


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.problems = []
        self.ops = []

    def expected_failure(self, label: str, exc: BaseException) -> bool:
        return False

    def check(self, label: str, result):
        """Return None when ``result`` is right, else the reason."""
        raise NotImplementedError

    def matrix_points(self):
        """(spec, omega) pairs at which the system matrix is timed."""
        return [(p.spec, self.omega_of(p)) for p in self.problems]

    def omega_of(self, problem) -> float:
        return problem.info["omega"]


# -- expansion ---------------------------------------------------------------


class ExpansionWorkload(Workload):
    name = "expansion"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.problems = P.expansion_problems(seed)
        self.ops = [(p.label, self._op(p)) for p in self.problems]
        self.by_label = {p.label: p for p in self.problems}

    @staticmethod
    def _op(problem):
        spec, omega = problem.spec, problem.info["omega"]
        order, r = P.EXPANSION_ORDER, P.RESIDUAL_ORDER
        t = np.linspace(0.0, 2 * np.pi / omega, 65)

        def op():
            kd = spectral.compute_kernel_data(spec)
            exp = expansion.expand(spec, order, kernel_data=kd)
            x = expansion.partial_sum(exp, order, omega, t)
            residual = expansion.ode_residual(spec, exp, r, omega)
            prime, _ = bounds.normalize(spec)
            cc = bounds.constants(prime)
            growth = bounds.check_growth(expansion.expand(prime, order), cc)
            return {
                "kernel": kd.kernel,
                "left_kernel": kd.left_kernel,
                "averaged": kd.averaged,
                "lead": kd.kernel @ exp.leading,
                "t": t,
                "x": x,
                "residual": residual,
                "sum": _sum_coefficients(exp, r, omega),
                "growth_ok": growth.all_ok,
            }

        return op

    def check(self, label, res):
        import reference as R

        p = self.by_label[label]
        spec, omega = p.spec, p.info["omega"]
        mean, osc = res["sum"]
        return (
            R.check_kernels(spec, res["kernel"], res["left_kernel"])
            or R.check_averaged(spec, res["averaged"])
            or R.check_leading(spec, res["lead"])
            or R.check_close("order-10 partial sum vs Hill", res["x"], R.hill_solution(spec, omega, res["t"]), 1e-6)
            or R.check_residual(res["residual"], R.series_residual(spec, mean, osc, omega))
            or R.check_true("growth envelope", res["growth_ok"])
        )


def _sum_coefficients(exp, r, omega):
    """Constant part and harmonics of the order-r partial sum at omega."""
    kernel = exp.kernel_data.kernel
    mean = omega * (kernel @ exp.leading)
    osc = {}
    for k, lev in enumerate(exp.levels[: r + 1]):
        mean = mean + omega ** (-k) * (lev.mean + kernel @ lev.kernel_coeff)
        for l, c in lev.osc.coeffs.items():
            osc[l] = osc.get(l, 0) + omega ** (-k) * c
    return mean, osc


# -- stability ---------------------------------------------------------------


class StabilityWorkload(Workload):
    name = "stability"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.problems = P.stability_problems(seed)
        self.ops = [(p.label, self._op(p)) for p in self.problems]
        self.by_label = {p.label: p for p in self.problems}

    @staticmethod
    def _op(problem):
        spec, omega = problem.spec, problem.info["omega"]

        def op():
            series = averaging.formal_average(spec)
            alphas = averaging.char_poly_series(series)
            minors = averaging.hurwitz_series(alphas)
            verdict = averaging.classify(minors)
            fv = oracle.floquet_verdict(spec, omega)
            return {
                "alpha0": np.array([a.coeff(0) for a in alphas]),
                "series": verdict.kind,
                "floquet": fv.kind,
                "multipliers": fv.multipliers,
            }

        return op

    def expected_failure(self, label, exc):
        return self.by_label[label].info.get("fails", False) and isinstance(exc, NotRealError)

    def check(self, label, res):
        import reference as R

        p = self.by_label[label]
        spec, omega = p.spec, p.info["omega"]
        error = R.check_char_poly_leading(spec, res["alpha0"])
        if error:
            return error
        want = p.info["expect"]
        if want is not None:
            error = R.check_verdict("series", res["series"], want[0]) or R.check_verdict(
                "multiplier", res["floquet"], want[1]
            )
        elif res["series"] in ("Stable", "Unstable"):
            # A decided series verdict holds for all large omega, so the
            # multipliers at this omega must agree with it.
            error = R.check_verdict("multiplier", res["floquet"], res["series"])
        if error is None and spec.m == 0:
            error = R.check_multipliers(spec, omega, res["multipliers"])
        return error


# -- oracle ------------------------------------------------------------------


class OracleWorkload(Workload):
    name = "oracle"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.problems = P.oracle_problems(seed)
        self.ops = [(p.label, self._op(p)) for p in self.problems]
        self.by_label = {p.label: p for p in self.problems}

    def omega_of(self, problem):
        return problem.info["omegas"][0]

    @staticmethod
    def _op(problem):
        spec, omegas = problem.spec, problem.info["omegas"]

        def op():
            sols = {w: oracle.periodic_solution(spec, w) for w in omegas}
            exp = expansion.expand(spec, max(P.SLOPE_ORDERS))
            slopes = [
                oracle.error_slope(spec, exp, r, omegas, solutions=sols).slope
                for r in P.SLOPE_ORDERS
            ]
            return {
                "t": {w: s.t for w, s in sols.items()},
                "x": {w: s.x for w, s in sols.items()},
                "monodromy": {w: s.monodromy for w, s in sols.items()},
                "slopes": slopes,
            }

        return op

    def check(self, label, res):
        import reference as R

        p = self.by_label[label]
        spec = p.spec
        for r, slope in zip(P.SLOPE_ORDERS, res["slopes"]):
            error = R.check_slope(slope, r)
            if error:
                return error
        for w in p.info["omegas"]:
            ref = R.hill_solution(spec, w, res["t"][w])
            error = R.check_close(f"periodic solution at omega={w:.6g} vs Hill", res["x"][w], ref, 1e-7)
            if error is None and spec.m == 0:
                error = R.check_monodromy(spec, w, res["monodromy"][w])
            if error:
                return error
        return None


# -- cli ---------------------------------------------------------------------

CLI_ENTRY = "import sys; from hfosc.cli import main; sys.exit(main())"


def _complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


class CliWorkload(Workload):
    """Fresh-interpreter CLI commands, one child process at a time."""

    name = "cli"

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        fx = ROOT / "fixtures"
        self.specs = {
            name: model.load_problem(fx / f"{name}.json")
            for name in ("forced_borderline", "random_n3_m1", "borderline_stable", "borderline_unstable")
        }
        # Generated documents: a stable and an unstable constructed system
        # and a random admissible one, all drawn from the seed.
        generated = {
            "gen_stable": P.constructed([seed, 5, 0], 4, 2, 2, True),
            "gen_unstable": P.constructed([seed, 5, 1], 3, 1, 1, False),
            "gen_random": fixtures.random_admissible(seed=[seed, 5, 2], n=6, m=3, s=2),
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {name: str(fx / f"{name}.json") for name in self.specs}
        for name in ("degenerate", "scalar_decay"):
            paths[name] = str(fx / f"{name}.json")
        for name, spec in generated.items():
            path = out_dir / f"cli-seed{seed}-{name}.json"
            path.write_text(P.as_document(spec))
            paths[name] = str(path)
            self.specs[name] = model.load_problem(path)
        w_s = P.stability_omega(self.specs["gen_stable"])
        w_u = P.stability_omega(self.specs["gen_unstable"])
        w_fx = 100.0
        self.omegas = {"gen_stable": w_s, "gen_unstable": w_u, "random_n3_m1": w_fx}
        slope_w = ",".join(repr(f * w_s / 4.0) for f in (1.0, 2.0, 4.0))
        J = ["--format", "json"]
        commands = [
            ("analyze", "forced_borderline", J),
            ("analyze", "degenerate", J),
            ("analyze", "scalar_decay", J),
            ("expand", "random_n3_m1", ["--order", "3"] + J),
            ("evaluate", "random_n3_m1", ["--order", "2", "--omega", repr(w_fx), "--samples", "16"] + J),
            ("stability", "borderline_stable", J),
            ("stability", "borderline_unstable", J),
            ("slope", "random_n3_m1", ["--order", "1"] + J),
            ("validate", "random_n3_m1", ["--order", "2"] + J),
            ("analyze", "gen_random", J),
            ("expand", "gen_stable", ["--order", "4"] + J),
            ("evaluate", "gen_stable", ["--order", "2", "--omega", repr(w_s), "--samples", "32"] + J),
            ("stability", "gen_stable", ["--omega", repr(w_s)] + J),
            ("stability", "gen_unstable", ["--omega", repr(w_u)] + J),
            ("slope", "gen_stable", ["--order", "2", "--omegas", slope_w] + J),
            ("validate", "gen_stable", ["--order", "2", "--omega", repr(w_s)] + J),
            ("expand", "gen_random", ["--order", "6"] + J),
        ]
        self.argv = {}
        for command, doc, extra in commands:
            self.argv[f"{command} {doc}"] = (command, doc, [command, paths[doc]] + extra)
        self.in_process = False
        self.ops = [(label, self._op(label)) for label in self.argv]

    def _op(self, label):
        argv = self.argv[label][2]

        def op():
            if self.in_process:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                return {"code": code, "out": out.getvalue(), "err": err.getvalue()}
            proc = subprocess.run(
                [sys.executable, "-c", CLI_ENTRY] + argv,
                capture_output=True, text=True, timeout=120,
            )
            return {"code": proc.returncode, "out": proc.stdout, "err": proc.stderr}

        return op

    def matrix_points(self):
        return [(self.specs[name], w) for name, w in self.omegas.items()]

    def check(self, label, res):
        import reference as R

        command, doc, _ = self.argv[label]
        spec = self.specs.get(doc)
        if doc in ("degenerate", "scalar_decay"):
            if res["code"] != 2 or not res["err"].startswith("error:"):
                return f"expected exit 2 with an error message, got {res['code']}: {res['err'][:200]!r}"
            return None
        if res["code"] != 0:
            return f"exit {res['code']}: {res['err'][-300:]!r}"
        try:
            out = json.loads(res["out"])
        except json.JSONDecodeError:
            return f"output is not JSON: {res['out'][:200]!r}"
        if command == "analyze":
            return R.check_kernels(spec, _complex(out["kernel"]), _complex(out["left_kernel"])) or R.check_averaged(
                spec, _complex(out["averaged"])
            )
        if command == "expand":
            lead = _complex(out["kernel"]) @ _complex(out["leading"])
            return R.check_leading(spec, lead)
        if command == "evaluate":
            t, x = np.asarray(out["t"]), _complex(out["x"])
            return R.check_partial_sum(x, R.hill_solution(spec, out["omega"], t), out["order"], out["omega"])
        if command == "stability":
            series, floquet = out["series"]["kind"], out["floquet"]["kind"]
            want = {
                "borderline_stable": ("Inconclusive", "Stable"),
                "borderline_unstable": ("Inconclusive", "Unstable"),
                "gen_stable": ("Stable", "Stable"),
                "gen_unstable": ("Unstable", "Unstable"),
            }[doc]
            error = R.check_verdict("series", series, want[0]) or R.check_verdict("multiplier", floquet, want[1])
            if error is None and spec.m == 0:
                error = R.check_multipliers(spec, out["floquet"]["omega"], _complex(out["floquet"]["multipliers"]))
            return error
        if command == "slope":
            return R.check_slope(out["slope"], out["order"])
        if command == "validate":
            return R.check_true("validate ok", out["ok"])
        return f"no check for {command}"


WORKLOADS = {
    "cli": CliWorkload,
    "expansion": ExpansionWorkload,
    "stability": StabilityWorkload,
    "oracle": OracleWorkload,
}
