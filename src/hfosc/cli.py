"""Command-line interface.

Subcommands: analyze, expand, evaluate, stability, slope, validate.  Every
command reads a problem document (JSON) and emits either a text report or
a JSON report (--format json).  Exit codes: 0 success, 1 input/usage
problems, 2 when the critical-case machinery does not apply (no zero
eigenvalue or a singular solvability matrix), 3 when the periodic solution
is not unique.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

import numpy as np

# Each command imports the rest of the package (expansion, bounds,
# averaging, oracle) when it runs, so a process loads only what its command
# uses; see ``oracle._period_pass``, which loads the integrator the same way.
from .errors import (
    BoundaryUndecidable,
    DegenerateError,
    HfoscError,
    NoKernelError,
    NonFiniteError,
    NonUniqueError,
)
from .model import load_problem, to_pairs
from .spectral import RANK_TOL, compute_kernel_data

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_NONUNIQUE = 3

# Bound on the defects and residuals that ``validate`` checks.
DEFECT_TOL = 1e-8


def solvability_defect(exp) -> float:
    """The worst solvability defect of an expansion, as ``validate`` checks
    it against ``DEFECT_TOL``.

    The levels grow geometrically, so each defect is measured against
    max(1, the size of its data).  Sweep e closes 0 = A0 x_e + A1 v_{e-1}
    + theta_e for C_{e-1}; the last sweep's theta and x are not kept."""
    from .expansion import safe_norm

    a1 = float(np.linalg.norm(exp.kernel_data.averaged, 2))
    coeffs = [exp.leading] + [lev.kernel_coeff for lev in exp.levels]
    defects = [exp.leading_defect] + [lev.solvability_defect for lev in exp.levels]
    sizes = [max(safe_norm(lev.forcing), safe_norm(lev.mean)) for lev in exp.levels] + [0.0]
    return float(
        max(d / max(1.0, a1 * safe_norm(c), size) for d, c, size in zip(defects, coeffs, sizes))
    )


def _fmt_c(z) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:+.6g}"
    return f"{z.real:+.6g}{z.imag:+.6g}j"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt_c(z) for z in np.asarray(v).ravel()) + "]"


def _basis_lines(label, basis) -> list:
    return [f"{label}:"] + [f"  {j}: {_fmt_vec(col)}" for j, col in enumerate(basis.T, 1)]


def _cmd_analyze(spec, args):
    from .bounds import constants

    kd = compute_kernel_data(spec, rank_tol=args.rank_tol)
    cc = constants(spec, kd)
    report = [
        ("n", spec.n, f"problem: n={spec.n} m={spec.m} "
         + ("real" if spec.real_mode else "complex")),
        ("m", spec.m, None),
        ("real_mode", spec.real_mode, None),
        ("kernel_dim", kd.dim, f"zero eigenvalue multiplicity: {kd.dim}"),
        ("singular_values", kd.sigma.tolist(),
         f"singular values of A0: {', '.join(f'{s:.6g}' for s in kd.sigma)}"),
        ("kernel", kd.kernel,
         _basis_lines("kernel basis (coefficients refer to these columns)", kd.kernel)),
        ("left_kernel", kd.left_kernel, _basis_lines("left kernel basis", kd.left_kernel)),
        ("averaged", kd.averaged, None),
        ("solvability", kd.solvability, None),
        ("solvability_sigma_min", kd.solvability_sigma_min,
         f"solvability matrix sigma_min: {kd.solvability_sigma_min:.6g}"),
        ("scale", cc.scale, f"normalization scale: {cc.scale:.6g}"),
        ("K", cc.K, f"constants (normalized problem): K={cc.K:g} L={cc.L:.6g} "
         f"omega0={cc.omega0:.6g}"),
        ("L", cc.L, None),
        ("omega0", cc.omega0, None),
    ]
    return report, True


def _cmd_expand(spec, args):
    from .expansion import expand, safe_norm

    kd = compute_kernel_data(spec, rank_tol=args.rank_tol)
    exp = expand(spec, args.order, kernel_data=kd)
    levels = [
        {
            "mean": lev.mean,
            "kernel_coeff": lev.kernel_coeff,
            "oscillation": lev.osc.coeffs,
            "harmonics": lev.harmonics.coeffs,
            "forcing": lev.forcing,
            "harmonic_mass": lev.harmonic_mass,
            "solvability_defect": lev.solvability_defect,
        }
        for lev in exp.levels
    ]
    report = [
        ("order", exp.order, f"expansion to order {exp.order} (kernel dim {kd.dim})"),
        ("kernel_dim", kd.dim, None),
        ("kernel", kd.kernel,
         _basis_lines("kernel basis (coefficients refer to these columns)", kd.kernel)),
        ("leading", exp.leading,
         f"leading kernel coefficients (O(omega) term): {_fmt_vec(exp.leading)}"),
        ("leading_defect", exp.leading_defect, None),
        ("levels", levels, (
            f"order {k}: |mean|={safe_norm(lev.mean):.6g} "
            f"kernel_coeff={_fmt_vec(lev.kernel_coeff)} "
            f"harmonics={len(lev.osc.coeffs)} "
            f"defect={lev.solvability_defect:.3g}"
            for k, lev in enumerate(exp.levels)
        )),
    ]
    return report, True


def _cmd_evaluate(spec, args):
    from .expansion import expand, partial_sum
    from .oracle import period

    exp = expand(spec, args.order, compute_kernel_data(spec, rank_tol=args.rank_tol))
    t = np.linspace(0.0, period(args.omega), args.samples + 1)
    x = partial_sum(exp, args.order, args.omega, t)
    report = [
        ("omega", args.omega,
         f"partial sum of order {args.order} at omega={args.omega:g} over one period"),
        ("order", args.order, None),
        ("t", t.tolist(), None),
        ("x", x, (f"  t={ti:.9g}: {_fmt_vec(xi)}" for ti, xi in zip(t, x))),
    ]
    return report, True


def _cmd_stability(spec, args):
    from .averaging import analyze_stability
    from .oracle import floquet_verdict

    given = {k: v for k, v in vars(args).items() if k in ("trunc", "zero_tol") and v is not None}
    verdict = analyze_stability(spec, **given)
    series = {
        "kind": verdict.kind,
        "detail": verdict.detail,
        "leaders": verdict.leaders,
        "zero_ratios": verdict.zero_ratios,
        "imag_ratio": verdict.imag_ratio,
        "imag_tol": verdict.imag_tol,
    }
    report = [
        ("trunc", verdict.trunc, None),
        ("zero_tol", verdict.zero_tol, None),
        ("series", series, [
            f"series test (through 1/omega^{verdict.trunc}): {verdict.kind}",
            f"  {verdict.detail}",
        ]),
    ]
    head = f"multiplier test at omega={args.omega:g}"
    try:
        fv = floquet_verdict(spec, args.omega)
        floquet = {"omega": args.omega, "kind": fv.kind, "margin": fv.margin,
                   "multipliers": fv.multipliers}
        report.append(("floquet", floquet,
                       f"{head}: {fv.kind} (max |multiplier| - 1 = {fv.margin:.3e})"))
    except BoundaryUndecidable as exc:
        floquet = {"omega": args.omega, "kind": "Undecidable", "detail": str(exc)}
        report.append(("floquet", floquet, f"{head}: Undecidable ({exc})"))
    return report, True


def _cmd_slope(spec, args):
    from .expansion import expand
    from .oracle import error_slope

    exp = expand(spec, args.order, compute_kernel_data(spec, rank_tol=args.rank_tol))
    rep = error_slope(spec, exp, args.order, args.omegas)
    report = [
        ("order", rep.order, f"order {rep.order} error against the reference solution:"),
        ("omegas", list(rep.omegas), None),
        ("errors", list(rep.errors),
         (f"  omega={w:g}: {e:.6e}" for w, e in zip(rep.omegas, rep.errors))),
        # NaN when every error sits at rounding level (d = 0 gives x = 0).
        ("slope", None if math.isnan(rep.slope) else rep.slope,
         f"slope: {rep.slope:.3f} (expected about {-(rep.order + 1)})"),
        ("expected", -(rep.order + 1), None),
    ]
    return report, True


def _cmd_validate(spec, args):
    from .averaging import formal_average
    from .bounds import check_growth, constants
    from .expansion import expand, partial_sum, safe_norm
    from .oracle import INTEGRATOR_TOL, periodic_solution

    checks = []

    def check(name, value, threshold, ok):
        checks.append(
            {"name": name, "ok": bool(ok), "value": value, "threshold": threshold}
        )

    def below(name, value, threshold):
        check(name, value, threshold, value < threshold)

    def above(name, value, threshold):
        check(name, value, threshold, value > threshold)

    kd = compute_kernel_data(spec, rank_tol=args.rank_tol)
    check("kernel_dim >= 1", kd.dim, 1, kd.dim >= 1)
    above("solvability_sigma_min", kd.solvability_sigma_min, kd.solvability_floor)

    # A0 W g = g on range(A0), whose projector is P = I - Z Z^H, and W g is
    # orthogonal to the kernel: two identities of W, no sampled g.
    W, Z = kd.restricted_inverse, kd.left_kernel
    P = np.eye(spec.n) - Z @ Z.conj().T
    residual = float(np.linalg.norm(spec.A0 @ W @ P - P, 2))
    perp = float(np.max(np.abs(kd.kernel.conj().T @ W)))
    below("partial_inverse_residual", residual, DEFECT_TOL)
    below("partial_inverse_orthogonality", perp, DEFECT_TOL)

    exp = expand(spec, args.order, kernel_data=kd)
    below("expansion_solvability_defect", solvability_defect(exp), DEFECT_TOL)
    ortho = max(
        np.max(np.abs(kd.kernel.conj().T @ lev.mean)) / max(1.0, safe_norm(lev.mean))
        for lev in exp.levels
    )
    below("expansion_mean_orthogonality", float(ortho), DEFECT_TOL)
    sup_ok = all(
        not lev.osc.coeffs
        or (0 not in lev.osc.coeffs and max(abs(l) for l in lev.osc.coeffs) <= (k + 1) * spec.m)
        for k, lev in enumerate(exp.levels)
    )
    check("oscillation_support", sup_ok, True, sup_ok)

    cc = constants(spec, kd)
    rep = check_growth(exp, cc)
    check("growth_envelope", rep.all_ok, True, rep.all_ok)

    omega = args.omega
    ps = periodic_solution(spec, omega)
    below("oracle_periodicity", ps.periodicity_defect, DEFECT_TOL)
    below("oracle_ode_defect", ps.ode_defect, DEFECT_TOL)
    above("oracle_unique_margin", ps.unique_margin, ps.unique_threshold)
    S = partial_sum(exp, args.order, omega, ps.t)
    err = float(np.max(np.linalg.norm(ps.x - S, axis=1)))
    # Two honest error sources: the truncated tail, and the reference
    # solution's own fixed-point conditioning at this frequency.
    scale_x = max(1.0, float(np.max(np.abs(ps.x))))
    budget = float(
        100.0 * scale_x * omega ** -(args.order + 1)
        + 1e3 * INTEGRATOR_TOL * scale_x / ps.unique_margin
    )
    below("partial_sum_error", err, budget)

    if spec.real_mode:
        a1 = float(np.max(np.abs(formal_average(spec, 1).coeff(1) - kd.averaged)))
        below("averaging_routes_agree", a1, 1e-10)

    ok = all(c["ok"] for c in checks)
    report = [
        ("omega", omega, f"validation at order {args.order}, omega {omega:g} "
         f"(asymptotic threshold omega0*scale = {cc.omega0 * cc.scale:.6g}):"),
        ("order", args.order, None),
        ("ok", ok, None),
        ("checks", checks, [_check_line(c) for c in checks]
         + ["all checks passed" if ok else "SOME CHECKS FAILED"]),
    ]
    return report, ok


def _check_line(c) -> str:
    mark = "ok  " if c["ok"] else "FAIL"
    if isinstance(c["value"], float):
        return f"  {mark} {c['name']}: {c['value']:.6g} (threshold {c['threshold']:g})"
    return f"  {mark} {c['name']}: {c['value']}"


_COMMANDS = {
    "analyze": _cmd_analyze,
    "expand": _cmd_expand,
    "evaluate": _cmd_evaluate,
    "stability": _cmd_stability,
    "slope": _cmd_slope,
    "validate": _cmd_validate,
}


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Execute one parsed command; returns (exit_code, report_text)."""
    try:
        spec = load_problem(args.path)
        report, ok = _COMMANDS[args.command](spec, args)
        text = _render(report, args.format)
    except (NoKernelError, DegenerateError) as exc:
        return EXIT_DEGENERATE, f"error: {exc}"
    except NonUniqueError as exc:
        return EXIT_NONUNIQUE, f"error: {exc}"
    except HfoscError as exc:
        return EXIT_INPUT, f"error: {exc}"
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError has no text.
        return EXIT_INPUT, f"error: {str(exc) or 'out of memory'}"
    return (EXIT_OK if ok else EXIT_INPUT), text


def _render(report, fmt: str) -> str:
    """Each command returns a report, a list of (key, value, text) entries.
    The text report is the texts in entry order, each a line, an iterable
    of lines (a generator runs only here) or None; the JSON report is
    {key: value} in entry order."""
    if fmt == "text":
        return "\n".join(line for _, _, text in report
                         for line in ([text] if isinstance(text, str) else text or ()))
    try:
        doc = {key: value for key, value, _ in report}
        return json.dumps(doc, indent=2, allow_nan=False, default=_array_pairs)
    except ValueError:
        # Backstop: a non-finite number no check caught is not valid JSON.
        msg = "the report holds a non-finite number (floating-point overflow)"
        raise NonFiniteError(msg) from None


def _array_pairs(value):
    """``json.dumps`` hook: an array as [re, im] pairs; nothing else encodes."""
    if isinstance(value, np.ndarray):
        return to_pairs(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"must be positive and finite, got {text}")
    return value


def _at_least(low: int, high: float = math.inf):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        if value > high:
            raise ValueError(f"must be at most {high}, got {value}")
        return value

    return parse


def _frequencies(text: str) -> tuple:
    try:
        omegas = tuple(_positive(w) for w in text.split(","))
    except ValueError:
        omegas = ()
    if len(omegas) < 2 or len(set(omegas)) < len(omegas):
        raise ValueError(
            "needs two or more distinct positive finite frequencies, "
            f"comma-separated; got {text!r}"
        )
    return omegas


# Largest --samples.  The report holds every sample: at 10^5 samples
# ``evaluate`` peaks at 0.20 GB resident for n = 3 and 1.0 GB for n = 24 with
# --format json (0.05 and 0.14 GB at 10^4), and at 0.06 and 0.11 GB with
# --format text, which never builds the [re, im] pairs.
MAX_SAMPLES = 100_000

# Each flag once: the commands that take it, its parser and its default.
# ``stability`` takes no --rank-tol: it computes no kernel, and the one rank
# cut of the series test stays at RANK_TOL.  A default of None is the
# library's: ``stability`` passes --trunc and --zero-tol only when given, so
# ``analyze_stability``'s signature is their one home.
_FLAGS = {
    "--rank-tol": (("analyze", "expand", "evaluate", "slope", "validate"), _positive, RANK_TOL),
    "--order": (("expand", "evaluate", "slope", "validate"), _at_least(0), 2),
    "--omega": (("evaluate", "stability", "validate"), _positive, 100.0),
    "--samples": (("evaluate",), _at_least(1, MAX_SAMPLES), 64),
    "--trunc": (("stability",), _at_least(1), None),
    "--zero-tol": (("stability",), _positive, None),
    "--omegas": (("slope",), _frequencies, (100.0, 200.0, 400.0, 800.0)),
}


def _flag_type(flag: str, parse):
    """argparse type for ``flag``.  What ``parse`` rejects raises HfoscError,
    which argparse lets through: ``main`` reports it and returns EXIT_INPUT."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise HfoscError(f"{flag}: {exc}") from None

    return convert


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for degeneracy.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hfosc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        c = sub.add_parser(name)
        c.add_argument("path", help="problem document (JSON)")
        c.add_argument("--format", choices=("text", "json"), default="text")
        c.add_argument("--output", default=None, help="write the report to a file")
        for flag, (commands, parse, default) in _FLAGS.items():
            if name in commands:
                c.add_argument(flag, type=_flag_type(flag, parse), default=default)
    return p


def main(argv=None) -> int:
    """Run one command; ``argv`` defaults to the process's arguments.

    Run as the program (``argv`` None), the report is out once this returns
    and the process ends.  So the objects still alive move into the
    collector's permanent generation, and the full collections of
    interpreter shutdown do not walk numpy's and the package's objects
    again.  A caller that passes ``argv`` goes on running, and its
    collector is left as it was."""
    try:
        return _main(argv)
    finally:
        if argv is None:
            gc.freeze()


def _main(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except HfoscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    code, text = run(args)
    if code != EXIT_OK and text.startswith("error:"):
        print(text, file=sys.stderr)
    elif args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return EXIT_INPUT
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader left (``| head``).  Point stdout at devnull so the
            # interpreter's final flush does not raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
