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
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from .averaging import DEFAULT_TRUNC, ZERO_TOL, analyze_stability, formal_average
from .errors import (
    BoundaryUndecidable,
    DegenerateError,
    HfoscError,
    NoKernelError,
    NonUniqueError,
)
from .expansion import expand, partial_sum, safe_norm
from .model import load_problem, to_pairs
from .oracle import INTEGRATOR_TOL, UNIQUENESS_TOL
from .oracle import error_slope, floquet_verdict, period, periodic_solution
from .spectral import RANK_TOL, averaged_matrix, compute_kernel_data

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_NONUNIQUE = 3

# Bound on the defects and residuals that ``validate`` checks.
DEFECT_TOL = 1e-8


def _fmt_c(z) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:+.6g}"
    return f"{z.real:+.6g}{z.imag:+.6g}j"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt_c(z) for z in np.asarray(v).ravel()) + "]"


def _basis_lines(label, basis) -> list:
    out = [f"{label}:"]
    for j in range(basis.shape[1]):
        out.append(f"  {j + 1}: {_fmt_vec(basis[:, j])}")
    return out


def _cmd_analyze(spec, args):
    kd = compute_kernel_data(spec, rank_tol=args.rank_tol)
    norm_spec, scale = bounds_mod.normalize(spec)
    cc = bounds_mod.constants(
        norm_spec, compute_kernel_data(norm_spec, rank_tol=args.rank_tol)
    )
    doc = {
        "n": spec.n,
        "m": spec.m,
        "real_mode": spec.real_mode,
        "kernel_dim": kd.dim,
        "singular_values": [float(s) for s in kd.sigma],
        "kernel": to_pairs(kd.kernel),
        "left_kernel": to_pairs(kd.left_kernel),
        "averaged": to_pairs(kd.averaged),
        "solvability": to_pairs(kd.solvability),
        "solvability_sigma_min": kd.solvability_sigma_min,
        "scale": scale,
        "K": cc.K,
        "L": cc.L,
        "omega0": cc.omega0,
    }
    lines = [
        f"problem: n={spec.n} m={spec.m} "
        + ("real" if spec.real_mode else "complex"),
        f"zero eigenvalue multiplicity: {kd.dim}",
        f"singular values of A0: {', '.join(f'{s:.6g}' for s in kd.sigma)}",
    ]
    lines += _basis_lines("kernel basis (coefficients refer to these columns)", kd.kernel)
    lines += _basis_lines("left kernel basis", kd.left_kernel)
    lines += [
        f"solvability matrix sigma_min: {kd.solvability_sigma_min:.6g}",
        f"normalization scale: {scale:.6g}",
        f"constants (normalized problem): K={cc.K:g} L={cc.L:.6g} "
        f"omega0={cc.omega0:.6g}",
    ]
    return doc, lines, True


def _cmd_expand(spec, args):
    kd = compute_kernel_data(spec, rank_tol=args.rank_tol)
    exp = expand(spec, args.order, kernel_data=kd)
    levels = [
        {
            "mean": to_pairs(lev.mean),
            "kernel_coeff": to_pairs(lev.kernel_coeff),
            "oscillation": to_pairs(lev.osc.coeffs),
            "harmonics": to_pairs(lev.harmonics.coeffs),
            "forcing": to_pairs(lev.forcing),
            "harmonic_mass": lev.harmonic_mass,
            "solvability_defect": lev.solvability_defect,
        }
        for lev in exp.levels
    ]
    doc = {
        "order": exp.order,
        "kernel_dim": kd.dim,
        "kernel": to_pairs(kd.kernel),
        "leading": to_pairs(exp.leading),
        "leading_defect": exp.leading_defect,
        "levels": levels,
    }
    lines = [
        f"expansion to order {exp.order} (kernel dim {kd.dim})",
    ]
    lines += _basis_lines("kernel basis (coefficients refer to these columns)", kd.kernel)
    lines.append(f"leading kernel coefficients (O(omega) term): {_fmt_vec(exp.leading)}")
    for k, lev in enumerate(exp.levels):
        lines.append(
            f"order {k}: |mean|={safe_norm(lev.mean):.6g} "
            f"kernel_coeff={_fmt_vec(lev.kernel_coeff)} "
            f"harmonics={len(lev.osc.coeffs)} "
            f"defect={lev.solvability_defect:.3g}"
        )
    return doc, lines, True


def _cmd_evaluate(spec, args):
    exp = expand(spec, args.order, compute_kernel_data(spec, rank_tol=args.rank_tol))
    t = np.linspace(0.0, period(args.omega), args.samples + 1)
    x = partial_sum(exp, args.order, args.omega, t)
    doc = {
        "omega": args.omega,
        "order": args.order,
        "t": [float(v) for v in t],
        "x": to_pairs(x),
    }
    lines = [f"partial sum of order {args.order} at omega={args.omega:g} over one period"]
    for ti, xi in zip(t, x):
        lines.append(f"  t={ti:.9g}: {_fmt_vec(xi)}")
    return doc, lines, True


def _cmd_stability(spec, args):
    verdict = analyze_stability(spec, trunc=args.trunc, zero_tol=args.zero_tol)
    doc = {
        "trunc": verdict.trunc,
        "zero_tol": verdict.zero_tol,
        "series": {
            "kind": verdict.kind,
            "detail": verdict.detail,
            "leaders": [
                None if leader is None else [leader[0], leader[1]]
                for leader in verdict.leaders
            ],
            "zero_ratios": list(verdict.zero_ratios),
            "imag_ratio": verdict.imag_ratio,
            "imag_tol": verdict.imag_tol,
        },
    }
    lines = [
        f"series test (through 1/omega^{verdict.trunc}): {verdict.kind}",
        f"  {verdict.detail}",
    ]
    try:
        fv = floquet_verdict(spec, args.omega)
        doc["floquet"] = {
            "omega": args.omega,
            "kind": fv.kind,
            "margin": fv.margin,
            "multipliers": to_pairs(fv.multipliers),
        }
        lines.append(
            f"multiplier test at omega={args.omega:g}: {fv.kind} "
            f"(max |multiplier| - 1 = {fv.margin:.3e})"
        )
    except BoundaryUndecidable as exc:
        doc["floquet"] = {"omega": args.omega, "kind": "Undecidable", "detail": str(exc)}
        lines.append(f"multiplier test at omega={args.omega:g}: Undecidable ({exc})")
    return doc, lines, True


def _cmd_slope(spec, args):
    exp = expand(spec, args.order, compute_kernel_data(spec, rank_tol=args.rank_tol))
    rep = error_slope(spec, exp, args.order, args.omegas)
    doc = {
        "order": rep.order,
        "omegas": list(rep.omegas),
        "errors": list(rep.errors),
        # NaN when every error sits at rounding level (d = 0 gives x = 0).
        "slope": None if math.isnan(rep.slope) else rep.slope,
        "expected": -(rep.order + 1),
    }
    lines = [f"order {rep.order} error against the reference solution:"]
    for w, e in zip(rep.omegas, rep.errors):
        lines.append(f"  omega={w:g}: {e:.6e}")
    lines.append(f"slope: {rep.slope:.3f} (expected about {-(rep.order + 1)})")
    return doc, lines, True


def _cmd_validate(spec, args):
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

    rng = np.random.default_rng(0)
    worst_inv = 0.0
    worst_perp = 0.0
    for _ in range(8):
        g = rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n)
        g -= kd.left_kernel @ (kd.left_kernel.conj().T @ g)
        h = kd.restricted_inverse @ g
        worst_inv = max(worst_inv, float(np.linalg.norm(spec.A0 @ h - g)))
        worst_perp = max(worst_perp, float(np.max(np.abs(kd.kernel.conj().T @ h))))
    below("partial_inverse_residual", worst_inv, DEFECT_TOL)
    below("partial_inverse_orthogonality", worst_perp, DEFECT_TOL)

    exp = expand(spec, args.order, kernel_data=kd)
    # The levels grow geometrically, so each defect is measured against
    # max(1, the size of its data).  Sweep e closes 0 = A0 x_e + A1 v_{e-1}
    # + theta_e for C_{e-1}; the last sweep's theta and x are not kept.
    a1 = float(np.linalg.norm(kd.averaged, 2))
    coeffs = [exp.leading] + [lev.kernel_coeff for lev in exp.levels]
    defects = [exp.leading_defect] + [lev.solvability_defect for lev in exp.levels]
    sizes = [max(safe_norm(lev.forcing), safe_norm(lev.mean)) for lev in exp.levels] + [0.0]
    defect = max(
        d / max(1.0, a1 * safe_norm(c), size) for d, c, size in zip(defects, coeffs, sizes)
    )
    below("expansion_solvability_defect", float(defect), DEFECT_TOL)
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

    norm_spec, scale = bounds_mod.normalize(spec)
    nkd = compute_kernel_data(norm_spec, rank_tol=args.rank_tol)
    cc = bounds_mod.constants(norm_spec, nkd)
    nexp = expand(norm_spec, args.order, kernel_data=nkd)
    rep = bounds_mod.check_growth(nexp, cc)
    check("growth_envelope", rep.all_ok, True, rep.all_ok)

    omega = args.omega
    ps = periodic_solution(spec, omega)
    below("oracle_periodicity", ps.periodicity_defect, DEFECT_TOL)
    below("oracle_ode_defect", ps.ode_defect, DEFECT_TOL)
    above("oracle_unique_margin", ps.unique_margin, UNIQUENESS_TOL)
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
        a1 = float(
            np.max(np.abs(formal_average(spec, 1).coeff(1) - averaged_matrix(spec)))
        )
        below("averaging_routes_agree", a1, 1e-10)

    ok = all(c["ok"] for c in checks)
    doc = {"omega": omega, "order": args.order, "ok": ok, "checks": checks}
    lines = [
        f"validation at order {args.order}, omega {omega:g} "
        f"(asymptotic threshold omega0*scale = {cc.omega0 * scale:.6g}):"
    ]
    for c in checks:
        mark = "ok  " if c["ok"] else "FAIL"
        lines.append(f"  {mark} {c['name']}: {c['value']:.6g} (threshold {c['threshold']:g})"
                     if isinstance(c["value"], float)
                     else f"  {mark} {c['name']}: {c['value']}")
    lines.append("all checks passed" if ok else "SOME CHECKS FAILED")
    return doc, lines, ok


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
        doc, lines, ok = _COMMANDS[args.command](spec, args)
    except (NoKernelError, DegenerateError) as exc:
        return EXIT_DEGENERATE, f"error: {exc}"
    except NonUniqueError as exc:
        return EXIT_NONUNIQUE, f"error: {exc}"
    except HfoscError as exc:
        return EXIT_INPUT, f"error: {exc}"
    if args.format == "text":
        return (EXIT_OK if ok else EXIT_INPUT), "\n".join(lines)
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        # Backstop: a non-finite number no check caught is not valid JSON.
        return EXIT_INPUT, "error: the report holds a non-finite number (floating-point overflow)"
    return (EXIT_OK if ok else EXIT_INPUT), text


def _positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"must be positive and finite, got {text}")
    return value


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
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


# Each flag once: the commands that take it, its parser and its default.
# ``stability`` takes no --rank-tol: it computes no kernel, and the one rank
# cut of the series test stays at RANK_TOL.
_FLAGS = {
    "--rank-tol": (("analyze", "expand", "evaluate", "slope", "validate"), _positive, RANK_TOL),
    "--order": (("expand", "evaluate", "slope", "validate"), _at_least(0), 2),
    "--omega": (("evaluate", "stability", "validate"), _positive, 100.0),
    "--samples": (("evaluate",), _at_least(1), 64),
    "--trunc": (("stability",), _at_least(1), DEFAULT_TRUNC),
    "--zero-tol": (("stability",), _positive, ZERO_TOL),
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
