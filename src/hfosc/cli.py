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
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .averaging import analyze_stability, formal_average
from .errors import (
    BoundaryUndecidable,
    DegenerateError,
    HfoscError,
    NoKernelError,
    NonUniqueError,
    SchemaError,
)
from .expansion import expand, partial_sum
from .model import load_problem
from .oracle import error_slope, floquet_verdict, periodic_solution
from .spectral import RANK_TOL, averaged_matrix, compute_kernel_data

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_NONUNIQUE = 3


@dataclass
class RunConfig:
    command: str
    path: str
    order: int = 2
    omega: float = 100.0
    omegas: tuple = (100.0, 200.0, 400.0, 800.0)
    trunc: int = 6
    samples: int = 64
    rank_tol: float = RANK_TOL
    zero_tol: float = 1e-9
    fmt: str = "text"
    output: str | None = None


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _vec(v) -> list:
    return [_pair(z) for z in np.asarray(v).ravel()]


def _mat(M) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(M)]


def _fmt_c(z, prec=6) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:+.{prec}g}"
    return f"{z.real:+.{prec}g}{z.imag:+.{prec}g}j"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt_c(z) for z in np.asarray(v).ravel()) + "]"


def _basis_lines(label, basis) -> list:
    out = [f"{label}:"]
    for j in range(basis.shape[1]):
        out.append(f"  {j + 1}: {_fmt_vec(basis[:, j])}")
    return out


def _cmd_analyze(spec, cfg: RunConfig):
    kd = compute_kernel_data(spec, rank_tol=cfg.rank_tol)
    norm_spec, scale = bounds_mod.normalize(spec)
    cc = bounds_mod.constants(
        norm_spec, compute_kernel_data(norm_spec, rank_tol=cfg.rank_tol)
    )
    doc = {
        "n": spec.n,
        "m": spec.m,
        "real_mode": spec.real_mode,
        "kernel_dim": kd.dim,
        "singular_values": [float(s) for s in kd.sigma],
        "kernel": _mat(kd.kernel),
        "left_kernel": _mat(kd.left_kernel),
        "averaged": _mat(kd.averaged),
        "solvability": _mat(kd.solvability),
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
    return doc, lines


def _cmd_expand(spec, cfg: RunConfig):
    kd = compute_kernel_data(spec, rank_tol=cfg.rank_tol)
    exp = expand(spec, cfg.order, kernel_data=kd)
    levels = []
    for lev in exp.levels:
        levels.append(
            {
                "mean": _vec(lev.mean),
                "kernel_coeff": _vec(lev.kernel_coeff),
                "oscillation": {
                    str(l): _vec(c) for l, c in sorted(lev.osc.coeffs.items())
                },
                "harmonics": {
                    str(l): _vec(c) for l, c in sorted(lev.harmonics.coeffs.items())
                },
                "forcing": _vec(lev.forcing),
                "harmonic_mass": lev.harmonic_mass,
                "solvability_defect": lev.solvability_defect,
            }
        )
    doc = {
        "order": exp.order,
        "kernel_dim": kd.dim,
        "kernel": _mat(kd.kernel),
        "leading": _vec(exp.leading),
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
            f"order {k}: |mean|={np.linalg.norm(lev.mean):.6g} "
            f"kernel_coeff={_fmt_vec(lev.kernel_coeff)} "
            f"harmonics={len(lev.osc.coeffs)} "
            f"defect={lev.solvability_defect:.3g}"
        )
    return doc, lines


def _cmd_evaluate(spec, cfg: RunConfig):
    exp = expand(spec, cfg.order, compute_kernel_data(spec, rank_tol=cfg.rank_tol))
    T = 2 * np.pi / cfg.omega
    t = np.linspace(0.0, T, cfg.samples + 1)
    x = partial_sum(exp, cfg.order, cfg.omega, t)
    doc = {
        "omega": cfg.omega,
        "order": cfg.order,
        "t": [float(v) for v in t],
        "x": [_vec(row) for row in x],
    }
    lines = [f"partial sum of order {cfg.order} at omega={cfg.omega:g} over one period"]
    for ti, xi in zip(t, x):
        lines.append(f"  t={ti:.9g}: {_fmt_vec(xi)}")
    return doc, lines


def _cmd_stability(spec, cfg: RunConfig):
    verdict = analyze_stability(spec, trunc=cfg.trunc, zero_tol=cfg.zero_tol)
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
        fv = floquet_verdict(spec, cfg.omega)
        doc["floquet"] = {
            "omega": cfg.omega,
            "kind": fv.kind,
            "margin": fv.margin,
            "multipliers": _vec(fv.multipliers),
        }
        lines.append(
            f"multiplier test at omega={cfg.omega:g}: {fv.kind} "
            f"(max |multiplier| - 1 = {fv.margin:.3e})"
        )
    except BoundaryUndecidable as exc:
        doc["floquet"] = {"omega": cfg.omega, "kind": "Undecidable", "detail": str(exc)}
        lines.append(f"multiplier test at omega={cfg.omega:g}: Undecidable ({exc})")
    return doc, lines


def _cmd_slope(spec, cfg: RunConfig):
    exp = expand(spec, cfg.order, compute_kernel_data(spec, rank_tol=cfg.rank_tol))
    rep = error_slope(spec, exp, cfg.order, cfg.omegas)
    doc = {
        "order": rep.order,
        "omegas": list(rep.omegas),
        "errors": list(rep.errors),
        "slope": rep.slope,
        "expected": -(rep.order + 1),
    }
    lines = [f"order {rep.order} error against the reference solution:"]
    for w, e in zip(rep.omegas, rep.errors):
        lines.append(f"  omega={w:g}: {e:.6e}")
    lines.append(f"slope: {rep.slope:.3f} (expected about {-(rep.order + 1)})")
    return doc, lines


def _cmd_validate(spec, cfg: RunConfig):
    checks = []

    def check(name, ok, value, threshold):
        checks.append(
            {"name": name, "ok": bool(ok), "value": value, "threshold": threshold}
        )

    kd = compute_kernel_data(spec, rank_tol=cfg.rank_tol)
    check("kernel_dim >= 1", kd.dim >= 1, kd.dim, 1)
    check(
        "solvability_sigma_min",
        kd.solvability_sigma_min > 1e-10,
        kd.solvability_sigma_min,
        1e-10,
    )

    rng = np.random.default_rng(0)
    worst_inv = 0.0
    worst_perp = 0.0
    for _ in range(8):
        g = rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n)
        g -= kd.left_kernel @ (kd.left_kernel.conj().T @ g)
        h = kd.restricted_inverse @ g
        worst_inv = max(worst_inv, float(np.linalg.norm(spec.A0 @ h - g)))
        worst_perp = max(worst_perp, float(np.max(np.abs(kd.kernel.conj().T @ h))))
    check("partial_inverse_residual", worst_inv < 1e-8, worst_inv, 1e-8)
    check("partial_inverse_orthogonality", worst_perp < 1e-8, worst_perp, 1e-8)

    exp = expand(spec, cfg.order, kernel_data=kd)
    defect = max(
        [exp.leading_defect] + [lev.solvability_defect for lev in exp.levels]
    )
    check("expansion_solvability_defect", defect < 1e-8, defect, 1e-8)
    ortho = max(
        float(np.max(np.abs(kd.kernel.conj().T @ lev.mean))) for lev in exp.levels
    )
    check("expansion_mean_orthogonality", ortho < 1e-8, ortho, 1e-8)
    sup_ok = all(
        not lev.osc.coeffs
        or (0 not in lev.osc.coeffs and max(abs(l) for l in lev.osc.coeffs) <= (k + 1) * spec.m)
        for k, lev in enumerate(exp.levels)
    )
    check("oscillation_support", sup_ok, sup_ok, True)

    norm_spec, scale = bounds_mod.normalize(spec)
    nkd = compute_kernel_data(norm_spec, rank_tol=cfg.rank_tol)
    cc = bounds_mod.constants(norm_spec, nkd)
    nexp = expand(norm_spec, cfg.order, kernel_data=nkd)
    rep = bounds_mod.check_growth(nexp, cc)
    check("growth_envelope", rep.all_ok, rep.all_ok, True)

    omega = cfg.omega
    ps = periodic_solution(spec, omega)
    check("oracle_periodicity", ps.periodicity_defect < 1e-8, ps.periodicity_defect, 1e-8)
    check("oracle_ode_defect", ps.ode_defect < 1e-8, ps.ode_defect, 1e-8)
    check("oracle_unique_margin", ps.unique_margin > 1e-10, ps.unique_margin, 1e-10)
    S = partial_sum(exp, cfg.order, omega, ps.t)
    err = float(np.max(np.linalg.norm(ps.x - S, axis=1)))
    # Two honest error sources: the truncated tail, and the reference
    # solution's own fixed-point conditioning at this frequency.
    scale_x = max(1.0, float(np.max(np.abs(ps.x))))
    budget = float(
        100.0 * scale_x * omega ** -(cfg.order + 1)
        + 1e3 * 1e-12 * scale_x / ps.unique_margin
    )
    check("partial_sum_error", err < budget, err, budget)

    if spec.real_mode:
        a1 = float(
            np.max(np.abs(formal_average(spec, 1).coeff(1) - averaged_matrix(spec)))
        )
        check("averaging_routes_agree", a1 < 1e-10, a1, 1e-10)

    ok = all(c["ok"] for c in checks)
    doc = {"omega": omega, "order": cfg.order, "ok": ok, "checks": checks}
    lines = [
        f"validation at order {cfg.order}, omega {omega:g} "
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


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit_code, report_text)."""
    try:
        spec = load_problem(cfg.path)
        result = _COMMANDS[cfg.command](spec, cfg)
    except SchemaError as exc:
        return EXIT_INPUT, f"error: {exc}"
    except (NoKernelError, DegenerateError) as exc:
        return EXIT_DEGENERATE, f"error: {exc}"
    except NonUniqueError as exc:
        return EXIT_NONUNIQUE, f"error: {exc}"
    except HfoscError as exc:
        return EXIT_INPUT, f"error: {exc}"
    if len(result) == 3:
        doc, lines, ok = result
        code = EXIT_OK if ok else EXIT_INPUT
    else:
        doc, lines = result
        code = EXIT_OK
    text = json.dumps(doc, indent=2) if cfg.fmt == "json" else "\n".join(lines)
    return code, text


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
        if name != "stability":  # the series test computes no kernel
            c.add_argument("--rank-tol", type=float, default=RANK_TOL)
        if name in ("expand", "evaluate", "slope", "validate"):
            c.add_argument("--order", type=int, default=2)
        if name in ("evaluate", "stability", "validate"):
            c.add_argument("--omega", type=float, default=100.0)
        if name == "evaluate":
            c.add_argument("--samples", type=int, default=64)
        if name == "stability":
            c.add_argument("--trunc", type=int, default=6)
            c.add_argument("--zero-tol", type=float, default=1e-9)
        if name == "slope":
            c.add_argument(
                "--omegas",
                default="100,200,400,800",
                help="comma-separated frequencies",
            )
    return p


def _range_error(args) -> str | None:
    """Why a numeric flag is out of range, or None when all are in range."""
    for name in ("omega", "rank_tol", "zero_tol"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            return f"--{name.replace('_', '-')} must be positive and finite, got {value}"
    for name, low in (("order", 0), ("trunc", 1), ("samples", 1)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            return f"--{name} must be at least {low}, got {value}"
    omegas = getattr(args, "omegas", None)
    if omegas is not None and not (
        len(set(omegas)) == len(omegas) >= 2
        and all(math.isfinite(w) and w > 0 for w in omegas)
    ):
        return "--omegas needs two or more distinct positive finite frequencies"
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if hasattr(args, "omegas"):
        try:
            args.omegas = tuple(float(w) for w in args.omegas.split(","))
        except ValueError:
            print("error: --omegas expects comma-separated numbers", file=sys.stderr)
            return EXIT_INPUT
    problem = _range_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_INPUT
    kwargs = {
        "command": args.command,
        "path": args.path,
        "fmt": args.format,
        "output": args.output,
    }
    for field in ("order", "omega", "omegas", "samples", "trunc", "rank_tol", "zero_tol"):
        if hasattr(args, field):
            kwargs[field] = getattr(args, field)
    code, text = run(RunConfig(**kwargs))
    if code != EXIT_OK and text.startswith("error:"):
        print(text, file=sys.stderr)
    elif kwargs.get("output"):
        with open(kwargs["output"], "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
