"""Acceptance gate: one test per release criterion.

Each test computes its measurements first, then records a single PASS/FAIL
line (printed after the run) and asserts.  Tolerances are pinned here on
purpose; loosening them is a release decision, not a test fix.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from hfosc import fixtures
from hfosc.averaging import (
    char_poly_series,
    classify,
    formal_average,
    hurwitz_series,
    transform_residual,
)
from hfosc.bounds import check_growth, constants, normalize
from hfosc.errors import DegenerateError
from hfosc.expansion import expand
from hfosc.model import ProblemSpec
from hfosc.oracle import error_slope, floquet_verdict, periodic_solution
from hfosc.spectral import averaged_matrix, compute_kernel_data

# Randomized-instance pins: (n, m, s, seed).  Chosen once by screening for
# admissibility margin; the tests below must pass for exactly these.
SLOPE_INSTANCES = [(3, 1, 1, 1), (3, 2, 1, 1), (4, 1, 2, 1), (4, 2, 2, 1), (2, 1, 1, 3)]
RECURSION_INSTANCES = SLOPE_INSTANCES + [(3, 1, 3, 1)]


def _pinned(n, m, s, seed):
    return fixtures.random_admissible(seed=seed, n=n, m=m, s=s)


def test_criterion_1_borderline_series_anchor(record_criterion):
    ok = False
    detail = "raised before completing"
    try:
        start = time.monotonic()
        coeff_err = 0.0
        minor_err = 0.0
        kinds = []
        floquet_kinds = []
        for spec, sign in (
            (fixtures.borderline_stable(), 1.0),
            (fixtures.borderline_unstable(), -1.0),
        ):
            alphas = char_poly_series(formal_average(spec, trunc=6))
            want = {(0, 0): 1.0, (2, 1): sign, (2, 2): sign}
            for q in range(7):
                for k in range(3):
                    target = want.get((q, k), 0.0)
                    coeff_err = max(coeff_err, abs(alphas[k].coeff(q) - target))
            minors = hurwitz_series(alphas)
            minor_err = max(minor_err, abs(minors[0].coeff(0) - 1.0))
            minor_err = max(
                minor_err,
                max(abs(minors[0].coeff(q)) for q in range(1, 7)),
                max(abs(minors[1].coeff(q)) for q in range(7)),
                max(abs(minors[2].coeff(q)) for q in range(7)),
            )
            kinds.append(classify(minors).kind)
            floquet_kinds.append(floquet_verdict(spec, 100.0).kind)
        elapsed = time.monotonic() - start
        ok = (
            coeff_err < 1e-12
            and minor_err < 1e-12
            and kinds == ["Inconclusive", "Inconclusive"]
            and floquet_kinds == ["Stable", "Unstable"]
            and elapsed < 1.0
        )
        detail = (
            f"coeff_err={coeff_err:.2e} minor_err={minor_err:.2e} "
            f"series={kinds} multipliers={floquet_kinds} runtime={elapsed:.2f}s"
        )
    finally:
        record_criterion(1, "borderline series anchor", ok, detail)
    assert ok, detail


def test_criterion_2_asymptotic_error_slopes(record_criterion):
    ok = False
    detail = "raised before completing"
    try:
        start = time.monotonic()
        omegas = (100.0, 200.0, 400.0, 800.0)
        worst_dev = 0.0
        worst_case = None
        for n, m, s, seed in SLOPE_INSTANCES:
            spec = _pinned(n, m, s, seed)
            solutions = {w: periodic_solution(spec, w) for w in omegas}
            exp = expand(spec, order=2)
            for r in (0, 1, 2):
                rep = error_slope(spec, exp, r, omegas, solutions=solutions)
                dev = abs(rep.slope + (r + 1))
                if dev > worst_dev:
                    worst_dev = dev
                    worst_case = (n, m, s, seed, r, round(rep.slope, 3))
        elapsed = time.monotonic() - start
        ok = worst_dev < 0.4 and elapsed < 30.0
        detail = (
            f"{len(SLOPE_INSTANCES)} instances, worst |slope+(r+1)|="
            f"{worst_dev:.3f} at {worst_case}, runtime={elapsed:.1f}s"
        )
    finally:
        record_criterion(2, "asymptotic error slopes", ok, detail)
    assert ok, detail


def test_criterion_3_averaging_route_consistency(record_criterion):
    ok = False
    detail = "raised before completing"
    try:
        worst_gap = 0.0
        count = 0
        for seed in range(10):
            for n, m in ((3, 1), (4, 2)):
                spec = fixtures.random_admissible(seed=seed, n=n, m=m)
                gap = float(
                    np.max(
                        np.abs(
                            formal_average(spec, 1).coeff(1) - averaged_matrix(spec)
                        )
                    )
                )
                worst_gap = max(worst_gap, gap)
                count += 1
        worst_slope_dev = 0.0
        omegas = np.array([50.0, 100.0, 200.0])
        for seed, n, m in ((1, 3, 1), (0, 3, 2)):
            spec = fixtures.random_admissible(seed=seed, n=n, m=m)
            for trunc in (1, 2, 3):
                res = [transform_residual(spec, w, trunc, samples=32) for w in omegas]
                slope = float(np.polyfit(np.log(omegas), np.log(res), 1)[0])
                worst_slope_dev = max(worst_slope_dev, abs(slope + trunc))
        ok = worst_gap < 1e-10 and worst_slope_dev < 0.4
        detail = (
            f"{count} instances, worst first-order gap={worst_gap:.2e}, "
            f"worst residual slope deviation={worst_slope_dev:.3f}"
        )
    finally:
        record_criterion(3, "averaging route consistency", ok, detail)
    assert ok, detail


def test_criterion_4_recursion_solvability(record_criterion):
    ok = False
    detail = "raised before completing"
    try:
        worst = 0.0
        worst_case = None
        for n, m, s, seed in RECURSION_INSTANCES:
            prime, _ = normalize(_pinned(n, m, s, seed))
            exp = expand(prime, order=8)
            defect = max(
                [exp.leading_defect]
                + [lev.solvability_defect for lev in exp.levels]
            )
            if defect > worst:
                worst = defect
                worst_case = (n, m, s, seed)
        ok = worst < 1e-10
        detail = (
            f"{len(RECURSION_INSTANCES)} instances through order 8, "
            f"worst kernel projection={worst:.2e} at {worst_case}"
        )
    finally:
        record_criterion(4, "recursion solvability", ok, detail)
    assert ok, detail


def test_criterion_5_growth_envelope(record_criterion):
    ok = False
    detail = "raised before completing"
    try:
        all_ok = True
        worst_margin = None
        for n, m, s, seed in RECURSION_INSTANCES:
            prime, _ = normalize(_pinned(n, m, s, seed))
            cc = constants(prime)
            report = check_growth(expand(prime, order=10), cc, p_max=10)
            all_ok = all_ok and report.all_ok
            # Tightest geometric-budget margin across orders, for the record.
            budgets = np.array(
                [(cc.K * (cc.K * cc.L + 1.0)) ** p for p in range(11)]
            )
            ratio = float(
                np.max(
                    np.maximum(report.theta_norms, report.harmonic_masses) / budgets
                )
            )
            if worst_margin is None or ratio > worst_margin:
                worst_margin = ratio
        ok = all_ok
        detail = (
            f"{len(RECURSION_INSTANCES)} normalized instances, p <= 10; "
            f"tightest usage of the geometric budget={worst_margin:.3g}"
        )
    finally:
        record_criterion(5, "growth envelope", ok, detail)
    assert ok, detail


def test_criterion_6_reference_solver_integrity(record_criterion):
    ok = False
    detail = "raised before completing"
    try:
        suite = [
            ("forced_borderline", fixtures.forced_borderline()),
            ("borderline_stable", fixtures.borderline_stable()),
            ("borderline_unstable", fixtures.borderline_unstable()),
            ("rand(3,1,1,1)", _pinned(3, 1, 1, 1)),
            ("rand(4,1,2,1)", _pinned(4, 1, 2, 1)),
            ("rand(2,1,1,3)", _pinned(2, 1, 1, 3)),
        ]
        worst_per = 0.0
        worst_ode = 0.0
        worst_expm = 0.0
        min_margin = np.inf
        for name, spec in suite:
            prime, scale = normalize(spec)
            omega = 4.0 * constants(prime).omega0 * scale
            ps = periodic_solution(spec, omega)
            worst_per = max(worst_per, ps.periodicity_defect)
            worst_ode = max(worst_ode, ps.ode_defect)
            min_margin = min(min_margin, ps.unique_margin)
            if spec.m == 0:
                M = (spec.A0 + spec.B0 / omega) * ps.period
                worst_expm = max(
                    worst_expm, float(np.max(np.abs(ps.monodromy - expm(M))))
                )
        ok = (
            worst_per < 1e-9
            and worst_ode < 1e-8
            and worst_expm < 1e-9
            and min_margin > 1e-10
        )
        detail = (
            f"{len(suite)} fixtures at omega=4*omega0*scale: "
            f"periodicity={worst_per:.2e} ode={worst_ode:.2e} "
            f"expm_gap={worst_expm:.2e} min sigma_min(I-Phi)={min_margin:.2e}"
        )
    finally:
        record_criterion(6, "reference solver integrity", ok, detail)
    assert ok, detail


def test_criterion_7_degeneracy_detection(record_criterion):
    ok = False
    detail = "raised before completing"
    try:
        with pytest.raises(DegenerateError):
            compute_kernel_data(fixtures.degenerate_example())

        def brute_sigma(A0, A1, kernel, s):
            """Least-squares route: the part of A1*kernel outside range(A0)."""
            sol = np.linalg.lstsq(A0.astype(complex), -(A1 @ kernel), rcond=None)[0]
            residual = A1 @ kernel + A0 @ sol
            return float(np.linalg.svd(residual, compute_uv=False)[s - 1])

        agreed = 0
        total = 0
        for i in range(25):
            n = 3 if i % 2 == 0 else 4
            spec = fixtures.random_admissible(seed=100 + i, n=n, m=1)
            kd = compute_kernel_data(spec)  # must not raise
            sigma = brute_sigma(spec.A0, kd.averaged, kd.kernel, kd.dim)
            total += 1
            agreed += sigma > 1e-6

            # Doctor the same instance: kill one row of the solvability
            # matrix with a rank-one update that leaves A0 untouched.
            z1 = kd.left_kernel[:, :1]
            B0 = spec.B0 - z1 @ (z1.conj().T @ kd.averaged)
            bad = ProblemSpec(
                n=spec.n, m=spec.m, A0=spec.A0, B0=B0,
                B=dict(spec.B), d=dict(spec.d), real_mode=False,
            )
            raised = False
            try:
                compute_kernel_data(bad)
            except DegenerateError:
                raised = True
            sigma_bad = brute_sigma(bad.A0, averaged_matrix(bad), kd.kernel, kd.dim)
            total += 1
            agreed += raised and sigma_bad < 1e-8
        ok = agreed == total == 50
        detail = f"least-squares route agrees on {agreed}/{total} instances"
    finally:
        record_criterion(7, "degeneracy detection", ok, detail)
    assert ok, detail
