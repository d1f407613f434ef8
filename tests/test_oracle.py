import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from hfosc import dop853, fixtures, oracle
from hfosc.errors import BoundaryUndecidable, NonFiniteError, NonUniqueError
from hfosc.expansion import expand
from hfosc.model import ProblemSpec
from hfosc.oracle import (
    INTEGRATOR_TOL,
    error_slope,
    floquet_verdict,
    monodromy,
    periodic_solution,
)


def test_scalar_relaxation_closed_form():
    # x' = -x + cos(omega t) + 1 has the periodic solution
    # 1 + (cos(omega t) + omega sin(omega t)) / (1 + omega^2).
    spec = fixtures.scalar_decay()
    omega = 3.0
    T = 2 * np.pi / omega
    ps = periodic_solution(spec, omega)
    assert ps.t.shape == ps.x[:, 0].shape == (oracle.SAMPLES + 1,) == (257,)
    closed = 1.0 + (np.cos(omega * ps.t) + omega * np.sin(omega * ps.t)) / (
        1.0 + omega**2
    )
    assert np.allclose(ps.x[:, 0], closed, atol=1e-10)
    assert np.linalg.eigvals(ps.monodromy)[0] == pytest.approx(math.exp(-T), abs=1e-10)
    assert ps.unique_margin == pytest.approx(1.0 - math.exp(-T), abs=1e-10)
    assert ps.periodicity_defect < 1e-10
    assert ps.ode_defect < 1e-10
    verdict = floquet_verdict(spec, omega)
    assert verdict.kind == "Stable"
    assert verdict.margin == pytest.approx(math.exp(-T) - 1.0, abs=1e-10)


def test_periodic_solution_builds_one_field_map(monkeypatch):
    # The period pass and the defect quadrature share one map per frequency.
    spec = fixtures.random_admissible(seed=2, n=3, m=2, s=1)
    built = []
    field_map = ProblemSpec.field_map

    def counted(self, *args):
        built.append(args)
        return field_map(self, *args)

    monkeypatch.setattr(ProblemSpec, "field_map", counted)
    periodic_solution(spec, 40.0)
    assert built == [(40.0, 40.0)]


def test_one_right_side_for_trajectories_and_blocks():
    spec = fixtures.random_admissible(seed=2, n=3, m=2, s=1)
    omega = 40.0
    field = spec.field_map(omega, omega)
    rng = np.random.default_rng(5)

    def direct(t, Y):
        out = spec.system_matrix(omega * t, omega) @ Y
        out[:, -1] += spec.forcing(omega * t)
        return out

    # The period-map block [Phi | forced response] at one time ...
    Y = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    got = field.apply(0.3, Y)
    assert got.shape == (3, 4)
    assert np.allclose(got, direct(0.3, Y), atol=1e-13)
    # ... and single trajectories at a whole grid of times.
    t = rng.uniform(0.0, 1.0, size=(2, 5))
    y = rng.standard_normal((2, 5, 3, 1)) + 1j * rng.standard_normal((2, 5, 3, 1))
    got = field.apply(t, y)
    assert got.shape == (2, 5, 3, 1)
    for idx in np.ndindex(t.shape):
        assert np.allclose(got[idx], direct(t[idx], y[idx]), atol=1e-13)


@pytest.mark.parametrize("real_mode", [True, False])
@pytest.mark.parametrize("k", ["1", "n+1"])
def test_contracted_rhs_equals_the_field_times_the_states(real_mode, k):
    # Sampler.apply never forms the field on its grid; it must still equal
    # the explicit M @ Y with f added to the last column at every time.
    spec = fixtures.random_admissible(seed=7, n=6, m=3, real_mode=real_mode)
    omega = 90.0
    cols = 1 if k == "1" else spec.n + 1
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 2 * np.pi / omega, size=(4, 10))
    Y = rng.standard_normal((4, 10, spec.n, cols)) + 1j * rng.standard_normal((4, 10, spec.n, cols))
    want = spec.system_matrix(omega * t, omega) @ Y
    want[..., -1] += spec.forcing(omega * t)
    got = spec.field_map(omega, omega).apply(t, Y)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # A real system on real states stays in real arithmetic.
    real = spec.field_map(omega, omega).apply(t, Y.real)
    assert real.dtype == (np.float64 if real_mode else np.complex128)


def test_autonomous_monodromy_is_matrix_exponential():
    spec = fixtures.borderline_stable()
    omega = 10.0
    T = 2 * np.pi / omega
    M = spec.A0 + spec.B0 / omega
    assert np.allclose(monodromy(spec, omega), expm(M * T), atol=1e-9)


def test_integrate_matches_variation_of_constants():
    # Constant M and d0: the pass ends at [e^{MT} | M^-1 (e^{MT} - I) d0],
    # and the periodic solution is the equilibrium -M^-1 d0.
    spec = fixtures.forced_borderline()
    omega = 25.0
    T = 2 * np.pi / omega
    M = spec.A0 + spec.B0 / omega
    E = expm(M * T)
    got = dop853.solve(spec.field_map(omega, omega), T, tol=INTEGRATOR_TOL, max_step=T / 16).y
    assert np.max(np.abs(got[:, :3] - E)) < 1e-14
    forced = np.linalg.solve(M, (E - np.eye(3)) @ spec.forcing.mean())
    assert np.max(np.abs(got[:, 3] - forced)) < 1e-14 * np.max(np.abs(forced))
    ps = periodic_solution(spec, omega)
    equilibrium = -np.linalg.solve(M, spec.forcing.mean())
    assert np.max(np.abs(ps.x - equilibrium)) < 1e-12 * np.max(np.abs(equilibrium))


def test_unit_multiplier_raises_nonunique():
    # A rotation block makes two multipliers hit 1 exactly at omega = 1,
    # although the kernel-geometry side of the problem stays admissible.
    spec = ProblemSpec(
        n=3,
        m=0,
        A0=[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
        B0=np.diag([1.0, 0.0, 0.0]),
        d={0: [1.0, 0.0, 0.0]},
    )
    with pytest.raises(NonUniqueError):
        periodic_solution(spec, 1.0)


def test_periodic_solution_invariants():
    spec = fixtures.random_admissible(seed=2, n=3, m=1)
    omega = 80.0
    ps = periodic_solution(spec, omega)
    assert ps.t.shape == (257,)
    assert ps.x.shape == (257, 3)
    assert ps.period == pytest.approx(2 * np.pi / omega)
    scale = float(np.max(np.abs(ps.x)))
    assert np.linalg.norm(ps.x[-1] - ps.x[0]) <= ps.periodicity_defect + 1e-15
    assert ps.periodicity_defect < 1e-8 * max(1.0, scale)
    assert ps.ode_defect < 1e-8 * max(1.0, scale)
    assert ps.unique_margin > 1e-10
    assert np.allclose(
        np.sort(floquet_verdict(spec, omega).multipliers),
        np.sort(np.linalg.eigvals(ps.monodromy)),
        atol=1e-12,
    )


def test_real_systems_give_conjugate_multipliers():
    spec = fixtures.random_admissible(seed=4, n=4, m=1, s=2)
    ps = periodic_solution(spec, 60.0)
    # Real arithmetic throughout: float64 states and period map, and
    # eigenvalues of a real matrix come in exact conjugate pairs.
    assert ps.x.dtype == ps.monodromy.dtype == np.float64
    assert monodromy(spec, 60.0).dtype == np.float64
    multipliers = floquet_verdict(spec, 60.0).multipliers
    assert multipliers.dtype == np.complex128
    assert np.any(multipliers.imag != 0)
    assert np.array_equal(
        np.sort_complex(multipliers), np.sort_complex(np.conj(multipliers))
    )


@pytest.mark.parametrize("n, m", [(3, 1), (6, 2), (12, 3)])
def test_real_arithmetic_matches_the_complex_path(n, m):
    spec = fixtures.random_admissible(seed=7, n=n, m=m)
    as_complex = dataclasses.replace(spec, real_mode=False)
    omega = 90.0
    real, cplx = periodic_solution(spec, omega), periodic_solution(as_complex, omega)
    assert cplx.x.dtype == cplx.monodromy.dtype == np.complex128
    gap = np.max(np.abs(real.monodromy - cplx.monodromy))
    assert gap <= 1e-12 * np.max(np.abs(cplx.monodromy))
    assert np.max(np.abs(real.x - cplx.x)) <= 1e-10


def test_periodic_solution_integrates_once(monkeypatch):
    calls = []
    solve = dop853.solve

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dop853, "solve", counted)
    periodic_solution(fixtures.random_admissible(seed=2, n=5, m=2), 70.0)
    assert calls == [(5, 6)]


@pytest.mark.parametrize("real_mode", [True, False])
@pytest.mark.parametrize("n", [3, 12])
def test_monodromy_is_the_period_map_of_the_periodic_solution(n, real_mode):
    # Both run the same pass, which always records its step history:
    # recording it must not perturb the run.
    spec = fixtures.random_admissible(seed=4, n=n, m=2, real_mode=real_mode)
    omega = 120.0
    assert np.array_equal(monodromy(spec, omega), periodic_solution(spec, omega).monodromy)


def test_periodic_solution_memory_stays_flat():
    # The step record holds only the stages the interpolant reads, and is
    # dropped before the defect quadrature; a record of every full stage
    # would take about 10 MB here.
    spec = fixtures.random_admissible(seed=1, n=24, m=4)
    periodic_solution(spec, 200.0)  # caches, imports
    tracemalloc.start()
    try:
        periodic_solution(spec, 200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_diagnostics_are_computed_on_first_read(monkeypatch):
    # A solution evaluates its interpolant once, on the sample grid; the
    # defect quadrature (4 blocks of 64 intervals x 10 Gauss nodes on the
    # 256 samples) waits for a read, and a second read reuses the first.
    calls = []
    interpolate = dop853.DenseOutput.__call__

    def counted(self, t):
        calls.append(np.shape(t))
        return interpolate(self, t)

    monkeypatch.setattr(dop853.DenseOutput, "__call__", counted)
    spec = fixtures.random_admissible(seed=2, n=3, m=1)
    ps = periodic_solution(spec, 80.0)
    assert calls == [(257,)]
    defect = ps.ode_defect
    assert calls[1:] == [(64, 10)] * 4
    assert ps.ode_defect == defect and len(calls) == 5

    # The slope reads only samples: no quadrature whether it integrates
    # the frequencies itself or is handed their solutions.
    exp = expand(spec, order=1)
    omegas = (100.0, 200.0)
    calls.clear()
    error_slope(spec, exp, 1, omegas)
    assert calls == [(257,)] * len(omegas)
    solutions = {w: periodic_solution(spec, w) for w in omegas}
    calls.clear()
    error_slope(spec, exp, 1, omegas, solutions=solutions)
    assert calls == []


def test_solution_arrays_are_read_only():
    # The diagnostics read t, x and the period map later, so nothing may
    # change them in between.
    ps = periodic_solution(fixtures.random_admissible(seed=2, n=3, m=1), 80.0)
    for name in ("t", "x", "monodromy"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ps, name)[0] = 0.0


def test_floquet_separates_the_borderline_pair():
    omega = 100.0
    stable = floquet_verdict(fixtures.borderline_stable(), omega)
    assert stable.kind == "Stable"
    assert abs(stable.margin) < 1e-10
    unstable = floquet_verdict(fixtures.borderline_unstable(), omega)
    assert unstable.kind == "Unstable"
    # The growing multiplier is exp(2 pi / omega^2) for this fixture.
    assert unstable.margin == pytest.approx(np.expm1(2 * np.pi / omega**2), rel=1e-6)


def test_thresholds_are_relative_to_the_period():
    # The borderline pair's exponents are 0 and about 1 / omega, so both
    # margins shrink like omega^-2: at 1e5 the unstable one, 6.3e-10, and at
    # 1e6 its sigma_min(I - Phi), 4.4e-12, are far above a bound relative
    # to T, while the stable one's rounding stays under the floor up to 1e9.
    for omega in (1e5, 1e9):
        assert floquet_verdict(fixtures.borderline_stable(), omega).kind == "Stable"
    assert floquet_verdict(fixtures.borderline_unstable(), 1e5).kind == "Unstable"
    ps = periodic_solution(fixtures.borderline_unstable(), 1e6)
    assert ps.unique_threshold == oracle.ROUNDING_FLOOR < ps.unique_margin
    ps = periodic_solution(fixtures.borderline_unstable(), 1e2)
    assert ps.unique_threshold == oracle.UNIQUENESS_TOL * ps.period < ps.unique_margin
    # At omega = 1 the bound, 6.3e-9 of T = 2 pi, is above the former 1e-10,
    # but no decision moves: the unstable fixture's margin is 0.97, and the
    # stable one sits at a resonance, sigma_min = 3.2e-13, refused by both.
    ps = periodic_solution(fixtures.borderline_unstable(), 1.0)
    assert ps.unique_threshold == oracle.UNIQUENESS_TOL * ps.period < ps.unique_margin
    with pytest.raises(NonUniqueError):
        periodic_solution(fixtures.borderline_stable(), 1.0)
    # A unit multiplier that is exact stays one at every frequency.
    for omega in (1.0, 1e2, 1e9):
        with pytest.raises(NonUniqueError):
            periodic_solution(fixtures.degenerate_example(), omega)


def test_defective_unit_cluster_is_undecidable():
    spec = ProblemSpec(
        n=2, m=0, A0=[[0.0, 1.0], [0.0, 0.0]], B0=np.zeros((2, 2)), d={},
    )
    with pytest.raises(BoundaryUndecidable):
        floquet_verdict(spec, 5.0)


def test_semisimple_unit_cluster_is_stable():
    spec = ProblemSpec(n=2, m=0, A0=np.zeros((2, 2)), B0=np.zeros((2, 2)), d={})
    verdict = floquet_verdict(spec, 5.0)
    assert verdict.kind == "Stable"
    assert abs(verdict.margin) < 1e-12


def test_error_slope_tracks_partial_sum_order():
    spec = fixtures.random_admissible(seed=1, n=3, m=1)
    exp = expand(spec, order=2)
    omegas = (100.0, 200.0, 400.0)
    solutions = {w: periodic_solution(spec, w) for w in omegas}
    for r in (0, 1):
        report = error_slope(spec, exp, r, omegas, solutions=solutions)
        assert abs(report.slope + (r + 1)) < 0.4, (r, report.slope, report.errors)
        assert report.order == r
        assert len(report.errors) == 3
        assert all(e > 0 for e in report.errors)


def test_error_slope_integrates_missing_frequencies():
    spec = fixtures.random_admissible(seed=1, n=3, m=1)
    exp = expand(spec, order=1)
    omegas = (100.0, 200.0)
    partial = {100.0: periodic_solution(spec, 100.0)}
    report = error_slope(spec, exp, 1, omegas, solutions=partial)
    assert report.errors == error_slope(spec, exp, 1, omegas).errors


def test_error_slope_is_nan_when_errors_vanish():
    spec = fixtures.random_admissible(seed=0, n=3, m=1, forced=False)
    exp = expand(spec, order=1)
    report = error_slope(spec, exp, 1, (20.0, 40.0))
    assert math.isnan(report.slope)
    assert report.errors == (0.0, 0.0)


def test_error_slope_needs_two_frequencies():
    spec = fixtures.random_admissible(seed=1, n=3, m=1)
    exp = expand(spec, order=1)
    with pytest.raises(ValueError):
        error_slope(spec, exp, 1, (100.0,))
    for omegas in ((100.0, 100.0), (100.0, math.nan), (100.0, -200.0), (0.0, 100.0)):
        with pytest.raises(ValueError):
            error_slope(spec, exp, 1, omegas)


@pytest.mark.parametrize("omega", [0, 0.0, -1.0, math.inf, math.nan])
def test_integrators_need_a_positive_finite_frequency(omega):
    spec = fixtures.random_admissible(seed=1, n=3, m=1)
    for call in (
        lambda: monodromy(spec, omega),
        lambda: periodic_solution(spec, omega),
        lambda: floquet_verdict(spec, omega),
    ):
        with pytest.raises(ValueError, match="omega"):
            call()


def test_a_period_past_the_float_range_raises_non_finite(monkeypatch):
    # 2 pi / omega overflows: no field is formed, nothing is integrated.
    spec = fixtures.random_admissible(seed=1, n=3, m=1)
    exp = expand(spec, order=1)
    monkeypatch.setattr(ProblemSpec, "field_map", lambda *args: pytest.fail("field formed"))
    for call in (
        lambda: monodromy(spec, 1e-310),
        lambda: periodic_solution(spec, 1e-310),
        lambda: floquet_verdict(spec, 1e-310),
        lambda: error_slope(spec, exp, 1, (1e-310, 1.0)),
    ):
        with pytest.raises(NonFiniteError, match="period"):
            call()
