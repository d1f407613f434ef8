"""The numpy DOP853 against its tableau conditions and against scipy's
DOP853, which the tests use as the reference and the package never loads."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hfosc import dop853, fixtures
from hfosc.errors import StepFailure
from hfosc.oracle import INTEGRATOR_TOL, integrate, monodromy, periodic_solution


def test_tableau_row_sums_equal_the_nodes():
    assert np.allclose(dop853.A.sum(axis=1), dop853.C, rtol=0, atol=1e-14)
    assert not np.any(np.triu(dop853.A))  # explicit


@pytest.mark.parametrize("k", range(1, 9))
def test_weights_integrate_powers_exactly_through_order_8(k):
    c = dop853.C[: dop853.STAGES]
    assert dop853.B @ c ** (k - 1) == pytest.approx(1.0 / k, rel=0, abs=1e-14)


def test_error_weights_sum_to_zero():
    assert abs(dop853.E5.sum()) < 1e-14
    assert abs(dop853.E3.sum()) < 1e-14


def test_dense_output_needs_only_the_kept_stages():
    dropped = np.setdiff1d(np.arange(len(dop853.C)), dop853._KEPT)
    assert list(dropped) == [1, 2, 3, 4, 13, 14, 15]
    assert not np.any(dop853.A[dop853.STAGES + 1 :, dropped[:4]])
    assert not np.any(dop853.D[:, dropped[:4]])


def _rhs(spec, omega):
    """The package's right side as scipy's fun(t, y) on flattened blocks."""
    field = spec.field_map(omega, omega)
    return lambda t, y: field.apply(t, y.reshape(spec.n, -1)).reshape(-1)


def _reference(spec, omega, y0, T, dense=False):
    return solve_ivp(
        _rhs(spec, omega), (0.0, T), np.asarray(y0, dtype=complex).reshape(-1),
        method="DOP853", rtol=INTEGRATOR_TOL, atol=INTEGRATOR_TOL,
        max_step=T / 16, dense_output=dense,
    )


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("n, m", [(3, 1), (6, 0), (6, 2), (12, 3), (24, 4)])
def test_period_map_and_periodic_solution_match_scipy(n, m):
    spec = fixtures.random_admissible(seed=3, n=n, m=m)
    omega = 150.0
    T = 2 * np.pi / omega
    ref = _reference(spec, omega, np.eye(n, n + 1), T)
    assert _rel(monodromy(spec, omega), ref.y[:, -1].reshape(n, n + 1)[:, :n]) < 1e-11

    ps = periodic_solution(spec, omega)
    ref = _reference(spec, omega, ps.x0, T, dense=True)
    want = ref.sol(ps.t).T
    want[0] = ps.x0
    assert _rel(ps.x, want) < 1e-11


def test_steps_follow_scipy_step_sequence():
    # Same controller and first step: the same steps, up to rounding.
    spec = fixtures.random_admissible(seed=1, n=6, m=2)
    omega = 80.0
    T = 2 * np.pi / omega
    traj = dop853.solve(
        lambda t: spec.field(omega * t, omega), np.eye(6, 7), 0.0, T,
        tol=INTEGRATOR_TOL, max_step=T / 16,
    )
    ref = _reference(spec, omega, np.eye(6, 7), T)
    assert traj.t.shape == ref.t.shape
    assert np.allclose(traj.t, ref.t, rtol=1e-8, atol=0)
    assert traj.y.shape == (6, 7)


def test_one_field_call_per_attempted_step():
    spec = fixtures.random_admissible(seed=1, n=4, m=2)
    omega = 50.0
    T = 2 * np.pi / omega
    calls = []

    def field(t):
        calls.append(np.shape(t))
        return spec.field(omega * t, omega)

    traj = dop853.solve(
        field, np.ones(4), 0.0, T, tol=INTEGRATOR_TOL, max_step=T / 16, dense=True,
    )
    # The derivative at t0, the trial point of the first step, one call per
    # attempted step on its 12 stage times, and one for all dense stages.
    assert calls[:2] == [(1,), (1,)]
    assert len(calls) - 3 >= len(traj.t) - 1
    assert set(calls[2:-1]) == {(dop853.STAGES,)}
    assert calls[-1] == (len(traj.t) - 1, 3)


def test_integrate_there_and_back_returns_the_start():
    spec = fixtures.random_admissible(seed=2, n=5, m=2)
    omega = 60.0
    x0 = np.linspace(-1.0, 1.0, 5) + 0.5j
    x1 = integrate(spec, omega, x0, 0.1, 0.35)
    back = integrate(spec, omega, x1, 0.35, 0.1)
    assert np.allclose(back, x0, rtol=0, atol=1e-10)
    ref = solve_ivp(
        _rhs(spec, omega), (0.35, 0.1), x1, method="DOP853", rtol=INTEGRATOR_TOL,
        atol=INTEGRATOR_TOL, max_step=(2 * np.pi / omega) / 16,
    )
    assert _rel(back, ref.y[:, -1]) < 1e-11


def test_non_finite_field_stalls_with_step_failure():
    # NaN from t = 0.5 on: every step across it is rejected down to the floor.
    def field(t):
        F = np.zeros(np.shape(t) + (1, 2), dtype=complex)
        F[..., 0, 0] = np.where(np.asarray(t) < 0.5, -1.0, np.nan)
        return F

    with pytest.raises(StepFailure, match="integration stalled at t=0.5") as info:
        dop853.solve(field, [1.0], 0.0, 1.0, tol=1e-12, max_step=0.1)
    assert "non-finite" in str(info.value)
    assert 0.49 < info.value.t < 0.5


def test_block_contracted_with_z_is_the_trajectory_from_its_start():
    # The dense output of [I | 0] along [x0; 1] and a vector run from x0.
    spec = fixtures.random_admissible(seed=5, n=4, m=2)
    omega = 60.0
    T = 2 * np.pi / omega

    def field(t):
        return spec.field(omega * t, omega)

    x0 = np.linspace(-1.0, 1.0, 4)
    block = dop853.solve(field, np.eye(4, 5), 0.0, T, tol=INTEGRATOR_TOL,
                         max_step=T / 16, dense=True)
    vector = dop853.solve(field, x0, 0.0, T, tol=INTEGRATOR_TOL,
                          max_step=T / 16, dense=True)
    t = np.linspace(0.0, T, 50)
    along = block.dense.along(np.append(x0, 1.0))
    assert along(t).dtype == np.float64
    assert np.allclose(along(t), vector.dense.along([1.0])(t), rtol=0, atol=1e-11)
    assert np.allclose(along(T), block.y @ np.append(x0, 1.0), rtol=0, atol=1e-14)


@pytest.mark.parametrize("t0, t1", [(0.0, np.nan), (np.inf, 1.0), (0.0, -np.inf)])
def test_solve_needs_finite_times(t0, t1):
    with pytest.raises(ValueError, match="finite"):
        dop853.solve(lambda t: np.zeros(np.shape(t) + (1, 2)), [1.0], t0, t1,
                     tol=1e-12, max_step=0.1)


def test_dense_output_needs_a_forward_run():
    field = lambda t: np.full(np.shape(t) + (1, 2), -1.0)  # noqa: E731
    with pytest.raises(ValueError, match="forward"):
        dop853.solve(field, [1.0], 1.0, 0.0, tol=1e-12, max_step=0.1, dense=True)
    back = dop853.solve(field, [1.0], 1.0, 0.0, tol=1e-12, max_step=0.1)
    assert back.dense is None and back.y[0] == pytest.approx(2 * np.e - 1, rel=1e-10)


def test_solve_needs_a_state_of_the_field_dimension():
    field = lambda t: np.zeros(np.shape(t) + (2, 3))  # noqa: E731
    for y0 in ([1.0], np.ones((3, 2)), 1.0):
        with pytest.raises(ValueError, match="n = 2"):
            dop853.solve(field, y0, 0.0, 1.0, tol=1e-12, max_step=0.1)
