"""The numpy DOP853 against its tableau conditions and against scipy's
DOP853, which the tests use as the reference and the package never loads."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hfosc import dop853, fixtures
from hfosc.errors import StepFailure
from hfosc.model import Sampler, TrigPoly
from hfosc.oracle import INTEGRATOR_TOL, monodromy, periodic_solution


def _constant(F):
    """The constant field [M | f] = F as a real ``Sampler``."""
    return TrigPoly(np.asarray(F)[None]).sampler(real=True)


@dataclasses.dataclass(frozen=True, eq=False)
class _Counting(Sampler):
    """A ``Sampler`` that logs the shape of the times of each call."""

    log: list = dataclasses.field(default_factory=list)

    def __call__(self, t):
        self.log.append(("field", np.shape(t)))
        return super().__call__(t)

    def apply(self, t, Y):
        self.log.append(("apply", np.shape(t)))
        return super().apply(t, Y)


@dataclasses.dataclass(frozen=True, eq=False)
class _NanFrom(Sampler):
    """A ``Sampler`` whose basis, and so its field, is NaN from time ``start`` on."""

    start: float

    def basis(self, t):
        out = super().basis(t)
        out[np.asarray(t) >= self.start] = np.nan
        return out


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
    ref = _reference(spec, omega, ps.x[0], T, dense=True)
    want = ref.sol(ps.t).T
    want[0] = ps.x[0]
    assert _rel(ps.x, want) < 1e-11


def test_steps_follow_scipy_step_sequence():
    # Same controller and first step: the same steps, up to rounding.
    spec = fixtures.random_admissible(seed=1, n=6, m=2)
    omega = 80.0
    T = 2 * np.pi / omega
    traj = dop853.solve(spec.field_map(omega, omega), T, tol=INTEGRATOR_TOL, max_step=T / 16)
    ref = _reference(spec, omega, np.eye(6, 7), T)
    assert traj.t.shape == ref.t.shape
    assert np.allclose(traj.t, ref.t, rtol=1e-8, atol=0)
    assert traj.y.shape == (6, 7)


def test_one_field_call_per_attempted_step():
    spec = fixtures.random_admissible(seed=1, n=4, m=2)
    omega = 50.0
    T = 2 * np.pi / omega
    field = _Counting(**vars(spec.field_map(omega, omega)))
    traj = dop853.solve(field, T, tol=INTEGRATOR_TOL, max_step=T / 16, dense=True)
    # The right side at t = 0 and at the trial point of the first step, then
    # one field grid per attempted step on its 12 stage times, and nothing
    # more: the run forms no grid for its dense output.
    log = field.log
    assert log[:2] == [("apply", ()), ("apply", ())]
    assert len(log) - 2 >= len(traj.t) - 1
    assert set(log[2:]) == {("field", (dop853.STAGES,))}
    # The three extra stages of every step, one right side each.
    del log[:]
    traj.along(np.append(np.ones(4), 1.0))
    assert log == [("apply", (len(traj.t) - 1,))] * 3


def test_non_finite_field_stalls_with_step_failure():
    # NaN from t = 0.5 on: every step across it is rejected down to the floor.
    field = _NanFrom(**vars(_constant([[-1.0, 0.0]])), start=0.5)
    with pytest.raises(StepFailure, match="integration stalled at t=0.5") as info:
        dop853.solve(field, 1.0, tol=1e-12, max_step=0.1)
    assert "non-finite" in str(info.value)
    assert 0.49 < info.value.t < 0.5


def test_a_run_stops_after_max_steps(monkeypatch):
    # One step short of the steps the run needs: it stops where they end.
    field = _constant([[-1.0, 1.0]])
    t = dop853.solve(field, 1.0, tol=1e-12, max_step=0.1).t
    monkeypatch.setattr(dop853, "MAX_STEPS", len(t) - 2)
    with pytest.raises(StepFailure, match=f"{len(t) - 2} steps fell short of t=1") as info:
        dop853.solve(field, 1.0, tol=1e-12, max_step=0.1)
    assert info.value.t == t[-2]


def test_block_contracted_with_z_is_the_trajectory_from_its_start():
    # The dense output of [I | 0] along [x0; 1] against scipy's run from x0.
    spec = fixtures.random_admissible(seed=5, n=4, m=2)
    omega = 60.0
    T = 2 * np.pi / omega
    x0 = np.linspace(-1.0, 1.0, 4)
    block = dop853.solve(spec.field_map(omega, omega), T, tol=INTEGRATOR_TOL,
                         max_step=T / 16, dense=True)
    t = np.linspace(0.0, T, 50)
    along = block.along(np.append(x0, 1.0))
    assert along(t).dtype == np.float64
    assert _rel(along(t), _reference(spec, omega, x0, T, dense=True).sol(t).T) < 1e-11
    assert np.allclose(along(T), block.y @ np.append(x0, 1.0), rtol=0, atol=1e-14)
