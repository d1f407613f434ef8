"""Reference solver: direct integration over one period.

Everything here is deliberately independent of the asymptotic machinery.
The period map (monodromy matrix) is computed by integrating the matrix
equation, the unique periodic solution comes from solving the fixed-point
equation (I - Phi) x0 = v with the forced response v, and stability is
read off the characteristic multipliers.  The expansion modules are then
validated against these results, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import BoundaryUndecidable, NonUniqueError, StepFailure
from .model import ProblemSpec

# Default integrator accuracy (both rtol and atol).
INTEGRATOR_TOL = 1e-12

# sigma_min(I - Phi) at or below this means the periodic solution is not
# unique to working precision.
UNIQUENESS_TOL = 1e-10

# Multipliers within this distance of the unit circle count as "on" it.
UNIT_BAND = 1e-8

# Nodes for the per-interval integral-form defect of the sampled solution.
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(10)


def _check_omega(omega) -> None:
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega}")


def _rhs(spec: ProblemSpec, omega: float):
    def fun(t, y):
        tau = omega * t
        return spec.system_matrix(tau, omega) @ y + spec.forcing(tau)

    return fun


def _solve(spec, omega, y0, t0, t1, tol, fun=None, dense=False):
    sol = solve_ivp(
        fun or _rhs(spec, omega),
        (t0, t1),
        np.asarray(y0, dtype=complex),
        method="DOP853",
        rtol=tol,
        atol=tol,
        max_step=(2 * np.pi / omega) / 16,
        dense_output=dense,
    )
    if not sol.success:
        t_reached = float(sol.t[-1]) if len(sol.t) else t0
        raise StepFailure(
            f"integration stalled at t={t_reached:.6g}: {sol.message}", t=t_reached
        )
    return sol


def integrate(spec: ProblemSpec, omega, x0, t0, t1, tol: float = INTEGRATOR_TOL):
    """State at t1 of the solution through (t0, x0)."""
    _check_omega(omega)
    if t1 == t0:
        return np.asarray(x0, dtype=complex)
    return _solve(spec, omega, x0, t0, t1, tol).y[:, -1]


def monodromy(spec: ProblemSpec, omega, tol: float = INTEGRATOR_TOL) -> np.ndarray:
    """Period map Phi(T), T = 2 pi / omega, from the matrix equation."""
    _check_omega(omega)
    Phi, _ = _transition_and_forced(spec, omega, tol)
    return Phi


def _transition_and_forced(spec, omega, tol):
    """One pass for Phi(T) and the forced response from zero.

    The n x n fundamental system and the forced column ride in a single
    augmented integration so both carry identical step sequences.
    """
    n = spec.n
    T = 2 * np.pi / omega

    def fun(t, y):
        Y = y.reshape(n, n + 1)
        tau = omega * t
        out = spec.system_matrix(tau, omega) @ Y
        out[:, n] += spec.forcing(tau)
        return out.reshape(-1)

    y0 = np.zeros((n, n + 1), dtype=complex)
    y0[:, :n] = np.eye(n)
    sol = _solve(spec, omega, y0.reshape(-1), 0.0, T, tol, fun=fun)
    YT = sol.y[:, -1].reshape(n, n + 1)
    return YT[:, :n], YT[:, n]


@dataclass(frozen=True, eq=False)
class PeriodicOracleSolution:
    """Sampled periodic solution plus the period-map diagnostics.

    ``t`` holds n_samples + 1 equispaced times covering one closed period,
    ``x`` the states at those times (last row returns to the first up to
    ``periodicity_defect``).  ``ode_defect`` is the largest gap, over the
    sample intervals, between the state increment and the quadrature of the
    right-hand side along the dense solution: an integral-form residual
    that is tolerance-limited rather than sampling-limited.
    """

    omega: float
    period: float
    t: np.ndarray
    x: np.ndarray
    x0: np.ndarray
    monodromy: np.ndarray
    multipliers: np.ndarray
    periodicity_defect: float
    ode_defect: float
    unique_margin: float


def periodic_solution(
    spec: ProblemSpec,
    omega,
    n_samples: int = 256,
    tol: float = INTEGRATOR_TOL,
) -> PeriodicOracleSolution:
    """The unique periodic solution, sampled over one period.

    Raises NonUniqueError when the period map has 1 as an eigenvalue to
    working precision, i.e. sigma_min(I - Phi) <= 1e-10.
    """
    _check_omega(omega)
    n = spec.n
    T = 2 * np.pi / omega
    Phi, forced = _transition_and_forced(spec, omega, tol)
    gap = np.eye(n) - Phi
    sigma = np.linalg.svd(gap, compute_uv=False)
    unique_margin = float(sigma[-1])
    if unique_margin <= UNIQUENESS_TOL:
        raise NonUniqueError(
            f"period map has a unit eigenvalue to tolerance "
            f"(sigma_min(I - Phi) = {unique_margin:.3e}); "
            f"the periodic solution is not unique"
        )
    x0 = np.linalg.solve(gap, forced)

    sol = _solve(spec, omega, x0, 0.0, T, tol, dense=True)
    t = np.linspace(0.0, T, n_samples + 1)
    x = sol.sol(t).T
    x[0] = x0
    periodicity_defect = float(np.linalg.norm(sol.y[:, -1] - x0))

    fun = _rhs(spec, omega)
    defect = 0.0
    for i in range(n_samples):
        a, b = t[i], t[i + 1]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = mid + half * _GAUSS_X
        states = sol.sol(nodes)
        increment = half * sum(
            w * fun(s, states[:, k]) for k, (s, w) in enumerate(zip(nodes, _GAUSS_W))
        )
        defect = max(defect, float(np.linalg.norm(x[i + 1] - x[i] - increment)))

    return PeriodicOracleSolution(
        omega=float(omega),
        period=T,
        t=t,
        x=x,
        x0=x0,
        monodromy=Phi,
        multipliers=np.linalg.eigvals(Phi),
        periodicity_defect=periodicity_defect,
        ode_defect=defect,
        unique_margin=unique_margin,
    )


@dataclass(frozen=True, eq=False)
class FloquetVerdict:
    kind: str  # "Stable" | "Unstable"
    margin: float  # max |multiplier| - 1
    multipliers: np.ndarray


def floquet_verdict(
    spec: ProblemSpec,
    omega,
    tol: float = INTEGRATOR_TOL,
    unit_band: float = UNIT_BAND,
) -> FloquetVerdict:
    """Stability of x' = M(t) x from the characteristic multipliers.

    Unstable when some multiplier leaves the closed unit disk by more than
    ``unit_band``; otherwise stable, provided every multiplier cluster on
    the unit circle is semisimple.  A defective on-circle cluster raises
    BoundaryUndecidable: the verdict would hinge on structure below the
    resolution of the computed period map.
    """
    Phi = monodromy(spec, omega, tol)
    mult = np.linalg.eigvals(Phi)
    margin = float(np.max(np.abs(mult)) - 1.0)
    if margin > unit_band:
        return FloquetVerdict(kind="Unstable", margin=margin, multipliers=mult)

    scale = max(1.0, float(np.linalg.norm(Phi, 2)))
    cluster_tol = 1e-6 * scale
    remaining = list(range(len(mult)))
    while remaining:
        i = remaining[0]
        cluster = [j for j in remaining if abs(mult[j] - mult[i]) <= cluster_tol]
        remaining = [j for j in remaining if j not in cluster]
        if len(cluster) < 2:
            continue
        if np.max(np.abs(mult[cluster])) < 1.0 - unit_band:
            continue  # strictly inside; transients decay regardless
        center = np.mean(mult[cluster])
        sv = np.linalg.svd(Phi - center * np.eye(spec.n), compute_uv=False)
        geometric = int(np.sum(sv < 1e-6 * scale))
        if geometric < len(cluster):
            raise BoundaryUndecidable(
                f"multiplier cluster at {center:.6g} (size {len(cluster)}) "
                f"sits on the unit circle with geometric multiplicity "
                f"{geometric}; stability is not decidable numerically"
            )
    return FloquetVerdict(kind="Stable", margin=margin, multipliers=mult)


@dataclass(frozen=True, eq=False)
class SlopeReport:
    order: int
    omegas: tuple
    errors: tuple
    slope: float


def error_slope(
    spec: ProblemSpec,
    expansion,
    order: int,
    omegas,
    tol: float = INTEGRATOR_TOL,
    solutions: dict | None = None,
) -> SlopeReport:
    """Log-log slope of the worst-case partial-sum error against omega.

    For each omega the error is max_i |x(t_i) - S(t_i)| over the reference
    sample grid.  A clean implementation of an order-r sum gives a slope
    close to -(order + 1).  Pass precomputed ``solutions`` (omega -> sampled
    periodic solution) to amortize the integrations across orders.  When the
    errors sit at rounding level the slope is NaN.
    """
    from .expansion import partial_sum

    omegas = tuple(float(w) for w in omegas)
    if len(omegas) < 2:
        raise ValueError("need at least two omega values for a slope")
    if len(set(omegas)) < len(omegas):
        raise ValueError(f"omega values must be distinct, got {omegas}")
    for w in omegas:
        _check_omega(w)
    errors = []
    scale = 1.0
    for w in omegas:
        ps = solutions[w] if solutions else periodic_solution(spec, w, tol=tol)
        S = partial_sum(expansion, order, w, ps.t)
        errors.append(float(np.max(np.linalg.norm(ps.x - S, axis=1))))
        scale = max(scale, float(np.max(np.abs(ps.x))))
    if max(errors) <= 1e-13 * scale:
        slope = float("nan")
    else:
        slope = float(np.polyfit(np.log(omegas), np.log(errors), 1)[0])
    return SlopeReport(
        order=order, omegas=omegas, errors=tuple(errors), slope=slope
    )
