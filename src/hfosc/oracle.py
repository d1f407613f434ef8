"""Reference solver: direct integration over one period.

Everything here is deliberately independent of the asymptotic machinery.
The period map (monodromy matrix) is computed by integrating the matrix
equation, the unique periodic solution comes from solving the fixed-point
equation (I - Phi) x0 = v with the forced response v, and stability is
read off the characteristic multipliers.  The expansion modules are then
validated against these results, never the other way around.

One right side serves every integration.  ``_rhs`` maps an n x k state
block Y at time t to (M(omega t) + B0/omega) Y with the forcing f(omega t)
added to the last column, reading all of it from a single evaluation of
``ProblemSpec.field``.  With k = 1 the block is one trajectory: the
solution through a given state, and the dense pass that samples the
periodic solution.  With k = n + 1 it is the fundamental system beside the
forced response from zero, so the period map and the forced response share
one step sequence.  The same function takes arrays of times, which is how
the integral-form defect of the sampled solution evaluates all Gauss nodes
of a block of sample intervals at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryUndecidable, NonUniqueError, StepFailure
from .model import ProblemSpec

# Integrator accuracy (both rtol and atol).
INTEGRATOR_TOL = 1e-12

# sigma_min(I - Phi) at or below this means the periodic solution is not
# unique to working precision.
UNIQUENESS_TOL = 1e-10

# Multipliers within this distance of the unit circle count as "on" it.
UNIT_BAND = 1e-8

# Nodes for the per-interval integral-form defect of the sampled solution.
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(10)

# Sample intervals whose defect nodes are evaluated together; bounds the
# (intervals x nodes x n x (n+1)) temporaries of the batched right side.
_DEFECT_BLOCK = 32


def _check_omega(omega) -> None:
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega}")


def _rhs(t, y, spec: ProblemSpec, omega: float):
    """Right side for y of shape (*shape(t), n k): one flattened n x k block
    per time, mapped to (M + B0/omega) Y with f added to the last column."""
    n = spec.n
    F = spec.field(omega * t, omega)
    Y = y.reshape(np.shape(t) + (n, -1))
    out = F[..., :n] @ Y
    out[..., -1] += F[..., n]
    return out.reshape(y.shape)


def _solve(spec, omega, y0, t0, t1, dense=False):
    # Imported here: commands that never integrate skip loading scipy.integrate.
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        _rhs,
        (t0, t1),
        np.asarray(y0, dtype=complex).reshape(-1),
        method="DOP853",
        rtol=INTEGRATOR_TOL,
        atol=INTEGRATOR_TOL,
        max_step=(2 * np.pi / omega) / 16,
        dense_output=dense,
        args=(spec, omega),
    )
    if not sol.success:
        t_reached = float(sol.t[-1]) if len(sol.t) else t0
        raise StepFailure(
            f"integration stalled at t={t_reached:.6g}: {sol.message}", t=t_reached
        )
    return sol


def integrate(spec: ProblemSpec, omega, x0, t0, t1):
    """State at t1 of the solution through (t0, x0)."""
    _check_omega(omega)
    if t1 == t0:
        return np.asarray(x0, dtype=complex)
    return _solve(spec, omega, x0, t0, t1).y[:, -1]


def monodromy(spec: ProblemSpec, omega) -> np.ndarray:
    """Period map Phi(T), T = 2 pi / omega, from the matrix equation."""
    _check_omega(omega)
    Phi, _ = _transition_and_forced(spec, omega)
    return Phi


def _transition_and_forced(spec, omega):
    """One pass for Phi(T) and the forced response from zero: the state is
    the block [I | 0], whose last column alone picks up the forcing."""
    n = spec.n
    sol = _solve(spec, omega, np.eye(n, n + 1), 0.0, 2 * np.pi / omega)
    # A copy: views would keep every stored step of the n (n+1) states alive.
    YT = sol.y[:, -1].reshape(n, n + 1).copy()
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


def periodic_solution(spec: ProblemSpec, omega, n_samples: int = 256) -> PeriodicOracleSolution:
    """The unique periodic solution, sampled over one period.

    Raises NonUniqueError when the period map has 1 as an eigenvalue to
    working precision, i.e. sigma_min(I - Phi) <= UNIQUENESS_TOL.
    """
    _check_omega(omega)
    n = spec.n
    T = 2 * np.pi / omega
    Phi, forced = _transition_and_forced(spec, omega)
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

    sol = _solve(spec, omega, x0, 0.0, T, dense=True)
    t = np.linspace(0.0, T, n_samples + 1)
    x = sol.sol(t).T
    x[0] = x0
    periodicity_defect = float(np.linalg.norm(sol.y[:, -1] - x0))

    mids, halves = 0.5 * (t[1:] + t[:-1]), 0.5 * np.diff(t)
    steps = np.diff(x, axis=0)
    defect = 0.0
    for i in range(0, n_samples, _DEFECT_BLOCK):
        block = slice(i, i + _DEFECT_BLOCK)
        nodes = mids[block, None] + halves[block, None] * _GAUSS_X
        states = sol.sol(nodes.ravel()).T.reshape(nodes.shape + (n,))
        increments = halves[block, None] * (_GAUSS_W @ _rhs(nodes, states, spec, omega))
        gaps = np.linalg.norm(steps[block] - increments, axis=1)
        defect = max(defect, float(np.max(gaps)))

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


def floquet_verdict(spec: ProblemSpec, omega) -> FloquetVerdict:
    """Stability of x' = M(t) x from the characteristic multipliers.

    Unstable when some multiplier leaves the closed unit disk by more than
    ``UNIT_BAND``; otherwise stable, provided every multiplier cluster on
    the unit circle is semisimple.  A defective on-circle cluster raises
    BoundaryUndecidable: the verdict would hinge on structure below the
    resolution of the computed period map.
    """
    Phi = monodromy(spec, omega)
    mult = np.linalg.eigvals(Phi)
    margin = float(np.max(np.abs(mult)) - 1.0)
    if margin > UNIT_BAND:
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
        if np.max(np.abs(mult[cluster])) < 1.0 - UNIT_BAND:
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
    solutions: dict | None = None,
) -> SlopeReport:
    """Log-log slope of the worst-case partial-sum error against omega.

    For each omega the error is max_i |x(t_i) - S(t_i)| over the reference
    sample grid.  A clean implementation of an order-r sum gives a slope
    close to -(order + 1).  Pass precomputed ``solutions`` (omega -> sampled
    periodic solution) to amortize the integrations across orders; a
    frequency missing from it is integrated here.  When the errors sit at
    rounding level the slope is NaN.
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
        ps = (solutions or {}).get(w) or periodic_solution(spec, w)
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
