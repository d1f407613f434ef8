"""Reference solver: direct integration over one period.

Everything here is deliberately independent of the asymptotic machinery.
The period map (monodromy matrix) is computed by integrating the matrix
equation, the unique periodic solution comes from solving the fixed-point
equation (I - Phi) x0 = v with the forced response v, and stability is
read off the characteristic multipliers.  The expansion modules are then
validated against these results, never the other way around.

One integration serves everything.  The package's own DOP853
(``hfosc.dop853``, numpy only) runs the n x (n + 1) block Y from [I | 0] at
t = 0 forward to T = 2 pi / omega, advancing it by (M(omega t) + B0/omega) Y
with the forcing f(omega t) added to the last column: the fundamental
system beside the forced response from zero, ending at [Phi | v].  It takes
the ``Sampler`` that ``ProblemSpec.field_map(omega, omega)`` returns, with
B0/omega folded in once per frequency: the field grid on the stage times of
each attempted step, and ``Sampler.apply`` for every other right side.  A
real system is integrated in float64 throughout.  That one pass per
frequency gives the period map, x0, and the periodic solution on SAMPLES
intervals, read from the block's dense output contracted with z = [x0; 1]
(``Trajectory.along``).  Runge-Kutta steps are linear in the state, so that
is the trajectory from x0 on the block's own steps.  The same map's
``apply`` gives the right side at states on arrays of times, which is how
the integral-form defect of the sampled solution evaluates all Gauss nodes
of a block of sample intervals at once, without forming the field at any
of them.  ``periodic_solution`` keeps that map with the interpolant in its
result, and the defect quadrature runs only when ``ode_defect`` is read:
a caller that needs only the samples and the period map never pays for it,
and importing this module does not load ``numpy.polynomial``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundaryUndecidable, NonFiniteError, NonUniqueError
from .model import ProblemSpec

# Integrator accuracy per step, relative and absolute.
INTEGRATOR_TOL = 1e-12

# sigma_min(I - Phi) at or below this means the periodic solution is not
# unique to working precision.
UNIQUENESS_TOL = 1e-10

# Multipliers within this distance of the unit circle count as "on" it.
UNIT_BAND = 1e-8

# Sample intervals of the periodic solution over one period.
SAMPLES = 256

# Sample intervals whose defect nodes are evaluated together; bounds the
# (intervals x nodes x terms x n) temporaries of the contracted right side.
_DEFECT_BLOCK = 64


def period(omega) -> float:
    """T = 2 pi / omega.  Raises ValueError unless omega is positive and
    finite, and NonFiniteError when T overflows (omega below about 1e-308)."""
    if not (np.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    T = 2 * np.pi / float(omega)
    if T == np.inf:
        raise NonFiniteError(f"the period 2 pi / omega at omega={omega:g} is not finite")
    return T


def monodromy(spec: ProblemSpec, omega) -> np.ndarray:
    """Period map Phi(T), T = 2 pi / omega, from the matrix equation."""
    T = period(omega)
    return _period_pass(spec.field_map(omega, omega), T).y[:, : spec.n]


def _period_pass(field, T, dense=False):
    """One pass over the period T from the block [I | 0], whose last column
    alone picks up the forcing: it ends at [Phi | v], the period map beside
    the forced response from zero."""
    # Imported here: commands that never integrate skip the integrator's
    # module and its tableau.
    from .dop853 import solve

    return solve(field, T, tol=INTEGRATOR_TOL, max_step=T / 16, dense=dense)


@dataclass(frozen=True, eq=False)
class PeriodicOracleSolution:
    """Sampled periodic solution plus the period-map diagnostics.

    ``t`` holds SAMPLES + 1 equispaced times covering one closed period,
    ``x`` the states at those times: the dense output of the period pass
    from [I | 0], contracted with [x0; 1], where x0 = x[0] is the fixed
    point.  ``periodicity_defect`` is the closure |x(T) - x(0)| of that
    trajectory, so it is the residual of the solve (I - Phi) x0 = v, not a
    test of the integration.  That test is ``ode_defect``, the largest gap,
    over the sample intervals, between the state increment and the 10-point
    Gauss-Legendre quadrature of the right side along x: it holds the
    integration error and the quadrature error, which grows as the sample
    intervals widen.  Arrays are float64 for a real system, complex
    otherwise, and read-only.

    ``ode_defect`` is computed on first read, from the interpolant and the
    field map that the result keeps, and then kept: callers that read only
    the samples and the period map skip the quadrature.
    """

    period: float
    t: np.ndarray
    x: np.ndarray
    monodromy: np.ndarray
    periodicity_defect: float
    unique_margin: float
    _interpolant: object = dataclasses.field(repr=False)
    _field: object = dataclasses.field(repr=False)

    @cached_property
    def ode_defect(self) -> float:
        """Largest integral-form defect of the samples over their intervals,
        with the Gauss nodes of ``_DEFECT_BLOCK`` intervals at a time."""
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(10)
        t, sol = self.t, self._interpolant
        mids, halves = 0.5 * (t[1:] + t[:-1]), 0.5 * np.diff(t)
        steps = np.diff(self.x, axis=0)
        defect = 0.0
        for i in range(0, len(steps), _DEFECT_BLOCK):
            block = slice(i, i + _DEFECT_BLOCK)
            nodes = mids[block, None] + halves[block, None] * gauss_x
            slopes = self._field.apply(nodes, sol(nodes)[..., None])[..., 0]
            increments = halves[block, None] * (gauss_w @ slopes)
            gaps = np.linalg.norm(steps[block] - increments, axis=1)
            defect = max(defect, float(np.max(gaps)))
        return defect


def periodic_solution(spec: ProblemSpec, omega) -> PeriodicOracleSolution:
    """The unique periodic solution at SAMPLES + 1 times over one period.

    One period pass with one field map ends at [Phi | v]; x0 solves
    (I - Phi) x0 = v, and the samples are the pass's dense output contracted
    with [x0; 1], an interpolant that keeps one trajectory's worth per step.
    Raises NonUniqueError when the period map has 1 as an eigenvalue to
    working precision, i.e. sigma_min(I - Phi) <= UNIQUENESS_TOL.
    """
    T = period(omega)
    field = spec.field_map(omega, omega)
    traj = _period_pass(field, T, dense=True)
    Phi, forced = traj.y[:, :-1], traj.y[:, -1]
    gap = np.eye(spec.n) - Phi
    unique_margin = float(np.linalg.svd(gap, compute_uv=False)[-1])
    if unique_margin <= UNIQUENESS_TOL:
        raise NonUniqueError(
            f"period map has a unit eigenvalue to tolerance "
            f"(sigma_min(I - Phi) = {unique_margin:.3e}); "
            f"the periodic solution is not unique"
        )
    x0 = np.linalg.solve(gap, forced)
    sol = traj.along(np.append(x0, 1.0))
    del traj  # frees the step history before the samples are formed
    t = np.linspace(0.0, T, SAMPLES + 1)
    x = sol(t)
    x[0] = x0
    for arr in (t, x, Phi):
        arr.setflags(write=False)
    return PeriodicOracleSolution(
        period=T,
        t=t,
        x=x,
        monodromy=Phi,
        periodicity_defect=float(np.linalg.norm(x[-1] - x[0])),
        unique_margin=unique_margin,
        _interpolant=sol,
        _field=field,
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
    mult = np.linalg.eigvals(Phi).astype(complex)
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
        period(w)
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
