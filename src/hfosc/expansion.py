"""Coefficient recursion for the high-frequency periodic solution.

The periodic solution is expanded as

    x(t) = omega * v_{-1}
           + sum_{k>=0} omega^{-k} (x_k + v_k + y_k(omega t)),

where every v_k lies in ker(A0) (v_k = sum_j C_k^j a_j), every x_k is
orthogonal to ker(A0), and every y_k is a zero-mean trigonometric
polynomial in the phase tau = omega t.  Put u_k = x_k + v_k + y_k,
u_{-1} = v_{-1}, u_{-2} = 0 and M(tau) = A0 + B_osc(tau).  Since
d/dt = omega d/dtau, matching powers of omega in x' = (M + B0/omega) x + d
gives

    y_{k+1}' = M u_k + B0 u_{k-1} + delta_{k0} d,

whose mean must vanish.  Split y_p = beta_p + D^{-1}(B_osc v_{p-1}), with
D^{-1} the zero-mean antiderivative in tau and osc[.] the part without the
mean.  The part generated by v_{p-1} is set apart because v_{p-1} is only
fixed by the mean equation that beta_p feeds.  Sweep p >= 1 then reads

    beta_p  = D^{-1} osc[M (x_{p-1} + y_{p-1}) + B0 y_{p-2} + delta_{p1} d],
    theta_p = B0 x_{p-1} + mean(B_osc beta_p),
    0       = A0 x_p + A1 v_{p-1} + theta_p,
    y_p     = beta_p + D^{-1}(B_osc v_{p-1}),

starting from theta_0 = d_0, y_{-1} = 0 and y_0 = D^{-1}(B_osc v_{-1}).
The mean equation is solvable exactly when its projection on ker(A0^H)
vanishes; that fixes C_{p-1} through the solvability matrix, after which
x_p = -W (A1 v_{p-1} + theta_p).  So each sweep closes level p-1 and opens
level p.

Every step is ``TrigPoly`` arithmetic.  The arrays of level p hold the
harmonics |l| <= (p+1) m at most, a bound set by p and the data and never
by the requested order, so a longer expansion repeats a shorter one bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_finite
from .model import ProblemSpec, TrigPoly
from .spectral import KernelData, compute_kernel_data


def safe_norm(a) -> np.ndarray:
    """Euclidean norms along the last axis that square no entry above 1:
    the entries are first divided by a power of two near the largest of
    them, which is exact, so a norm is finite wherever it is representable
    (plain squares overflow from about 1e154)."""
    parts = np.ascontiguousarray(a, dtype=complex).view(float)
    _, e = np.frexp(np.max(np.abs(parts)))
    return np.ldexp(np.linalg.norm(np.ldexp(parts, -e), axis=-1), e)


@dataclass(frozen=True, eq=False)
class ExpansionLevel:
    """One order of the expansion.

    ``mean`` is x_k (orthogonal to the kernel), ``kernel_coeff`` holds the
    coefficients C_k along the kernel basis, ``osc`` is the full zero-mean
    oscillating part y_k and ``harmonics`` its non-leading payload beta^k
    (y_k minus the term generated directly by v_{k-1}).  ``forcing`` is the
    inhomogeneity theta_k whose kernel projections determined C_{k-1}, and
    ``solvability_defect`` is how well the projections of this level's own
    closing equation were annihilated.  ``harmonic_mass`` is the summed
    Euclidean norm of the beta coefficients (the growth-envelope quantity).
    """

    mean: np.ndarray
    kernel_coeff: np.ndarray
    osc: TrigPoly
    harmonics: TrigPoly
    forcing: np.ndarray
    harmonic_mass: float
    solvability_defect: float


@dataclass(frozen=True, eq=False)
class AsymptoticExpansion:
    """Orders 0..order of the expansion plus the O(omega) kernel term."""

    order: int
    m: int
    real_mode: bool
    leading: np.ndarray  # C_{-1}
    leading_defect: float
    levels: list
    kernel_data: KernelData

    @property
    def n(self) -> int:
        return self.kernel_data.kernel.shape[0]


def expand(
    spec: ProblemSpec,
    order: int,
    kernel_data: KernelData | None = None,
) -> AsymptoticExpansion:
    """Run the recursion through order + 1 sweeps and return levels 0..order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    kd = kernel_data if kernel_data is not None else compute_kernel_data(spec)
    kernel, left = kd.kernel, kd.left_kernel
    B_osc = spec.osc_matrix()
    # d^-1(B_osc v) = (d^-1 B_osc) v for a constant v.
    B_int = B_osc.antiderivative()
    M = B_osc + spec.A0

    def close_level(theta):
        """Solve the mean equation: C from solvability, then the x part."""
        coeff = np.linalg.solve(kd.solvability, -(left.conj().T @ theta))
        v = kernel @ coeff
        g = kd.averaged @ v + theta
        defect = float(np.max(np.abs(left.conj().T @ g)))
        return coeff, v, -(kd.restricted_inverse @ g), defect

    levels = []
    # Overflow is checked once per level, on g (which every earlier
    # quantity feeds) and the harmonic mass, and last on the final level.
    with np.errstate(over="ignore", invalid="ignore"):
        theta = spec.d0.astype(complex)
        leading, v, x, lead_defect = close_level(theta)
        beta = y_prev = TrigPoly.constant(np.zeros(spec.n))
        y = B_int @ v
        for p in range(1, order + 2):
            g = M @ (y + x) + spec.B0 @ y_prev
            if p == 1:
                g = g + spec.forcing_poly()
            mass = float(np.sum(safe_norm(beta.data)))
            check_finite(f"order {p} of the expansion", g.data, mass)
            beta_p = (g - g.mean()).antiderivative()
            theta_p = spec.B0 @ x + (B_osc @ beta_p).mean()
            coeff, v, x_p, defect = close_level(theta_p)
            levels.append(
                ExpansionLevel(
                    mean=x,
                    kernel_coeff=coeff,
                    osc=y,
                    harmonics=beta,
                    forcing=theta,
                    harmonic_mass=mass,
                    solvability_defect=defect,
                )
            )
            y_prev, y = y, beta_p + B_int @ v
            x, beta, theta = x_p, beta_p, theta_p
    check_finite(f"order {order + 1} of the expansion", coeff, defect)
    return AsymptoticExpansion(
        order=order,
        m=spec.m,
        real_mode=spec.real_mode,
        leading=leading,
        leading_defect=lead_defect,
        levels=levels,
        kernel_data=kd,
    )


def partial_sum(exp: AsymptoticExpansion, r: int, omega, t) -> np.ndarray:
    """Evaluate the order-r partial sum at time(s) t.

    The last axis of the result is the state dimension; leading axes follow
    the shape of t.  A real system's sum is real: its float64 real part.
    Raises NonFiniteError when the sum overflows, as it does for omega near
    the ends of the floating-point range.
    """
    if not 0 <= r <= exp.order:
        raise ValueError(f"r must be in [0, {exp.order}], got {r}")
    kernel = exp.kernel_data.kernel
    t = np.asarray(t, dtype=float)
    omega = np.float64(omega)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.broadcast_to(omega * (kernel @ exp.leading), t.shape + (exp.n,)).copy()
        tau = omega * t
        for k, lev in enumerate(exp.levels[: r + 1]):
            const = lev.mean + kernel @ lev.kernel_coeff
            out += omega ** (-k) * (const + lev.osc(tau))
    check_finite(f"the order-{r} partial sum at omega={float(omega):g}", out)
    return out.real.copy() if exp.real_mode else out


def ode_residual(spec: ProblemSpec, exp: AsymptoticExpansion, r: int, omega) -> float:
    """Worst defect of the order-r partial sum in the differential equation.

    The time derivative is taken analytically (only the oscillating parts
    move), so this measures the construction, not a difference scheme.  The
    right side is the field's ``Sampler.apply`` at the sampled sum, so no
    field grid is formed.  Scales like omega^{-r} when every matched order
    truly cancels.  The defect is sampled at 256 phases over one period.
    """
    if not 0 <= r <= exp.order:
        raise ValueError(f"r must be in [0, {exp.order}], got {r}")
    taus = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    S = partial_sum(exp, r, omega, taus / omega)
    dS = sum(
        float(omega) ** (1 - k) * lev.osc.derivative()(taus)
        for k, lev in enumerate(exp.levels[: r + 1])
    )
    rhs = spec.field_map(omega).apply(taus, S[..., None])[..., 0]
    return float(np.max(np.linalg.norm(dS - rhs, axis=-1)))
