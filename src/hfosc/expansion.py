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
M is the spec's ``matrix``, B_osc its stack with A0 taken from the mean
row, and d its ``forcing``, with d_0 = ``forcing.mean()``.
The mean equation is solvable exactly when its projection on ker(A0^H)
vanishes; that fixes C_{p-1} through the solvability matrix, after which
x_p = -W (A1 v_{p-1} + theta_p).  So each sweep closes level p-1 and opens
level p.

Every step is arithmetic on raw coefficient stacks through the helpers of
``hfosc.model``, the one algebra that the averaging transform also runs on,
three new stacks per sweep; the levels are wrapped in ``TrigPoly`` once the
sweeps are done (see ``expand``).  The arrays of level p hold the
harmonics |l| <= (p+1) m at most, a bound set by p and the data and never
by the requested order, so a longer expansion repeats a shorter one bit for
bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import check_finite, check_omega
from .model import (
    ProblemSpec,
    TrigPoly,
    _add_centered,
    _convolve,
    _integrated,
    _mean_of_product,
    _side_by_side,
    _times,
    _times_left,
)
from .spectral import KernelData, compute_kernel_data


def safe_norm(a) -> np.ndarray:
    """Euclidean norms along the last axis that square no entry above 1:
    each vector is first divided by a power of two near its largest entry,
    which is exact, so a norm is finite wherever it is representable (plain
    squares overflow from about 1e154)."""
    parts = np.ascontiguousarray(a, dtype=complex).view(float)
    _, e = np.frexp(np.abs(parts).max(axis=-1, keepdims=True))
    scaled = np.ldexp(parts, -e)
    return np.ldexp(np.sqrt(np.add.reduce(scaled * scaled, axis=-1)), e[..., 0])


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
    """Run the recursion through order + 1 sweeps and return levels 0..order.

    The sweeps work on raw coefficient stacks; the levels are wrapped once
    the recursion is done.  Sweep p forms g = M (y_{p-1} + x_{p-1}) + B0
    y_{p-2} (+ d at p = 1), one polynomial product with the constant terms
    added into it, widened at p = 1 to the harmonics of d, which may pass
    the product's 2 H_B; then beta_p = D^{-1} osc[g], one product with the
    integration factors.  theta_p's mean(B_osc beta_p) is one product of
    B_osc's harmonics, laid side by side once for all sweeps, with the
    harmonics |l| <= m of beta_p stacked; the product's other harmonics are
    never formed.  Z^H, the solvability solve against it and -W are formed
    once, so closing a level takes four matrix-vector products; the
    defects |Z^H g| of all closed equations are one batched product after
    the sweeps, and the harmonic masses one ``safe_norm`` call.  The level
    opened last, y_p, is beta_p with (D^{-1} B_osc) v_{p-1} added.  Sweep
    0 only closes the leading level, for theta_0 = d_0."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    kd = kernel_data if kernel_data is not None else compute_kernel_data(spec)
    kernel, A1, B0 = kd.kernel, kd.averaged, spec.B0
    left_h = kd.left_kernel.conj().T
    # C = -S^{-1} Z^H theta and x = -W g, as matrices.
    to_coeff = np.linalg.solve(kd.solvability, -left_h)
    minus_W = -kd.restricted_inverse
    M, forcing = spec.matrix.data, spec.forcing.data
    B_osc = _add_centered(M.copy(), spec.A0[None], np.subtract)
    side = _side_by_side(B_osc, len(B_osc) // 2)
    # d^-1(B_osc v) = (d^-1 B_osc) v for a constant v.
    B_int = _integrated(B_osc)

    # Level k is (x_k, C_k, y_k, beta_k, theta_k, its defect); sweep p closes
    # C and the defect of level p - 1 (of the leading term at p = 0) and
    # opens level p.
    xs, ys, betas, thetas, coeffs, rhss = [], [], [], [], [], []
    beta = y = np.zeros((1, spec.n), dtype=complex)
    theta = spec.forcing.mean()
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(order + 2):
            if p:
                # g = M (y + x) + B0 y_prev (+ d at p = 1), one stack.
                yx = y.copy()
                yx[len(yx) // 2] += x
                g = _add_centered(_convolve(M, yx), _times_left(B0, y_prev))
                if p == 1:
                    # d may reach past the bound 2 H_B of g: add into the longer.
                    big, small = (g, forcing) if len(g) >= len(forcing) else (forcing.copy(), g)
                    g = _add_centered(big, small)
                # Every later quantity is fed by g; its overflow ends the run.
                if not np.isfinite(g).all():
                    break
                beta = _integrated(g)
                theta = B0 @ x + _mean_of_product(side, beta)[:, 0]
            # The mean equation: C from solvability, then the x part.
            coeff = to_coeff @ theta
            v = kernel @ coeff
            rhs = A1 @ v + theta
            coeffs.append(coeff)
            rhss.append(rhs)
            if p > order:
                break
            y_prev, x, y = y, minus_W @ rhs, _times(B_int, v)
            if p:
                y = _add_centered(beta.copy(), y)
            xs.append(x)
            ys.append(y)
            betas.append(beta)
            thetas.append(theta)
        # The norms of every level's coefficients in one call; safe_norm
        # scales each on its own, so they are those of a call per level.
        norms = safe_norm(np.concatenate(betas))
        ends = itertools.accumulate(len(b) for b in betas)
        masses = [float(np.add.reduce(norms[j - len(b) : j])) for b, j in zip(betas, ends)]
        # Each closed equation's defect |Z^H (A1 v + theta)|, one product for all.
        defects = np.abs(left_h @ np.array(rhss)[..., None]).max(axis=(1, 2)).tolist()
    # Sweep p checks the mass of beta_{p-1} and g; the last sweep checks C and
    # its defect, or meets the g that overflowed.
    finite = np.isfinite(masses)
    if not finite.all():
        check_finite(f"order {finite.argmin() + 1} of the expansion", masses)
    check_finite(f"order {len(masses)} of the expansion", g, coeffs[-1], defects[-1])
    levels = [
        ExpansionLevel(
            mean=x,
            kernel_coeff=c,
            osc=TrigPoly._of(y),
            harmonics=TrigPoly._of(b),
            forcing=t,
            harmonic_mass=mass,
            solvability_defect=dfx,
        )
        for x, c, y, b, t, mass, dfx in zip(xs, coeffs[1:], ys, betas, thetas, masses, defects[1:])
    ]
    return AsymptoticExpansion(
        order=order,
        m=spec.m,
        real_mode=spec.real_mode,
        leading=coeffs[0],
        leading_defect=defects[0],
        levels=levels,
        kernel_data=kd,
    )


def _summed(exp: AsymptoticExpansion, r: int, omega) -> TrigPoly:
    """The order-r partial sum as one polynomial in tau = omega t:
    omega C_{-1} a plus omega^{-k} (x_k + v_k + y_k) for k <= r, the
    constant parts added into the mean row."""
    kernel = exp.kernel_data.kernel
    levels = exp.levels[: r + 1]
    weights = omega ** -np.arange(len(levels), dtype=float)
    means = np.array([lev.mean for lev in levels])
    coeffs = np.array([lev.kernel_coeff for lev in levels]).reshape(len(levels), -1)
    out = np.zeros((2 * max(lev.osc.H for lev in levels) + 1, exp.n), dtype=complex)
    for w, lev in zip(weights, levels):
        _add_centered(out, w * lev.osc.data)
    out[len(out) // 2] += weights @ (means + coeffs @ kernel.T) + omega * (kernel @ exp.leading)
    return TrigPoly._of(out)


def _checked_omega(exp: AsymptoticExpansion, r: int, omega) -> np.float64:
    """omega as a float64; ValueError unless r is an order of ``exp`` and omega > 0 is finite."""
    if not 0 <= r <= exp.order:
        raise ValueError(f"r must be in [0, {exp.order}], got {r}")
    check_omega(omega)
    return np.float64(omega)


def partial_sum(exp: AsymptoticExpansion, r: int, omega, t) -> np.ndarray:
    """Evaluate the order-r partial sum at time(s) t.

    The last axis of the result is the state dimension; leading axes follow
    the shape of t.  The levels are summed into one polynomial first, which
    is then evaluated once.  A real system's sum is real, and is evaluated
    in real arithmetic to float64, as ``ProblemSpec.field_map`` evaluates
    its field.  Raises NonFiniteError when the sum overflows, as it does
    for omega near the ends of the floating-point range.
    """
    omega = _checked_omega(exp, r, omega)
    with np.errstate(over="ignore", invalid="ignore"):
        total = _summed(exp, r, omega).sampler(real=exp.real_mode)
        out = total(omega * np.asarray(t, dtype=float))
    check_finite(f"the order-{r} partial sum at omega={float(omega):g}", out)
    return out


def ode_residual(spec: ProblemSpec, exp: AsymptoticExpansion, r: int, omega) -> float:
    """Worst defect of the order-r partial sum in the differential equation.

    The time derivative is taken analytically (only the oscillating parts
    move), so this measures the construction, not a difference scheme.  The
    sum is the one polynomial of ``partial_sum``, and its time derivative is
    omega times its phase derivative, both evaluated like ``partial_sum``,
    on one cosine basis: in real arithmetic for a real system.  The right
    side is the field's ``Sampler.apply`` at the sampled sum, so no field
    grid is formed.
    Scales like omega^{-r} when every matched order truly cancels.  The
    defect is sampled at 256 phases over one period.
    """
    omega = _checked_omega(exp, r, omega)
    taus = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    with np.errstate(over="ignore", invalid="ignore"):
        total = _summed(exp, r, omega)
        sum_of = total.sampler(real=exp.real_mode)
        # The sum and its derivative have the same harmonics: one basis.
        basis = sum_of.basis(taus)
        S = sum_of.at(basis)
        dS = omega * total.derivative().sampler(real=exp.real_mode).at(basis)
    check_finite(f"the order-{r} partial sum at omega={float(omega):g}", S)
    rhs = spec.field_map(omega).apply(taus, S[..., None])[..., 0]
    return float(np.max(np.linalg.norm(dS - rhs, axis=-1)))
