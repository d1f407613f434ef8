"""Normalization and the growth envelope of the recursion.

The convergence analysis assumes unit-size data.  ``normalize`` rescales a
problem so that every coefficient block has norm at most one; the scaling
is an exact change of variables (t -> t/scale, omega -> omega/scale), so
conclusions transfer back verbatim.  ``constants`` and ``check_growth``
apply the scale to the stored problem's kernel data and expansion instead.
``constants`` packages the three numbers the error bound is built from:

* K = 2 m + 2, an upper bound for harmonic counting,
* L, a solvability constant: |x_p| <= L |theta_p| and the kernel
  coefficients satisfy sum_j |C_{p-1}^j| <= L |theta_p|,
* omega0 = K (K L + 1), the frequency threshold beyond which the expansion
  is guaranteed to behave like a geometric series.

``check_growth`` replays the envelope inequalities against the actually
computed expansion, rescaled to unit size: the recursion envelope

    phi_p = (2m + 1) mu_p + mu_{p-1} + 2 m L |theta_{p-1}|,  phi_0 = 2m,

must obey phi_p <= K^3 L |theta_{p-1}| + K phi_{p-1}, and both |theta_p|
and mu_p must stay below K^p (K L + 1)^p.  These are proven facts; the
checks exist to catch implementation drift, so any violation beyond
rounding slack is a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import check_finite
from .model import ProblemSpec
from .spectral import KernelData, compute_kernel_data

if TYPE_CHECKING:
    from .expansion import AsymptoticExpansion

# Norms may exceed their budget by this relative slack before a check fails.
GROWTH_SLACK = 1e-9

# How far past 1 a "normalized" norm may sit (rounding from the division).
NORM_SLACK = 1e-12


def _spectral_norms(*blocks) -> np.ndarray:
    """2-norms of equally shaped matrices, from one batched SVD."""
    return np.linalg.svd(np.stack(blocks), compute_uv=False)[:, 0]


def _block_norms(spec: ProblemSpec):
    """2-norms of A0, B0 and the B_l, then Euclidean norms of the d_l."""
    norms = list(_spectral_norms(spec.A0, spec.B0, *spec.B.values()))
    return norms + [float(np.linalg.norm(v)) for v in spec.d.values()]


def _scale(spec: ProblemSpec) -> float:
    """The largest block norm, or exactly 1.0 when that is at most 1 + NORM_SLACK."""
    scale = float(max(_block_norms(spec)))
    check_finite("the normalization scale", scale)
    return scale if scale > 1.0 + NORM_SLACK else 1.0


def normalize(spec: ProblemSpec) -> tuple[ProblemSpec, float]:
    """Rescale so every block norm is at most 1; returns (spec', scale).

    The primed problem is the original in time t' = scale * t at frequency
    omega' = omega / scale, with A0' = A0/scale, B_l' = B_l/scale,
    d_l' = d_l/scale and B0' = B0/scale^2 (B0 rides at order 1/omega, so it
    picks up the scale twice).  x'(t') = x(t'/scale) solves the primed
    system exactly: no approximation is involved.
    """
    scale = _scale(spec)
    if scale == 1.0:
        return spec, 1.0
    prime = ProblemSpec(
        n=spec.n,
        m=spec.m,
        A0=spec.A0 / scale,
        B0=spec.B0 / scale**2,
        B={l: M / scale for l, M in spec.B.items()},
        d={l: v / scale for l, v in spec.d.items()},
        real_mode=spec.real_mode,
    )
    return prime, scale


@dataclass(frozen=True)
class ConvergenceConstants:
    K: float
    L: float
    omega0: float
    scale: float = 1.0  # of the problem they were computed from


def constants(
    spec: ProblemSpec, kernel_data: KernelData | None = None
) -> ConvergenceConstants:
    """Convergence constants of the normalized problem of ``spec``.

    L = max(|W| (1 + |A1| s |S^{-1}|_inf), s |S^{-1}|_inf) with S the
    solvability matrix; both solvability steps of the recursion are then
    bounded by L times the driving term.  The data are ``spec``'s, rescaled
    as W' = scale W, A1' = A1/scale^2 and S' = S/scale^2; for s >= 2, L
    depends on the kernel basis, as |S^{-1}|_inf does.
    """
    kd = kernel_data if kernel_data is not None else compute_kernel_data(spec)
    scale = _scale(spec)
    s = kd.dim
    inv_inf = float(np.linalg.norm(np.linalg.inv(kd.solvability), np.inf))
    W_norm, A1_norm = map(float, _spectral_norms(kd.restricted_inverse, kd.averaged))
    L = max(scale * W_norm * (1.0 + A1_norm * s * inv_inf), s * inv_inf * scale * scale)
    check_finite("the solvability constant L", L)
    K = 2.0 * spec.m + 2.0
    return ConvergenceConstants(K=K, L=L, omega0=K * (K * L + 1.0), scale=scale)


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Envelope check results for orders 0..p_max.

    ``envelope`` holds phi_p.  ``recursion_ok`` is the one-step envelope
    inequality, ``forcing_growth_ok`` and ``harmonic_growth_ok`` the
    geometric bounds on |theta_p| and mu_p.  ``first_violation`` is the
    smallest failing order, or None.
    """

    p_max: int
    theta_norms: np.ndarray
    harmonic_masses: np.ndarray
    envelope: np.ndarray
    recursion_ok: bool
    forcing_growth_ok: bool
    harmonic_growth_ok: bool
    first_violation: int | None

    @property
    def all_ok(self) -> bool:
        return self.recursion_ok and self.forcing_growth_ok and self.harmonic_growth_ok


def _holds(value, bound):
    return value <= bound + GROWTH_SLACK * np.maximum(np.maximum(abs(bound), abs(value)), 1.0)


def check_growth(
    exp: AsymptoticExpansion,
    cc: ConvergenceConstants,
    p_max: int | None = None,
) -> BoundsReport:
    """Replay the growth-envelope inequalities against a computed expansion,
    its theta_p divided by cc.scale^(p+1) and mu_p by cc.scale^p (0 where the
    power overflows).  Where the budget (K (K L + 1))^p overflows, the bound holds."""
    from .expansion import safe_norm

    if p_max is None:
        p_max = exp.order
    if not 0 <= p_max <= exp.order:
        raise ValueError(f"p_max must be in [0, {exp.order}], got {p_max}")
    K, L, m = cc.K, cc.L, exp.m
    levels = exp.levels[: p_max + 1]
    p = np.arange(p_max + 1.0)
    with np.errstate(over="ignore"):
        theta = safe_norm([lev.forcing for lev in levels]) / cc.scale ** (p + 1.0)
        mu = np.array([lev.harmonic_mass for lev in levels]) / cc.scale**p
        budget = (K * (K * L + 1.0)) ** p
    phi = np.empty(p_max + 1)
    phi[0] = 2.0 * m
    phi[1:] = (2 * m + 1) * mu[1:] + mu[:-1] + 2 * m * L * theta[:-1]
    recursion = _holds(phi[1:], K**3 * L * theta[:-1] + K * phi[:-1])
    forcing, harmonic = _holds(theta, budget), _holds(mu, budget)
    ok = forcing & harmonic
    ok[1:] &= recursion
    failed = np.flatnonzero(~ok)
    return BoundsReport(
        p_max=p_max,
        theta_norms=theta,
        harmonic_masses=mu,
        envelope=phi,
        recursion_ok=bool(recursion.all()),
        forcing_growth_ok=bool(forcing.all()),
        harmonic_growth_ok=bool(harmonic.all()),
        first_violation=int(failed[0]) if len(failed) else None,
    )
