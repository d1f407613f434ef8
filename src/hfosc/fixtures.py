"""Canonical example systems and a seeded random-instance generator.

The borderline pair shares one stationary matrix with a two-dimensional
zero eigenspace and differs only in the order-1/omega coefficient; the
series-based stability test is inconclusive for both, yet one is stable
and the other is not.  They double as hand-checkable regression anchors.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateError, NoKernelError
from .model import ProblemSpec
from .spectral import compute_kernel_data

_A0_BORDERLINE = [
    [0.0, 0.0, -1.0],
    [0.0, 0.0, 0.0],
    [0.0, 0.0, -1.0],
]


def borderline_stable() -> ProblemSpec:
    """Every determinant in the stability series vanishes, yet all
    characteristic multipliers stay on the unit circle (semisimple)."""
    B0 = [
        [1.0, 0.0, -1.0],
        [1.0, 1.0, -1.0],
        [2.0, 2.0, -2.0],
    ]
    return ProblemSpec(n=3, m=0, A0=_A0_BORDERLINE, B0=B0)


def borderline_unstable() -> ProblemSpec:
    """Same stationary matrix as borderline_stable; the altered order-1/omega
    coefficient pushes one multiplier off the unit circle."""
    B0 = [
        [1.0, 0.0, -1.0],
        [0.0, 1.0, 0.0],
        [2.0, 0.0, -2.0],
    ]
    return ProblemSpec(n=3, m=0, A0=_A0_BORDERLINE, B0=B0)


def forced_borderline() -> ProblemSpec:
    """borderline_stable plus a constant forcing; the periodic solution has a
    nonzero O(omega) component along the kernel."""
    spec = borderline_stable()
    return ProblemSpec(
        n=3, m=0, A0=spec.A0, B0=spec.B0, d={0: [0.0, 0.0, 1.0]}
    )


def degenerate_example() -> ProblemSpec:
    """Zero eigenvalue present but the solvability matrix is singular:
    the kernel is span{e1} on both sides and e1^H B0 e1 = 0."""
    return ProblemSpec(
        n=2,
        m=0,
        A0=[[0.0, 0.0], [0.0, -1.0]],
        B0=[[0.0, 1.0], [0.0, 0.0]],
    )


def scalar_decay() -> ProblemSpec:
    """n = 1 relaxation with a single oscillating forcing harmonic; the
    periodic solution is known in closed form.  No zero eigenvalue, so this
    one exercises only the reference integrator."""
    return ProblemSpec(
        n=1,
        m=1,
        A0=[[-1.0]],
        B0=[[0.0]],
        d={1: [0.5], -1: [0.5], 0: [1.0]},
    )


# Scale of the random blocks B_l, and the candidates drawn before giving up.
_OSC_SCALE = 0.35
_ATTEMPTS = 64


def _clipped_singular(rng, size):
    """Random real matrix with singular values forced into [0.5, 1.5]."""
    M = rng.standard_normal((size, size))
    U, sv, Vh = np.linalg.svd(M)
    return U @ np.diag(np.clip(sv, 0.5, 1.5)) @ Vh


def random_admissible(
    seed,
    n: int = 3,
    m: int = 1,
    s: int = 1,
    real_mode: bool = True,
    forced: bool = True,
) -> ProblemSpec:
    """Seeded random system that passes the admissibility checks.

    The stationary matrix is built as Q diag(0_s, M) Q^H with M kept away
    from singularity, so the zero eigenvalue has exact multiplicity s.
    Candidates whose solvability matrix is nearly singular are redrawn from
    the same stream, which keeps the result a pure function of the seed.
    """
    if not 1 <= s <= n:
        raise ValueError(f"s={s} out of range for n={n}")
    rng = np.random.default_rng(seed)
    for _ in range(_ATTEMPTS):
        if real_mode:
            Q, R = np.linalg.qr(rng.standard_normal((n, n)))
            Q = Q * np.sign(np.diag(R))
        else:
            Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            Q, R = np.linalg.qr(Z)
            Q = Q * (np.diag(R) / np.abs(np.diag(R)))
        core = np.zeros((n, n), dtype=complex)
        if n - s > 0:
            block = _clipped_singular(rng, n - s)
            if not real_mode:
                W = np.linalg.qr(
                    rng.standard_normal((n - s, n - s))
                    + 1j * rng.standard_normal((n - s, n - s))
                )[0]
                block = block @ W
            core[s:, s:] = block
        A0 = Q @ core @ Q.conj().T
        if real_mode:
            A0 = A0.real

        B0 = 0.6 * rng.standard_normal((n, n))
        if not real_mode:
            B0 = B0 + 0.6j * rng.standard_normal((n, n))
        B = {}
        for l in range(1, m + 1):
            Bl = _OSC_SCALE * (
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )
            B[l] = Bl
            B[-l] = np.conj(Bl) if real_mode else _OSC_SCALE * (
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )
        d = {}
        if forced:
            d0 = 0.7 * rng.standard_normal(n)
            if not real_mode:
                d0 = d0 + 0.7j * rng.standard_normal(n)
            d[0] = d0
            for l in range(1, m + 1):
                dl = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                d[l] = dl
                d[-l] = np.conj(dl) if real_mode else 0.4 * (
                    rng.standard_normal(n) + 1j * rng.standard_normal(n)
                )
        spec = ProblemSpec(n=n, m=m, A0=A0, B0=B0, B=B, d=d, real_mode=real_mode)
        try:
            kd = compute_kernel_data(spec)
        except (NoKernelError, DegenerateError):
            continue
        if kd.dim == s and kd.solvability_sigma_min >= 0.05:
            return spec
    raise RuntimeError(f"no admissible instance found for seed {seed!r}")
