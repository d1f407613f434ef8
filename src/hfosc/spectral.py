"""Spectral data for the critical case.

The stationary matrix A0 is required to have a zero eigenvalue.  All later
stages work with the geometry of that eigenvalue:

* an orthonormal basis of ker(A0) (columns ``kernel``),
* an orthonormal basis of ker(A0^H) (columns ``left_kernel``),
* the first-order averaged stationary matrix
  A1 = B0 + sum_{1<=|l|<=m} B_{-l} B_l / (i l),
* the solvability matrix S with S[k, j] = <A1 a_j, z_k>, whose invertibility
  is exactly the admissibility condition for the coefficient recursion,
* the partial inverse W of A0: for g orthogonal to ker(A0^H), W g is the
  unique preimage orthogonal to ker(A0).

Both null spaces come from one SVD of A0, so their dimensions agree by
construction and W is the Moore-Penrose inverse truncated at the same rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, NoKernelError, check_finite
from .model import ProblemSpec

# Rank cut for the zero eigenvalue: singular values below
# rank_tol * max(sigma_max, 1) count as zero.
RANK_TOL = 1e-9

# The solvability matrix counts as singular below this relative floor.
DEGENERATE_TOL = 1e-10


def averaged_matrix(spec: ProblemSpec) -> np.ndarray:
    """First-order averaged stationary matrix A1 = B0 + sum B_{-l} B_l/(i l)."""
    A1 = np.array(spec.B0, dtype=complex)
    for l, Bl in spec.B.items():
        Bminus = spec.B.get(-l)
        if Bminus is not None:
            A1 += Bminus @ Bl / (1j * l)
    return A1


@dataclass(frozen=True, eq=False)
class KernelData:
    """Geometry of the zero eigenvalue of A0.

    Attributes
    ----------
    dim : int
        Geometric multiplicity s of the zero eigenvalue.
    kernel : (n, s) array
        Orthonormal basis a_1..a_s of ker(A0), one column per vector.
    left_kernel : (n, s) array
        Orthonormal basis z_1..z_s of ker(A0^H).
    averaged : (n, n) array
        The matrix A1 defined above.
    solvability : (s, s) array
        S[k, j] = z_k^H A1 a_j.  Nonsingular in the admissible case.
    solvability_inv : (s, s) array
        Inverse of ``solvability``.
    restricted_inverse : (n, n) array
        W with A0 W g = g for g in range(A0) and W g orthogonal to ker(A0).
    sigma : (n,) array
        Singular values of A0, descending; the trailing ``dim`` are the ones
        treated as zero.
    solvability_sigma_min : float
        Smallest singular value of ``solvability`` (margin from degeneracy).
    solvability_floor : float
        The floor it cleared: DEGENERATE_TOL * max(sigma_max, 1) of ``solvability``.
    """

    dim: int
    kernel: np.ndarray
    left_kernel: np.ndarray
    averaged: np.ndarray
    solvability: np.ndarray
    solvability_inv: np.ndarray
    restricted_inverse: np.ndarray
    sigma: np.ndarray
    solvability_sigma_min: float
    solvability_floor: float


def numerical_rank(sigma: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    """Count of the (descending) singular values that the rank cut keeps."""
    cut = rank_tol * max(float(sigma[0]), 1.0)
    return int(np.sum(sigma > cut))


def compute_kernel_data(spec: ProblemSpec, rank_tol: float = RANK_TOL) -> KernelData:
    """SVD-based kernel data for the zero eigenvalue of A0.

    Raises NoKernelError when A0 is nonsingular at the rank tolerance,
    DegenerateError when the solvability matrix is singular, and
    NonFiniteError when the averaged matrix A1 overflows.
    """
    n = spec.n
    U, sigma, Vh = np.linalg.svd(spec.A0)
    rank = numerical_rank(sigma, rank_tol)
    s = n - rank
    if s == 0:
        raise NoKernelError(
            f"A0 has no zero eigenvalue at rank tolerance {rank_tol:g} "
            f"(smallest singular value {sigma[-1]:.3e})"
        )
    kernel = Vh[rank:].conj().T
    left_kernel = U[:, rank:]
    inv_sigma = np.zeros(n)
    inv_sigma[:rank] = 1.0 / sigma[:rank]
    restricted_inverse = Vh.conj().T @ np.diag(inv_sigma) @ U.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        A1 = averaged_matrix(spec)
    check_finite("the averaged matrix A1", A1)
    solvability = left_kernel.conj().T @ A1 @ kernel
    sv = np.linalg.svd(solvability, compute_uv=False)
    sigma_min = float(sv[-1])
    floor = DEGENERATE_TOL * max(float(sv[0]), 1.0)
    if sigma_min <= floor:
        raise DegenerateError(
            f"solvability matrix is singular to tolerance "
            f"(sigma_min={sigma_min:.3e}); the coefficient recursion "
            f"cannot be closed"
        )
    return KernelData(
        dim=s,
        kernel=kernel,
        left_kernel=left_kernel,
        averaged=A1,
        solvability=solvability,
        solvability_inv=np.linalg.inv(solvability),
        restricted_inverse=restricted_inverse,
        sigma=sigma,
        solvability_sigma_min=sigma_min,
        solvability_floor=floor,
    )
