"""Independent reference computations and the checks built on them.

Nothing here calls into ``hfosc``: each reference starts from the problem's
coefficient arrays and uses numpy/scipy directly.  Every check returns
``None`` when the program's result passes and a one-line reason when it
does not; ``selftest.py`` shows that each one rejects a perturbed result.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm, null_space, solve_banded

# -- references ------------------------------------------------------------


def coefficients(spec):
    """Plain arrays (A0, B0, {l: B_l}, {l: d_l}) of a problem."""
    return (
        np.array(spec.A0, dtype=complex),
        np.array(spec.B0, dtype=complex),
        {int(l): np.array(b, dtype=complex) for l, b in spec.B.items()},
        {int(l): np.array(v, dtype=complex) for l, v in spec.d.items()},
    )


def averaged_closed_form(spec) -> np.ndarray:
    """A1 = B0 + sum_{l != 0} B_{-l} B_l / (i l)."""
    _, B0, B, _ = coefficients(spec)
    return B0 + sum((B[-l] @ B[l] / (1j * l) for l in B if -l in B), np.zeros_like(B0))


def kernels(spec, rtol: float = 1e-9):
    """Orthonormal bases of ker(A0) and ker(A0^H) from scipy's null_space."""
    A0 = coefficients(spec)[0]
    return null_space(A0, rcond=rtol), null_space(A0.conj().T, rcond=rtol)


def leading_term(spec) -> np.ndarray:
    """v_{-1}, the O(omega) part of the periodic solution.

    Averaging the equation over one period at order omega^0 leaves
    A0 v_{-1} = 0 and, at order omega^-1 projected on ker(A0^H),
    Z^H (A1 v_{-1} + d_0) = 0.
    """
    N, Z = kernels(spec)
    A1 = averaged_closed_form(spec)
    d0 = coefficients(spec)[3].get(0, np.zeros(spec.n, dtype=complex))
    c = np.linalg.solve(Z.conj().T @ A1 @ N, -(Z.conj().T @ d0))
    return N @ c


def hill_solution(spec, omega: float, t, tol: float = 1e-17):
    """Periodic solution by harmonic balance (Hill's method).

    Writes x(t) = sum_{|k| <= H} c_k e^{i k omega t} and solves the banded
    block system (i k omega - A) c_k - sum_l B_l c_{k-l} = d_k with
    A = A0 + B0/omega.  The coefficients decay by about 2 m |B| / omega per
    block of m harmonics, which sets H.  Returns x at the times ``t``.
    """
    A0, B0, B, d = coefficients(spec)
    n, m = spec.n, spec.m
    A = A0 + B0 / omega
    bnorm = max((np.linalg.norm(b, 2) for b in B.values()), default=0.0)
    if m:
        rho = min(0.5, 2.0 * m * bnorm / omega)
        H = m * (int(np.ceil(np.log(tol) / np.log(rho))) + 2)
    else:
        H = 0
    blocks = 2 * H + 1
    size = n * blocks
    bw = (m + 1) * n - 1
    ab = np.zeros((2 * bw + 1, size), dtype=complex)
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]

    def put(i, j, block):
        r = i * n + rows
        c = j * n + cols
        ab[bw + r - c, c] += block

    rhs = np.zeros(size, dtype=complex)
    eye = np.eye(n)
    for i, k in enumerate(range(-H, H + 1)):
        put(i, i, 1j * k * omega * eye - A)
        for l, Bl in B.items():
            if 0 <= i - l < blocks:
                put(i, i - l, -Bl)
        if k in d:
            rhs[i * n : (i + 1) * n] = d[k]
    c = solve_banded((bw, bw), ab, rhs).reshape(blocks, n)
    ks = np.arange(-H, H + 1)
    return np.exp(1j * omega * np.outer(np.asarray(t, dtype=float), ks)) @ c


def monodromy_expm(spec, omega: float) -> np.ndarray:
    """Period map of an m = 0 system: exp(T (A0 + B0/omega))."""
    if spec.m != 0 or spec.B:
        raise ValueError("closed-form monodromy needs m = 0")
    A0, B0, _, _ = coefficients(spec)
    return expm(2 * np.pi / omega * (A0 + B0 / omega))


def multipliers_expm(spec, omega: float) -> np.ndarray:
    return np.linalg.eigvals(monodromy_expm(spec, omega))


def series_residual(spec, mean, osc, omega: float, samples: int = 256) -> float:
    """Worst ODE defect of a trigonometric polynomial over one period.

    ``mean`` is the constant part and ``osc`` maps harmonics to vectors of
    S(tau) = mean + sum_l osc[l] e^{i l tau}.  The defect
    S' - (A0 + B0/omega + sum B_l e^{i l tau}) S - d(tau) is formed
    coefficient by coefficient, then sampled at ``samples`` phases.
    """
    A0, B0, B, d = coefficients(spec)
    A = A0 + B0 / omega
    S = {0: np.array(mean, dtype=complex)}
    for l, v in osc.items():
        S[l] = S.get(l, 0) + np.asarray(v, dtype=complex)
    R = {}
    for k, v in S.items():
        R[k] = R.get(k, 0) + 1j * k * omega * v - A @ v
        for l, Bl in B.items():
            R[k + l] = R.get(k + l, 0) - Bl @ v
    for l, v in d.items():
        R[l] = R.get(l, 0) - v
    taus = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    ks = np.array(sorted(R))
    coeff = np.array([R[k] for k in ks])
    values = np.exp(1j * np.outer(taus, ks)) @ coeff
    return float(np.max(np.linalg.norm(values, axis=1)))


# -- checks ----------------------------------------------------------------


def _rel(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def check_close(what: str, got, want, rtol: float):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    err = _rel(got, want)
    if not err <= rtol:
        return f"{what}: relative error {err:.3e} > {rtol:g}"
    return None


def _subspace_gap(U, V) -> float:
    """Largest principal-angle sine between two orthonormal bases."""
    return float(np.linalg.norm(U @ U.conj().T - V @ V.conj().T, 2))


def check_kernels(spec, kernel, left_kernel, tol: float = 1e-8):
    """Bases must be orthonormal and span the null_space subspaces."""
    N, Z = kernels(spec)
    for what, got, want in (("kernel", kernel, N), ("left kernel", left_kernel, Z)):
        got = np.asarray(got)
        if got.shape != want.shape:
            return f"{what}: dimension {got.shape[1]} != {want.shape[1]}"
        ortho = float(np.max(np.abs(got.conj().T @ got - np.eye(got.shape[1]))))
        if not ortho <= tol:
            return f"{what}: basis not orthonormal ({ortho:.3e})"
        gap = _subspace_gap(got, want)
        if not gap <= tol:
            return f"{what}: span differs from null_space by {gap:.3e}"
    return None


def check_averaged(spec, averaged, rtol: float = 1e-12):
    return check_close("A1", averaged, averaged_closed_form(spec), rtol)


def check_leading(spec, v_lead, rtol: float = 1e-8):
    return check_close("omega v_{-1} term", v_lead, leading_term(spec), rtol)


def check_multipliers(spec, omega: float, mult, rtol: float = 1e-9):
    """Characteristic multipliers against eig(expm) for m = 0 systems."""
    want = np.sort_complex(multipliers_expm(spec, omega))
    return check_close("multipliers", np.sort_complex(np.asarray(mult)), want, rtol)


def check_monodromy(spec, omega: float, Phi, rtol: float = 1e-9):
    return check_close("monodromy", Phi, monodromy_expm(spec, omega), rtol)


def check_partial_sum(x, x_ref, order: int, omega: float, factor: float = 100.0):
    """An order-r partial sum may miss the true solution by its tail,
    O(omega^-(r+1)); the budget is ``factor`` times that, relative to |x|."""
    scale = max(1.0, float(np.max(np.abs(x_ref))))
    budget = factor * scale * float(omega) ** -(order + 1)
    err = float(np.max(np.linalg.norm(np.asarray(x) - x_ref, axis=-1)))
    if not err <= budget:
        return f"order-{order} partial sum misses the solution by {err:.3e} > {budget:.3e}"
    return None


def check_residual(got: float, want: float, rtol: float = 1e-4):
    if not abs(got - want) <= rtol * abs(want):
        return f"ODE defect {got:.6e} differs from the independent {want:.6e}"
    return None


def check_char_poly_leading(spec, alphas_at_zero, tol: float = 1e-9):
    """Order-0 coefficients of det(lambda I - A(omega)) are those of A0."""
    want = np.poly(coefficients(spec)[0])[1:]
    got = np.asarray(alphas_at_zero)
    scale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want))) / scale
    if not err <= tol:
        return f"characteristic polynomial at omega=inf off by {err:.3e}"
    return None


def check_slope(slope: float, order: int, tol: float = 0.4):
    if not abs(slope + (order + 1)) < tol:
        return f"order-{order} error slope {slope:.3f} not within {tol} of {-(order + 1)}"
    return None


def check_verdict(what: str, got: str, want: str):
    if got != want:
        return f"{what} verdict {got!r}, expected {want!r}"
    return None


def check_true(what: str, value):
    if value is not True:
        return f"{what} is {value!r}, expected True"
    return None
