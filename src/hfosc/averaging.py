"""Formal averaging in powers of 1/omega and the series stability test.

For the homogeneous system x' = (A0 + B0/omega + B_osc(omega t)) x there is
a formal change of variables x = (I + sum_{k>=1} omega^{-k} U_k(omega t)) y
with zero-mean trig-polynomial U_k that removes the fast time entirely:
y' = (sum_{k>=0} omega^{-k} A_k) y.  Matching powers of omega gives

    U_{k+1}' = (A0 + B_osc) U_k + B0 U_{k-1} - sum_{j<=k} U_j A_{k-j},
    A_k      = the mean of the right side (which makes it integrable),

with U_0 = I.  The A_k feed truncated power series in 1/omega: the
characteristic polynomial of the averaged matrix, then the leading
principal minors of its Hurwitz matrix, each a scalar series.  The sign of
the first nonvanishing coefficient of every minor decides stability for
large omega; a minor that vanishes through the computed truncation leaves
the test inconclusive (and genuinely so: systems agreeing in every
computed order can differ in stability).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotRealError
from .model import ProblemSpec, TrigPoly

# Relative floor below which a series coefficient counts as zero.
ZERO_TOL = 1e-9

# Default truncation depth (power of 1/omega) for the stability series.
DEFAULT_TRUNC = 6


@dataclass(frozen=True, eq=False)
class Series:
    """Truncated power series in 1/omega with array values.

    ``coeffs`` has shape (trunc+1, *shape): ``coeffs[q]`` multiplies
    omega^{-q} and is a number for shape () or a matrix for shape (n, n).
    Arithmetic truncates to the shorter operand and never reads beyond it,
    so truncating operands first and truncating the result agree.
    """

    coeffs: np.ndarray

    # Make numpy arrays and scalars defer to the reflected operators below.
    __array_ufunc__ = None

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim == 0 or len(coeffs) == 0:
            raise ValueError("series needs at least the constant coefficient")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def constant(cls, value, trunc: int) -> "Series":
        value = np.asarray(value, dtype=complex)
        coeffs = np.zeros((trunc + 1,) + value.shape, dtype=complex)
        coeffs[0] = value
        return cls(coeffs)

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, q: int):
        return self.coeffs[q]

    def truncated(self, trunc: int) -> "Series":
        if trunc >= self.trunc:
            return self
        return Series(self.coeffs[: trunc + 1])

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __add__(self, other: "Series") -> "Series":
        k = min(self.trunc, other.trunc)
        return Series(self.coeffs[: k + 1] + other.coeffs[: k + 1])

    def __sub__(self, other: "Series") -> "Series":
        k = min(self.trunc, other.trunc)
        return Series(self.coeffs[: k + 1] - other.coeffs[: k + 1])

    def __mul__(self, other):
        """Product of scalar series, or scaling by a number."""
        if isinstance(other, Series):
            k = min(self.trunc, other.trunc)
            return Series(np.convolve(self.coeffs, other.coeffs)[: k + 1])
        return Series(complex(other) * self.coeffs)

    __rmul__ = __mul__

    def __matmul__(self, other: "Series") -> "Series":
        """Product of matrix series: sum_{i<=q} A_i B_{q-i} at order q."""
        k = min(self.trunc, other.trunc)
        a, b = self.coeffs, other.coeffs
        out = a[0] @ b[: k + 1]
        for i in range(1, k + 1):
            out[i:] += a[i] @ b[: k + 1 - i]
        return Series(out)

    def trace(self) -> "Series":
        return Series(np.trace(self.coeffs, axis1=-2, axis2=-1))

    def __call__(self, omega: float):
        powers = float(omega) ** -np.arange(self.trunc + 1)
        return np.tensordot(powers, self.coeffs, axes=1)[()]


def kb_transform(spec: ProblemSpec, trunc: int):
    """Averaged-matrix series and the transformation terms U_1..U_trunc."""
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")
    stationary = spec.osc_matrix() + spec.A0
    U = [TrigPoly.constant(np.eye(spec.n))]
    A_list = []
    for k in range(trunc + 1):
        G = stationary @ U[k]
        if k >= 1:
            G = G + spec.B0 @ U[k - 1]
        for j in range(1, k + 1):
            G = G - U[j] @ A_list[k - j]
        A_list.append(G.mean())
        if k < trunc:
            U.append((G - G.mean()).antiderivative())
    return Series(A_list), U[1:]


def formal_average(spec: ProblemSpec, trunc: int = DEFAULT_TRUNC) -> Series:
    """Series A0 + A1/omega + ... + A_trunc/omega^trunc of the averaged system."""
    series, _ = kb_transform(spec, trunc)
    return series


def transform_residual(spec: ProblemSpec, omega, trunc: int, samples: int = 128):
    """Defect of the truncated change of variables at a concrete omega.

    Evaluates M(tau) P(tau) - omega P'(tau) - P(tau) A(omega) on a phase
    grid; a correct construction leaves only the unmatched orders, so the
    result scales like omega^{-trunc}.
    """
    series, U = kb_transform(spec, trunc)
    P = TrigPoly.constant(np.eye(spec.n))
    for k, Uk in enumerate(U, start=1):
        P = P + float(omega) ** (-k) * Uk
    taus = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    Pt = P(taus)
    R = spec.system_matrix(taus, omega) @ Pt - omega * P.derivative()(taus)
    R = R - Pt @ series(omega)
    return float(np.max(np.linalg.norm(R, 2, axis=(-2, -1))))


def char_poly_series(ms: Series) -> list:
    """Coefficients alpha_1..alpha_n (as series) of det(lambda I - A(omega)).

    Faddeev-LeVerrier in series arithmetic: M_1 = I, c_k = -tr(A M_k)/k,
    M_{k+1} = A M_k + c_k I.  Works over any commutative ring, so the
    truncated-series coefficients are exact up to rounding.
    """
    n = ms.coeffs.shape[-1]
    eye = np.eye(n)
    alphas = []
    M = Series.constant(eye, ms.trunc)
    for k in range(1, n + 1):
        AM = ms @ M
        ck = (-1.0 / k) * AM.trace()
        alphas.append(ck)
        if k < n:
            M = AM + Series(ck.coeffs[:, None, None] * eye)
    return alphas


def hurwitz_series(alphas: list, trunc: int | None = None) -> list:
    """Leading principal minors D_1..D_n of the Hurwitz matrix, as series.

    Row i, column j of the Hurwitz matrix holds alpha_{2i-j} (1-indexed),
    with alpha_0 = 1 and alpha out of range zero.  Minors are expanded
    recursively along rows with structural-zero pruning and memoization on
    the surviving column set.  The recursion multiplies the coefficient
    arrays as ``Series.__mul__`` does; wrapping every intermediate product
    in a ``Series`` made it twice as slow.
    """
    n = len(alphas)
    if trunc is None:
        trunc = min(a.trunc for a in alphas)
    one = Series.constant(1.0, trunc).coeffs
    zero = Series.constant(0.0, trunc).coeffs
    table = {0: one}
    for idx, a in enumerate(alphas, start=1):
        table[idx] = a.truncated(trunc).coeffs

    def entry(i: int, j: int) -> np.ndarray:  # 1-indexed
        return table.get(2 * i - j, zero)

    minors = []
    for size in range(1, n + 1):
        memo = {}

        def det(cols: tuple) -> np.ndarray:
            if not cols:
                return one
            if cols in memo:
                return memo[cols]
            row = size - len(cols) + 1
            acc = zero
            for pos, c in enumerate(cols):
                e = entry(row, c)
                if e.any():
                    term = np.convolve(e, det(cols[:pos] + cols[pos + 1 :]))[: trunc + 1]
                    acc = acc - term if pos % 2 else acc + term
            memo[cols] = acc
            return acc

        minors.append(Series(det(tuple(range(1, size + 1)))))
        # det refers to itself, so only the cycle collector would free memo;
        # arrays do not count towards that collector's thresholds.
        memo.clear()
    return minors


@dataclass(frozen=True, eq=False)
class StabilityVerdict:
    """Outcome of the series test.

    ``leaders`` has one entry per minor: (order, value) for the first
    coefficient that clears the zero threshold, or None when the whole
    series vanishes through the truncation.  ``kind`` is "Stable" when all
    leaders exist and are positive, "Unstable" when any leader is negative,
    and "Inconclusive" when a minor vanished identically (no finite
    truncation can settle it).
    """

    kind: str
    leaders: tuple
    trunc: int
    zero_tol: float
    detail: str


def classify(minors: list, zero_tol: float = ZERO_TOL) -> StabilityVerdict:
    """Sign-of-leading-coefficient test on the Hurwitz minor series."""
    trunc = min(mnr.trunc for mnr in minors)
    leaders = []
    notes = []
    worst_imag = 0.0
    for mnr in minors:
        coeffs = mnr.coeffs[: trunc + 1]
        scale = max(float(np.max(np.abs(coeffs))), 1.0)
        # Relative to the minor's size: its coefficients reach 1e12 and more
        # for n >= 9, where rounding alone leaves imaginary parts above 1e-6.
        worst_imag = max(worst_imag, float(np.max(np.abs(coeffs.imag))) / scale)
        big = np.flatnonzero(np.abs(coeffs) > zero_tol * scale)
        leaders.append((int(big[0]), float(coeffs[big[0]].real)) if len(big) else None)
    if worst_imag > 1e-6:
        raise NotRealError(
            f"Hurwitz minors have imaginary parts up to {worst_imag:.3e} of their "
            f"largest coefficient; the sign test needs a real system"
        )
    kind = "Stable"
    for j, leader in enumerate(leaders, start=1):
        if leader is not None and leader[1] < 0:
            kind = "Unstable"
            notes.append(f"D_{j} leads with {leader[1]:.6g} at order {leader[0]}")
    if kind != "Unstable":
        for j, leader in enumerate(leaders, start=1):
            if leader is None:
                kind = "Inconclusive"
                notes.append(f"D_{j} vanishes through order {trunc}")
    if kind == "Stable":
        notes.append("all minors lead with positive coefficients")
    return StabilityVerdict(
        kind=kind,
        leaders=tuple(leaders),
        trunc=trunc,
        zero_tol=zero_tol,
        detail="; ".join(notes),
    )


def analyze_stability(
    spec: ProblemSpec,
    trunc: int = DEFAULT_TRUNC,
    zero_tol: float = ZERO_TOL,
) -> StabilityVerdict:
    """Full pipeline: averaged series, characteristic series, minors, signs.

    Only real systems qualify (the sign test reads real leading
    coefficients).  The critical case is assumed but not required here;
    systems without a zero eigenvalue classify fine too.
    """
    if not spec.real_mode:
        raise NotRealError("stability series test requires real_mode")
    series = formal_average(spec, trunc)
    minors = hurwitz_series(char_poly_series(series))
    return classify(minors, zero_tol=zero_tol)
