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

from .errors import NotRealError, check_finite
from .model import ProblemSpec, TrigPoly
from .spectral import numerical_rank

# Relative floor below which a series coefficient counts as zero.
ZERO_TOL = 1e-9

# Order-0 entries of a Hurwitz block at or below this fraction of the
# block's largest coefficient count as zero in the elimination: they are the
# rounding left where a characteristic coefficient has no constant term.
# Genuine order-0 entries were measured down to 1e-13 of the block (n = 24).
PIVOT_TOL = 1e-15

# Bound on a minor's imaginary parts, relative to its largest coefficient,
# below which they count as rounding of a real system.
IMAG_TOL = 1e-6

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
    """Averaged-matrix series and the transformation terms U_1..U_trunc.
    Raises NonFiniteError when an order overflows."""
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")
    stationary = spec.osc_matrix() + spec.A0
    U = [TrigPoly.constant(np.eye(spec.n))]
    A_list = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(trunc + 1):
            G = stationary @ U[k]
            if k >= 1:
                G = G + spec.B0 @ U[k - 1]
            for j in range(1, k + 1):
                G = G - U[j] @ A_list[k - j]
            check_finite(f"order {k} of the averaging transform", G.data)
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
    with alpha_0 = 1 and alpha out of range zero.  Every leading block is
    reduced by Gaussian elimination over the truncated series ring
    C[eps]/eps^(trunc+1), eps = 1/omega; the blocks H_1..H_{n-1} ride one
    batched elimination, each padded with zeros to the largest size, and
    D_n = alpha_n D_{n-1} because the last row of H_n holds alpha_n alone.

    Order-0 entries at or below ``PIVOT_TOL`` times their block's largest
    coefficient are set to exact zeros.  Each step then takes the largest order-0 entry of a
    block as pivot (complete pivoting).  Its series is a unit: the
    determinant is multiplied by it and the Schur complement is formed with
    its inverse series, which loses nothing modulo eps^(trunc+1).  A block
    without a nonzero order-0 entry is divisible by eps: det(B) = eps^m
    det(B / eps), so its layers move down one order and m is added to the
    minor's eps-power.  The top layer that this leaves unknown only reaches
    orders above the truncation.  A minor whose eps-power passes ``trunc``
    is zero through the truncation.  The cost is O(n^4 trunc^2).
    """
    if not alphas:
        raise ValueError("hurwitz_series needs at least one coefficient alpha_1")
    depth = min(a.trunc for a in alphas)
    if trunc is None:
        trunc = depth
    if not 0 <= trunc <= depth:
        raise ValueError(
            f"trunc must lie in 0..{depth}, the truncation of the alphas; got {trunc}"
        )
    n, width = len(alphas), trunc + 1
    # toeplitz(a)[..., q, i] = a[..., q - i] on and below the diagonal, so
    # toeplitz(a) @ b is the truncated product of the series a and b.
    lag = np.subtract.outer(np.arange(width), np.arange(width))
    below = lag >= 0
    eye = np.eye(width)

    def toeplitz(a):
        return a[..., lag] * below

    # alpha_0 = 1, alpha_1..alpha_n, and a zero row for indices out of range.
    table = np.zeros((n + 2, width), dtype=complex)
    table[0, 0] = 1.0
    table[1 : n + 1] = [a.coeffs[:width] for a in alphas]
    size = n - 1
    i, j = np.arange(size)[:, None], np.arange(size)
    index = 2 * i - j + 1
    H = table[np.where((index >= 0) & (index <= n), index, n + 1)]
    # Block b is H_{b+1} padded with zeros: shape (blocks, rows, cols, order).
    # Block b has b + 1 active rows and columns while it is open, and its
    # zero padding never wins the pivot search.
    W = np.where((np.maximum(i, j) <= np.arange(size)[:, None, None])[..., None], H, 0.0)
    floor = PIVOT_TOL * np.abs(W).max(axis=(1, 2, 3), initial=0.0)[:, None, None]
    det = np.zeros((size, width), dtype=complex)
    det[:, 0] = 1.0
    power = np.zeros(size, dtype=int)
    parity = np.zeros(size, dtype=int)
    minors = []
    for blocks in range(size, 0, -1):
        while True:
            # Order-0 entries that count as zero are made exact zeros.
            lead = np.abs(W[..., 0])
            zero = lead <= floor
            W[..., 0][zero] = 0.0
            lead[zero] = 0.0
            lead = lead.reshape(blocks, -1)
            short = ~lead.any(axis=1) & (power <= trunc)
            if not short.any():
                break
            W[short, ..., :-1] = W[short, ..., 1:]
            W[short, ..., -1] = 0.0
            power[short] += np.flatnonzero(short) + 1
        dead = power > trunc
        if dead.any():
            # Their minors vanish through the truncation; an identity block
            # rides along harmlessly until it is dropped.
            W[dead] = 0.0
            W[dead, :, :, 0] = np.eye(blocks)
            lead[dead] = np.eye(blocks).ravel()
        # Move each pivot to the corner, keeping the other rows and columns
        # in order: r + c transpositions.
        r, c = np.divmod(lead.argmax(axis=1)[:, None], blocks)
        keep = np.arange(blocks - 1)
        rows = np.concatenate([r, keep + (keep >= r)], axis=1)
        cols = np.concatenate([c, keep + (keep >= c)], axis=1)
        at = (np.arange(blocks)[:, None, None], rows[:, :, None], cols[:, None, :])
        W = W[at]
        det = (toeplitz(det) @ W[:, 0, 0, :, None])[..., 0]
        parity += (r + c)[:, 0]
        # Block 0 had one active row left: its minor is complete.
        minor = np.zeros(width, dtype=complex)
        if power[0] <= trunc:
            minor[power[0] :] = (-1) ** parity[0] * det[0, : width - power[0]]
        minors.append(Series(minor))
        if blocks == 1:
            break
        W, det, power, parity, floor = W[1:], det[1:], power[1:], parity[1:], floor[1:]
        m = blocks - 1
        # T(pivot) = p0 (I + N) with N nilpotent, so its inverse is
        # (I - N)(I + N^2)(I + N^4)... / p0: products only, no pivoting
        # that would smear the exact zeros of col over f = col / pivot.
        p0 = W[:, 0, 0, :1, None]
        N = toeplitz(W[:, 0, 0]) / p0 - eye
        inv, Nk, done = eye - N, N @ N, 2
        while done < width:
            inv, Nk, done = inv + inv @ Nk, Nk @ Nk, 2 * done
        f = (inv / p0) @ W[:, 1:, 0].transpose(0, 2, 1)
        # Schur complement: rest - f * row.
        update = toeplitz(W[:, 0, 1:]).reshape(m, m * width, width) @ f
        W = W[:, 1:, 1:] - update.reshape(m, m, width, m).transpose(0, 3, 1, 2)
    # The last row of H_n is (0, ..., 0, alpha_n).
    last = alphas[-1].truncated(trunc)
    minors.append(last * minors[-1] if minors else last)
    return minors


@dataclass(frozen=True, eq=False)
class StabilityVerdict:
    """Outcome of the series test.

    ``leaders`` has one entry per minor: (order, value) for the first
    coefficient that clears the zero threshold, or None when the whole
    series vanishes through the truncation.  ``kind`` is "Stable" when all
    leaders exist and are positive, "Unstable" when any leader is negative,
    and "Inconclusive" when a minor vanished identically (no finite
    truncation can settle it), when a minor has a non-finite coefficient, or
    when ``analyze_stability`` found the characteristic series or the minors
    of a real system too inexact; in these last cases ``leaders`` and
    ``zero_ratios`` are empty, and ``imag_ratio`` is None unless the minors'
    imaginary parts were what failed.

    The measured quantities stand next to their thresholds: ``imag_ratio``
    is the largest imaginary part of any minor relative to that minor's
    scale (``IMAG_TOL`` bounds it), and ``zero_ratios`` holds per minor the
    largest coefficient, relative to the same scale, that was counted as
    zero (below ``zero_tol``; 0.0 when the minor leads at order 0).
    """

    kind: str
    leaders: tuple
    trunc: int
    zero_tol: float
    detail: str
    imag_ratio: float | None
    imag_tol: float
    zero_ratios: tuple


def _minor_scale(coeffs) -> float:
    return max(float(np.max(np.abs(coeffs))), 1.0)


def _imag_ratio(minors: list, trunc: int) -> float:
    """The largest imaginary part of any minor through ``trunc``, relative to
    that minor's scale: its coefficients reach 1e12 and more for n >= 9,
    where rounding alone leaves imaginary parts above 1e-6."""
    return max(
        float(np.max(np.abs(mnr.coeffs[: trunc + 1].imag))) / _minor_scale(mnr.coeffs[: trunc + 1])
        for mnr in minors
    )


def classify(minors: list, zero_tol: float = ZERO_TOL) -> StabilityVerdict:
    """Sign-of-leading-coefficient test on the Hurwitz minor series."""
    if not minors:
        raise ValueError("classify needs at least one Hurwitz minor")
    trunc = min(mnr.trunc for mnr in minors)
    bad = [f"D_{j}" for j, mnr in enumerate(minors, start=1)
           if not np.isfinite(mnr.coeffs[: trunc + 1]).all()]
    if bad:
        return StabilityVerdict(
            kind="Inconclusive", leaders=(), trunc=trunc, zero_tol=zero_tol,
            detail=f"non-finite coefficients in {', '.join(bad)} (overflow or "
            "invalid arithmetic): no sign test",
            imag_ratio=None, imag_tol=IMAG_TOL, zero_ratios=(),
        )
    worst_imag = _imag_ratio(minors, trunc)
    if worst_imag > IMAG_TOL:
        raise NotRealError(
            f"Hurwitz minors have imaginary parts up to {worst_imag:.3e} of their "
            f"largest coefficient; the sign test needs a real system"
        )
    leaders = []
    zero_ratios = []
    notes = []
    for mnr in minors:
        coeffs = mnr.coeffs[: trunc + 1]
        scale = _minor_scale(coeffs)
        big = np.flatnonzero(np.abs(coeffs) > zero_tol * scale)
        lead = int(big[0]) if len(big) else len(coeffs)
        leaders.append((lead, float(coeffs[lead].real)) if len(big) else None)
        zero_ratios.append(float(np.abs(coeffs[:lead]).max(initial=0.0)) / scale)
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
        imag_ratio=worst_imag,
        imag_tol=IMAG_TOL,
        zero_ratios=tuple(zero_ratios),
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

    With s zero eigenvalues at the rank cut, alpha_{n-s+1}..alpha_n have no
    constant term; rounding left there above ``zero_tol`` of the alpha's
    largest coefficient (n >= 28) would pass for a leader: Inconclusive.
    So are minors whose imaginary parts, rounding in a real system, exceed
    ``IMAG_TOL`` of their scale, where ``classify`` would raise NotRealError.
    """
    if not spec.real_mode:
        raise NotRealError("stability series test requires real_mode")
    alphas = char_poly_series(formal_average(spec, trunc))
    rank = numerical_rank(np.linalg.svd(spec.A0, compute_uv=False))
    ratios = [
        abs(a.coeffs[0]) / np.abs(a.coeffs).max() if a.coeffs[0] else 0.0
        for a in alphas[rank:]
    ]
    if max(ratios, default=0.0) > zero_tol:
        k = int(np.argmax(ratios))
        detail = (
            f"A0 has {spec.n - rank} zero eigenvalues, but alpha_{rank + k + 1} keeps a "
            f"constant term of {ratios[k]:.3e} of its largest coefficient, above "
            f"zero_tol {zero_tol:g}: too inexact for the sign test"
        )
        return StabilityVerdict(
            kind="Inconclusive", leaders=(), trunc=trunc, zero_tol=zero_tol,
            detail=detail, imag_ratio=None, imag_tol=IMAG_TOL, zero_ratios=(),
        )
    minors = hurwitz_series(alphas)
    try:
        return classify(minors, zero_tol=zero_tol)
    except NotRealError:
        # A real system's minors are real: the imaginary parts they keep are
        # rounding, and above IMAG_TOL they leave the minors too inexact.
        imag = _imag_ratio(minors, min(mnr.trunc for mnr in minors))
    detail = (
        f"Hurwitz minors of this real system keep imaginary parts up to {imag:.3e} "
        f"of their largest coefficient from rounding, above imag_tol {IMAG_TOL:g}: "
        f"too inexact for the sign test"
    )
    return StabilityVerdict(
        kind="Inconclusive", leaders=(), trunc=trunc, zero_tol=zero_tol,
        detail=detail, imag_ratio=imag, imag_tol=IMAG_TOL, zero_ratios=(),
    )
