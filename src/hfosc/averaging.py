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

Both steps are arithmetic on coefficient stacks.  The transform runs on the
trigonometric-polynomial stacks of ``hfosc.model`` through the helpers that
``expand`` uses; the series run on order-first stacks through one truncated
product, ``_product``, and one unit inverse, ``_inverse``.  ``TrigPoly`` and
``Series`` only hold the results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotRealError, check_finite
from .model import ProblemSpec, TrigPoly, _add_centered, _convolve, _integrated, _times, _times_left
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


@functools.cache
def _pairs(k: int):
    ij = np.array(np.nonzero(np.tri(k, dtype=bool)[::-1]))
    ij.setflags(write=False)
    return ij, tuple(slice(np.sum(ij[0] < g), np.sum(ij[0] <= g)) for g in range(k))


def _product(a, b, op=np.multiply):
    """Truncated product of order-first coefficient stacks: order q is the sum
    of op(a[i], b[q - i]) over i <= q, through the shorter stack.  Only pairs
    inside the truncation are formed, so no order reads a higher one; their
    indices (grouped by i) are cached: building them costs more than a product."""
    (i, j), groups = _pairs(min(len(a), len(b)))
    terms = op(a[i], b[j])
    out = terms[groups[0]].copy()
    for shift, group in enumerate(groups[1:], start=1):
        out[shift:] += terms[group]
    return out


def _inverse(a):
    """Entrywise inverse of unit series, b_0 = 1/a_0, b_q = -b_0 sum_{1<=i<=q}
    a_i b_{q-i}: products only, no pivoting to smear exact zeros."""
    b = np.empty_like(a)
    b[0] = 1.0 / a[0]
    c = -b[0] * a[1:]
    for q in range(1, len(a)):
        b[q] = (c[:q] * b[q - 1 :: -1]).sum(axis=0)
    return b


@dataclass(frozen=True, eq=False)
class Series:
    """Truncated power series in 1/omega with array values.

    ``coeffs`` has shape (trunc+1, *shape): ``coeffs[q]`` multiplies
    omega^{-q} and is a number for shape () or a matrix for shape (n, n).
    A value type with no arithmetic operators: the ring's product and unit
    inverse are ``_product`` and ``_inverse``, on order-first stacks.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim == 0 or len(coeffs) == 0:
            raise ValueError("series needs at least the constant coefficient")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, q: int):
        return self.coeffs[q]

    def __call__(self, omega: float):
        powers = float(omega) ** -np.arange(self.trunc + 1)
        return np.tensordot(powers, self.coeffs, axes=1)[()]


def kb_transform(spec: ProblemSpec, trunc: int):
    """Averaged-matrix series and the transformation terms U_1..U_trunc.

    Each order is arithmetic on raw coefficient stacks, as in ``expand``:
    G = M U_k + B0 U_{k-1} - sum_j U_j A_{k-j}, A_k its mean row and
    U_{k+1} its zero-mean antiderivative; the U_k are wrapped once they are
    done.  Raises NonFiniteError when an order overflows."""
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")
    M = spec.matrix.data
    U = [np.eye(spec.n, dtype=complex)[None]]
    A_list = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(trunc + 1):
            G = _convolve(M, U[k])
            if k >= 1:
                _add_centered(G, _times_left(spec.B0, U[k - 1]))
            for j in range(1, k + 1):
                _add_centered(G, _times(U[j], A_list[k - j]), np.subtract)
            check_finite(f"order {k} of the averaging transform", G)
            A_list.append(G[len(G) // 2])
            if k < trunc:
                U.append(_integrated(G))
    return Series(A_list), [TrigPoly._of(Uk) for Uk in U[1:]]


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
    # U_k reaches the harmonics k m, so the last one has the largest bound.
    P = _add_centered(np.zeros_like(U[-1].data), np.eye(spec.n)[None])
    for k, Uk in enumerate(U, start=1):
        _add_centered(P, float(omega) ** (-k) * Uk.data)
    P = TrigPoly._of(P)
    taus = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    Pt = P(taus)
    R = spec.system_matrix(taus, omega) @ Pt - omega * P.derivative()(taus)
    R = R - Pt @ series(omega)
    return float(np.max(np.linalg.norm(R, 2, axis=(-2, -1))))


def char_poly_series(ms: Series) -> list:
    """Coefficients alpha_1..alpha_n (as series) of det(lambda I - A(omega)).

    Faddeev-LeVerrier in series arithmetic: M_1 = I, c_k = -tr(A M_k)/k,
    M_{k+1} = A M_k + c_k I.  Works over any commutative ring, so the
    truncated-series coefficients are exact up to rounding.  Raises
    NonFiniteError when a product overflows.

    Chained by hand with ``hurwitz_series`` and ``classify``, it has no
    constant-term fallback (``analyze_stability``): rounding constant terms
    read as leaders, and the stable constructed n = 28 (seed 2) and n = 32
    systems come out Unstable.
    """
    n = ms.coeffs.shape[-1]
    eye = np.eye(n)
    alphas = []
    M = np.zeros_like(ms.coeffs)
    M[0] = eye
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            AM = _product(ms.coeffs, M, np.matmul)
            check_finite(f"A M_{k} of the characteristic series", AM)
            ck = (-1.0 / k) * np.trace(AM, axis1=-2, axis2=-1)
            alphas.append(Series(ck))
            if k < n:
                M = AM + ck[:, None, None] * eye
    return alphas


def hurwitz_series(alphas: list) -> list:
    """Leading principal minors D_1..D_n of the Hurwitz matrix, as series.

    Row i, column j of the Hurwitz matrix holds alpha_{2i-j} (1-indexed),
    with alpha_0 = 1 and alpha out of range zero.  The leading blocks
    H_1..H_{n-1}, padded with zeros to the largest, are one stack in the
    layout of ``Series.coeffs``, (order, block, row, column), and one
    Gaussian elimination over the ring of truncated series reduces them all:
    C[eps]/eps^(trunc+1), eps = 1/omega, trunc the smallest truncation of
    the alphas.  D_n = alpha_n D_{n-1}: the last row of H_n holds alpha_n.

    Order-0 entries at or below ``PIVOT_TOL`` times their block's largest
    coefficient are set to exact zeros.  Each step then takes the largest
    order-0 entry of a block as pivot (complete pivoting).  Its series is a
    unit: the determinant is multiplied by it and the Schur complement is
    formed with its inverse, which loses nothing modulo eps^(trunc+1).  A
    block without a nonzero order-0 entry is divisible by eps: det(B) =
    eps^m det(B / eps), so its layers move down one order and m is added to
    the minor's eps-power.  The top layer that this leaves unknown only
    reaches orders above the truncation.  A minor whose eps-power passes
    ``trunc`` is zero through the truncation.  The cost is O(n^4 trunc^2).
    Raises NonFiniteError when a determinant overflows, also one whose minor
    vanishes (n = 40).  Chained by hand it gives wrong verdicts: see
    ``char_poly_series``.
    """
    if not alphas:
        raise ValueError("hurwitz_series needs at least one coefficient alpha_1")
    trunc = min(a.trunc for a in alphas)
    n, width = len(alphas), trunc + 1
    # alpha_0 = 1, alpha_1..alpha_n, and a zero column for indices out of range.
    table = np.stack([np.eye(width)[0], *(a.coeffs[:width] for a in alphas), np.zeros(width)], 1)
    size = n - 1
    i, j = np.arange(size)[:, None], np.arange(size)
    index = 2 * i - j + 1
    H = table[:, np.where((index >= 0) & (index <= n), index, n + 1)]
    # Block b is H_{b+1}: b + 1 active rows and columns while it is open,
    # and zero padding that never wins the pivot search.
    W = np.where(np.maximum(i, j) <= np.arange(size)[:, None, None], H[:, None], 0.0)
    floor = PIVOT_TOL * np.abs(W).max(axis=(0, 2, 3), initial=0.0)[:, None, None]
    # One determinant per block, kept past the block's last step for the
    # final check.
    det = np.zeros((width, size), dtype=complex)
    det[0] = 1.0
    power, parity = np.zeros((2, size), dtype=int)
    minors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for blocks in range(size, 0, -1):
            while True:
                # Order-0 entries that count as zero are made exact zeros.
                W[0][np.abs(W[0]) <= floor] = 0.0
                lead = np.abs(W[0]).reshape(blocks, -1)
                short = ~lead.any(axis=1) & (power <= trunc)
                if not short.any():
                    break
                W[:-1, short] = W[1:, short]
                W[-1, short] = 0.0
                power[short] += np.flatnonzero(short) + 1
            dead = power > trunc
            if dead.any():
                # Their minors vanish through the truncation; an identity block
                # rides along harmlessly until it is dropped.
                W[:, dead] = 0.0
                W[0, dead] = np.eye(blocks)
                lead[dead] = np.eye(blocks).ravel()
            # Move each pivot to the corner, keeping the other rows and columns
            # in order: r + c transpositions.
            r, c = np.divmod(lead.argmax(axis=1)[:, None], blocks)
            keep = np.arange(blocks - 1)
            rows = np.concatenate([r, keep + (keep >= r)], axis=1)
            cols = np.concatenate([c, keep + (keep >= c)], axis=1)
            W = W[:, np.arange(blocks)[:, None, None], rows[:, :, None], cols[:, None, :]]
            done = size - blocks
            det[:, done:] = _product(det[:, done:], W[:, :, 0, 0])
            parity += (r + c)[:, 0]
            # Block 0 had one active row left: its minor is complete.
            minor = np.zeros(width, dtype=complex)
            if power[0] <= trunc:
                minor[power[0] :] = (-1) ** parity[0] * det[: width - power[0], done]
            minors.append(Series(minor))
            if blocks == 1:
                break
            W, power, parity, floor = W[:, 1:], power[1:], parity[1:], floor[1:]
            # Schur complement: rest - (col / pivot) * row.
            f = _product(_inverse(W[:, :, :1, 0]), W[:, :, 1:, 0])
            W = W[:, :, 1:, 1:] - _product(f[..., None], W[:, :, :1, 1:])
        # The last row of H_n is (0, ..., 0, alpha_n); for n = 1 alpha_1 sets trunc.
        minors.append(
            Series(_product(alphas[-1].coeffs, minors[-1].coeffs)) if minors else alphas[-1]
        )
    check_finite("a Hurwitz minor", det, minors[-1].coeffs)
    return minors


@dataclass(frozen=True, eq=False, kw_only=True)
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
    ``zero_ratios`` keep their empty defaults, and ``imag_ratio`` is None
    unless the minors' imaginary parts were what failed.

    The measured quantities stand next to their thresholds: ``imag_ratio``
    is the largest imaginary part of any minor relative to that minor's
    scale (``IMAG_TOL`` bounds it), and ``zero_ratios`` holds per minor the
    largest coefficient, relative to the same scale, that was counted as
    zero (below ``zero_tol``; 0.0 when the minor leads at order 0).
    """

    kind: str
    leaders: tuple = ()
    trunc: int
    zero_tol: float
    detail: str
    imag_ratio: float | None = None
    imag_tol: float = IMAG_TOL
    zero_ratios: tuple = ()


def _minor_scale(coeffs) -> float:
    return max(float(np.max(np.abs(coeffs))), 1.0)


def _imag_ratio(minors: list, trunc: int) -> float:
    """The largest imaginary part of any minor through ``trunc``, relative to
    that minor's scale: its coefficients reach 1e12 and more for n >= 9,
    where rounding alone leaves imaginary parts above 1e-6.  A non-finite
    minor can make it NaN, which the numpy max passes on."""
    return float(np.max([
        float(np.max(np.abs(mnr.coeffs[: trunc + 1].imag))) / _minor_scale(mnr.coeffs[: trunc + 1])
        for mnr in minors
    ]))


def classify(minors: list, zero_tol: float = ZERO_TOL) -> StabilityVerdict:
    """Sign-of-leading-coefficient test on the Hurwitz minor series.

    Raises NotRealError on minors complex beyond ``IMAG_TOL``.  Chained by
    hand it gives wrong verdicts: see ``char_poly_series``.
    """
    if not minors:
        raise ValueError("classify needs at least one Hurwitz minor")
    trunc = min(mnr.trunc for mnr in minors)
    bad = [f"D_{j}" for j, mnr in enumerate(minors, start=1)
           if not np.isfinite(mnr.coeffs[: trunc + 1]).all()]
    if bad:
        return StabilityVerdict(
            kind="Inconclusive", trunc=trunc, zero_tol=zero_tol,
            detail=f"non-finite coefficients in {', '.join(bad)} (overflow or "
            "invalid arithmetic): no sign test",
        )
    worst_imag = _imag_ratio(minors, trunc)
    if worst_imag > IMAG_TOL:
        raise NotRealError(
            f"Hurwitz minors have imaginary parts up to {worst_imag:.3e} of their "
            f"largest coefficient; the sign test needs a real system"
        )
    leaders = []
    zero_ratios = []
    for mnr in minors:
        coeffs = mnr.coeffs[: trunc + 1]
        scale = _minor_scale(coeffs)
        big = np.flatnonzero(np.abs(coeffs) > zero_tol * scale)
        lead = int(big[0]) if len(big) else len(coeffs)
        leaders.append((lead, float(coeffs[lead].real)) if len(big) else None)
        zero_ratios.append(float(np.abs(coeffs[:lead]).max(initial=0.0)) / scale)
    numbered = list(enumerate(leaders, start=1))
    negative = [f"D_{j} leads with {lead[1]:.6g} at order {lead[0]}"
                for j, lead in numbered if lead is not None and lead[1] < 0]
    vanished = [f"D_{j} vanishes through order {trunc}" for j, lead in numbered if lead is None]
    kind = "Unstable" if negative else "Inconclusive" if vanished else "Stable"
    return StabilityVerdict(
        kind=kind, leaders=tuple(leaders), trunc=trunc, zero_tol=zero_tol,
        detail="; ".join(negative or vanished or ["all minors lead with positive coefficients"]),
        imag_ratio=worst_imag, zero_ratios=tuple(zero_ratios),
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
    ``IMAG_TOL`` of their scale: that exit returns before ``classify``, which
    would raise NotRealError on them.
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
        return StabilityVerdict(kind="Inconclusive", trunc=trunc, zero_tol=zero_tol, detail=detail)
    minors = hurwitz_series(alphas)
    # A real system's minors are real: the imaginary parts they keep are
    # rounding, and above IMAG_TOL they leave the minors too inexact.  NaN
    # fails the comparison, so non-finite minors reach classify's own exit.
    imag = _imag_ratio(minors, trunc)
    if imag > IMAG_TOL:
        detail = (
            f"Hurwitz minors of this real system keep imaginary parts up to {imag:.3e} "
            f"of their largest coefficient from rounding, above imag_tol {IMAG_TOL:g}: "
            f"too inexact for the sign test"
        )
        return StabilityVerdict(
            kind="Inconclusive", trunc=trunc, zero_tol=zero_tol, detail=detail, imag_ratio=imag
        )
    return classify(minors, zero_tol=zero_tol)
