"""Problem container and trigonometric-polynomial primitives.

A problem is the linear system

    dx/dt = (A0 + B0/omega) x + sum_{1<=|l|<=m} (B_l x + d_l) e^{i l omega t}
            + d_0

described by a JSON-style document.  Everything downstream (spectral data,
expansions, bounds, averaging, the reference integrator) consumes the
``ProblemSpec`` built here, whose constructor also builds the system's two
trigonometric polynomials once: ``spec.matrix``, M(tau) = A0 + sum B_l
e^{i l tau}, and ``spec.forcing``, f(tau) = sum d_l e^{i l tau}.

Every trigonometric polynomial, the system's coefficients as well as the
terms of the expansion, is evaluated in one basis, cos(l tau) and sin(l tau)
written as shifted cosines (``Sampler``).  It is exact for complex
coefficients, and a real system's coefficients are real in it, so a real
system is evaluated in real arithmetic: its field (``field_map``) as well as
the partial sums of its expansion.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConjugacyError, SchemaError

# Absolute tolerance for the real-mode conjugate-symmetry checks.
CONJ_TOL = 1e-12

_DOC_FIELDS = ("n", "m", "real_mode", "A0", "B0", "B", "d")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=complex)
    arr.setflags(write=False)
    return arr


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _checked(value, shape, name):
    """Frozen complex copy of value, a finite rectangular array of numbers of
    the given shape: ragged rows, booleans, strings and None are rejected,
    also among numbers.  A numeric ndarray is taken as it is."""
    try:
        # Anything but an ndarray goes through an object array, where a
        # boolean or None among numbers is seen before numpy converts it.
        arr = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
        if arr.dtype.kind not in "iufcO" or arr.dtype.kind == "O" and not all(
            issubclass(t, numbers.Number) and not issubclass(t, (bool, np.bool_))
            for t in {type(x) for x in arr.flat}
        ):
            raise TypeError
        arr = _freeze(arr)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{name} must be an array of numbers of shape {shape}") from None
    if arr.shape != shape:
        raise SchemaError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise SchemaError(f"{name} has non-finite entries")
    return arr


def _checked_harmonics(coeffs, shape, name, low, m):
    """Checked map from integer harmonics low <= |l| <= m, exact zeros dropped
    (after the checks, so a zero block out of range is rejected), in
    ascending order of l: sums over it, such as the averaged matrix's, then
    add in one order for every spec with the same canonical document."""
    if not isinstance(coeffs, dict):
        raise SchemaError(f"{name} must be a dict of harmonic -> coefficient")
    out = {}
    for l, c in coeffs.items():
        if not _is_int(l):
            raise SchemaError(f"{name} harmonic {l!r} is not an integer")
        if not low <= abs(l) <= m:
            raise SchemaError(f"{name} harmonic {l} outside {low} <= |l| <= {m}")
        arr = _checked(c, shape, f"{name}[{l}]")
        if arr.any():
            out[int(l)] = arr
    return dict(sorted(out.items()))


def _times(stack, c):
    """Every coefficient of a stack times the constant c on the right: one
    GEMM of the stack's rows."""
    return (stack.reshape(-1, len(c)) @ c).reshape(stack.shape[:-1] + c.shape[1:])


def _times_left(c, stack):
    """The constant c times every coefficient of a stack on the left: one
    GEMM for a stack of vectors, batched for matrices."""
    return stack @ c.T if stack.ndim == 2 else c @ stack


def _transposed(stack):
    """The stack of transposed coefficients; a vector is its own transpose."""
    return stack if stack.ndim == 2 else stack.swapaxes(1, 2)


def _convolve(a, b):
    """Coefficient stack of the product of the stacks a and b: row q is the
    sum of a[i] @ b[j] over i + j = q.

    With the shorter stack on the left (a shorter right one is taken through
    the transposes, (a b)^T = b^T a^T), one batched matmul forms every
    product a[i] @ b[j] as one product of a[i] with the whole of b, into row
    i of an (L, L_b + 2 (L - 1)) stack of terms that is zero outside them.
    Row q of the result is then the terms (i, q - i), one diagonal of that
    stack: a strided view, summed over i in one call, in order of i.  The
    terms are the sums over the contracted axis of the per-harmonic
    products, and they are added in the same order, so the result is the
    per-harmonic loop's to the bit."""
    if len(a) > len(b):
        return _transposed(_convolve(_transposed(b), _transposed(a)))
    L, k, rows = len(a), b.shape[1], len(a) + len(b) - 1
    terms = np.zeros((L, len(b) + 2 * (L - 1)) + a.shape[1:-1] + b.shape[2:], dtype=complex)
    products = terms[:, L - 1 : len(b) + L - 1]
    if b.ndim == 2:
        np.matmul(b, a.swapaxes(1, 2), out=products)
    else:
        np.matmul(a.reshape(L, 1, -1, k), b, out=products.reshape(L, len(b), -1, b.shape[2]))
    step_i, step_j = terms.strides[:2]
    # diagonals[i, q] = terms[i, L - 1 + q - i], the term a[i] @ b[q - i].
    diagonals = np.ndarray(
        (L, rows) + terms.shape[2:], complex, terms, (L - 1) * step_j,
        (step_i - step_j, step_j) + terms.strides[2:],
    )
    return diagonals.sum(axis=0)


def _add_centered(out, stack, op=np.add):
    """Add (or with np.subtract, subtract) a coefficient stack into a stack
    of a bound at least as large, aligned on the mean rows; returns out."""
    edge = (len(out) - len(stack)) // 2
    rows = out[edge : len(out) - edge]
    op(rows, stack, out=rows)
    return out


def _side_by_side(stack, K):
    """The coefficients l = -K..K of a stack side by side, as the left factor
    of ``_mean_of_product``: shape (rows, (2K + 1) columns), a vector being
    one row."""
    H = len(stack) // 2
    a = stack[H - K : H + K + 1]
    rows = a.shape[1] if a.ndim == 3 else 1
    return np.swapaxes(a.reshape(2 * K + 1, rows, -1), 0, 1).reshape(rows, -1)


def _mean_of_product(side, stack):
    """The mean of the product of a stack laid out by ``_side_by_side`` with
    ``stack``, the sum of a_l @ b_{-l} over |l| <= K: one product with the
    partners b_K..b_{-K} stacked.  Shape (rows, columns of b)."""
    K = side.shape[1] // stack.shape[1] // 2
    H = len(stack) // 2
    b = stack[H - K : H + K + 1][::-1]
    return side @ b.reshape(side.shape[1], -1)


@functools.cache
def _integration_factors(H: int) -> np.ndarray:
    """1/(i l) for |l| <= H, and 0 for the mean, read-only."""
    l = np.arange(-H, H + 1.0)
    factors = np.divide(-1j, l, out=np.zeros(len(l), dtype=complex), where=l != 0)
    factors.setflags(write=False)
    return factors


def _integrated(stack):
    """The zero-mean antiderivative of a stack's oscillating part, p - mean(p),
    in one product: harmonic l times 1/(i l), the mean row times 0."""
    factors = _integration_factors(len(stack) // 2)
    return factors.reshape((-1,) + (1,) * (stack.ndim - 1)) * stack


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Trigonometric polynomial sum_{|l|<=H} c_l e^{i l tau} with array values.

    ``data`` has shape (2H+1, *shape): ``data[H + l]`` is c_l, a vector for
    shape (n,) and a matrix for shape (n, n).  Zero coefficients are stored
    like any other, so H is a bound on the harmonics, not the degree.

    A value type with no arithmetic operators: the algebra is the module's
    functions on raw coefficient stacks (``_convolve``, ``_times``,
    ``_times_left``, ``_add_centered``, ``_mean_of_product``,
    ``_integrated``), which the expansion and the averaging transform both
    run on.  A ``TrigPoly`` holds a result to evaluate, differentiate,
    compare or report.
    """

    data: np.ndarray

    def __post_init__(self):
        data = _freeze(self.data)
        if data.ndim < 2 or data.shape[0] % 2 == 0:
            raise ValueError(f"expected shape (2H+1, *shape), got {data.shape}")
        object.__setattr__(self, "data", data)

    @classmethod
    def _of(cls, data: np.ndarray) -> "TrigPoly":
        """Wrap a complex (2H+1, *shape) stack that the algebra has just made
        and that nothing else holds, without the constructor's copy."""
        poly = object.__new__(cls)
        data.setflags(write=False)
        object.__setattr__(poly, "data", data)
        return poly

    @classmethod
    def from_coeffs(cls, coeffs: dict, shape: tuple) -> "TrigPoly":
        """Build from a harmonic -> coefficient map of the given value shape."""
        H = max((abs(l) for l in coeffs), default=0)
        data = np.zeros((2 * H + 1,) + tuple(shape), dtype=complex)
        for l, c in coeffs.items():
            data[H + l] = c
        return cls._of(data)

    @property
    def H(self) -> int:
        return self.data.shape[0] // 2

    @property
    def shape(self) -> tuple:
        return self.data.shape[1:]

    @property
    def coeffs(self) -> dict:
        """Harmonic -> coefficient for every nonzero coefficient."""
        rows = self.data.reshape(len(self.data), -1).any(axis=1)
        return {i - self.H: self.data[i] for i in np.flatnonzero(rows).tolist()}

    @cached_property
    def _cos_form(self) -> tuple:
        """p(tau) = cos(k tau - s) @ a, a cos/sin basis as one cosine:
        harmonics k = 0, 1..H, 1..H, shifts s = 0 then pi/2 for the sines,
        and coefficients a = c_0, c_l + c_{-l}, i(c_l - c_{-l}).  Exact for
        any complex c_l; with c_{-l} = conj(c_l) the a are real: c_0,
        2 Re c_l and -2 Im c_l."""
        H, data = self.H, self.data
        plus, minus = data[H + 1 :], data[:H][::-1]
        l = np.arange(1.0, H + 1)
        k = np.concatenate([[0.0], l, l])
        s = np.repeat([0.0, np.pi / 2], [H + 1, H])
        a = np.concatenate([data[H : H + 1], plus + minus, 1j * (plus - minus)])
        return k, s, a.reshape(len(data), -1)

    def sampler(self, rate: float = 1.0, real: bool = False, offset=None) -> "Sampler":
        """t -> p(rate * t) + offset in the basis of ``_cos_form``, with its
        rates and coefficients formed once for a caller that evaluates it
        often.  ``real`` keeps the real part of the coefficients, so that the
        sampler gives Re p in real arithmetic; ``offset`` (of the value
        shape, real when ``real``) is folded into the constant term."""
        k, shifts, coeffs = self._cos_form
        if real:
            coeffs = coeffs.real
        if offset is not None:
            coeffs = coeffs.copy()
            coeffs[0] += np.reshape(offset, -1)
        return Sampler(rate * k, shifts, coeffs, self.shape)

    def __call__(self, tau):
        """Evaluate at phase(s) tau; the value axes follow the axes of tau."""
        return self.sampler()(tau)

    def mean(self) -> np.ndarray:
        return self.data[self.H]

    def _column(self, factors: np.ndarray) -> np.ndarray:
        """One factor per row, shaped to broadcast against ``data``."""
        return factors.reshape((-1,) + (1,) * len(self.shape))

    def derivative(self) -> "TrigPoly":
        rates = 1j * np.arange(-self.H, self.H + 1)
        return TrigPoly._of(self._column(rates) * self.data)

    def padded(self, H: int) -> np.ndarray:
        """Coefficient stack widened with zero rows to the bound H >= self.H."""
        out = np.zeros((2 * H + 1,) + self.shape, dtype=complex)
        out[H - self.H : H + self.H + 1] = self.data
        return out

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        H = max(self.H, other.H)
        return self.shape == other.shape and np.array_equal(
            self.padded(H), other.padded(H)
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Sampler:
    """A trigonometric sum at times t: ``basis(t) @ coeffs``, reshaped to
    (*shape(t), *shape).  The basis is cos(t * rates - shifts), where shifts
    of pi/2 make the sines; ``coeffs`` holds one flattened value per basis
    term, complex or real."""

    rates: np.ndarray
    shifts: np.ndarray
    coeffs: np.ndarray
    shape: tuple

    def basis(self, t) -> np.ndarray:
        """The basis terms at times t, of shape (*shape(t), terms)."""
        arg = np.multiply.outer(t, self.rates)
        arg -= self.shifts
        return np.cos(arg, out=arg)

    def __post_init__(self):
        # Contiguous, so that complex coefficients have a float view.
        object.__setattr__(self, "coeffs", np.ascontiguousarray(self.coeffs))

    def __call__(self, t) -> np.ndarray:
        """The sum at times t."""
        return self.at(self.basis(np.asarray(t, dtype=float)))

    def at(self, basis) -> np.ndarray:
        """The sum from its basis terms at some times, ``basis(t)``, so that
        sums with the same rates and shifts can share one basis.  Complex
        coefficients are multiplied in real arithmetic, as the float view of
        their real and imaginary parts."""
        out = (basis @ self.coeffs.view(float)).view(self.coeffs.dtype)
        return out.reshape(basis.shape[:-1] + self.shape)

    def apply(self, t, Y) -> np.ndarray:
        """The right side at n x k blocks Y of shape (*shape(t), n, k), for a
        sum [M | f] of shape (n, n + 1): M(t) Y with f(t) added to the last
        column.

        The field is never formed.  It is sum_q b_q(t) a_q over the basis
        terms b_q, so one product of the coefficients a_q with all blocks
        [Y; e_k^T], then one contraction with the basis, give the right side:
        the temporaries hold terms x n values per state column, not the
        n x (n + 1) field per time."""
        t = np.asarray(t, dtype=float)
        basis = self.basis(t.reshape(-1))
        N, n = len(basis), self.shape[0]
        Y = np.reshape(Y, (N, n, -1))
        k = Y.shape[-1]
        Ya = np.zeros((N, k, n + 1), dtype=np.result_type(Y, self.coeffs))
        Ya[..., :n] = Y.transpose(0, 2, 1)
        Ya[:, -1, n] = 1.0
        G = Ya.reshape(-1, n + 1) @ self.coeffs.reshape(-1, n + 1).T
        out = np.einsum("tq,tjqi->tij", basis, G.reshape(N, k, -1, n))
        return out.reshape(t.shape + (n, k))


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Validated coefficient data for one oscillating system.

    ``B`` maps nonzero harmonic indices l (1 <= |l| <= m) to n x n matrices,
    ``d`` maps harmonic indices (0 allowed) to forcing vectors.  Exact-zero
    coefficients are dropped on construction, so two specs describing the
    same system have the same canonical document, which ``==`` compares.
    The constructor also builds the system's two polynomials once:
    ``matrix`` is M(tau) = A0 + sum B_l e^{i l tau} and ``forcing`` is
    f(tau) = sum d_l e^{i l tau}, so B_osc is ``matrix.data`` with A0
    taken from its mean row and d_0 is ``forcing.mean()``.
    """

    n: int
    m: int
    A0: np.ndarray
    B0: np.ndarray
    B: dict = dataclasses.field(default_factory=dict)
    d: dict = dataclasses.field(default_factory=dict)
    real_mode: bool = True
    matrix: TrigPoly = dataclasses.field(init=False, repr=False)
    forcing: TrigPoly = dataclasses.field(init=False, repr=False)
    # [matrix | forcing], shape (n, n + 1)
    _stack: TrigPoly = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.real_mode, bool):
            raise SchemaError(f"real_mode must be a boolean, got {self.real_mode!r}")
        if not (_is_int(self.n) and _is_int(self.m)):
            raise SchemaError(f"n and m must be integers, got {self.n!r}, {self.m!r}")
        n, m = int(self.n), int(self.m)
        if n < 1:
            raise SchemaError(f"n must be a positive integer, got {n!r}")
        if m < 0:
            raise SchemaError(f"m must be a nonnegative integer, got {m!r}")
        A0 = _checked(self.A0, (n, n), "A0")
        B0 = _checked(self.B0, (n, n), "B0")
        B = _checked_harmonics(self.B, (n, n), "B", 1, m)
        d = _checked_harmonics(self.d, (n,), "d", 0, m)
        if self.real_mode:
            _check_real_symmetry(A0, B0, B, d)
        matrix = TrigPoly.from_coeffs({**B, 0: A0}, (n, n))
        forcing = TrigPoly.from_coeffs(d, (n,))
        H = max(matrix.H, forcing.H)
        stack = np.concatenate([matrix.padded(H), forcing.padded(H)[..., None]], -1)
        built = dict(n=n, m=m, A0=A0, B0=B0, B=B, d=d, matrix=matrix, forcing=forcing)
        for name, value in built.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_stack", TrigPoly._of(stack))

    @cached_property
    def _B0_stack(self) -> np.ndarray:
        """[B0 | 0] in the field's dtype, the part of the field scaled by 1/omega."""
        B0 = self.B0.real if self.real_mode else self.B0
        return np.concatenate([B0, np.zeros((self.n, 1), dtype=B0.dtype)], axis=1)

    def field_map(self, omega, rate: float = 1.0) -> Sampler:
        """t -> [M(rate t) + B0/omega | f(rate t)], the right side of the
        system, with B0/omega folded into the constant term once.

        Columns 0..n-1 hold the system matrix A0 + B0/omega + sum B_l
        e^{i l tau}, column n the forcing d_0 + sum d_l e^{i l tau}, so that
        x' = F[:, :n] x + F[:, n]; the matrix axes follow the axes of t.  A
        real system gives real values, evaluated in real arithmetic.  The
        integrators take rate = omega, so that t is time; at rate 1 the map
        takes the phase tau.  Its ``apply`` is the right side at states,
        without the field."""
        return self._stack.sampler(rate, self.real_mode, self._B0_stack / omega)

    def system_matrix(self, tau, omega) -> np.ndarray:
        """A0 + B0/omega + sum B_l e^{i l tau}: the matrix columns of
        ``field_map(omega)(tau)``."""
        return self.field_map(omega)(tau)[..., : self.n]

    def __eq__(self, other):
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        return serialize_problem(self) == serialize_problem(other)

    __hash__ = None


def _check_real_symmetry(A0, B0, B, d):
    """real_mode demands real A0, B0, d_0 and conjugate-paired B_l, d_l."""
    for name, mat in (("A0", A0), ("B0", B0)):
        if np.abs(mat.imag).max() > CONJ_TOL:
            raise ConjugacyError(f"real_mode: {name} has imaginary entries")
    for label, coeffs in (("B", B), ("d", d)):
        for l in sorted({abs(k) for k in coeffs if k != 0}):
            plus = coeffs.get(l, 0)
            minus = coeffs.get(-l, 0)
            if np.abs(minus - np.conj(plus)).max() > CONJ_TOL:
                raise ConjugacyError(
                    f"real_mode: {label}[{-l}] is not the conjugate of {label}[{l}]"
                )
    if 0 in d and np.abs(d[0].imag).max() > CONJ_TOL:
        raise ConjugacyError("real_mode: d[0] has imaginary entries")


# -- document parsing ------------------------------------------------------


def _parse_entry(value, real_mode, where):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not real_mode:
            raise SchemaError(f"{where}: bare number requires real_mode")
        parts = (value,)
    elif (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        parts = value
    else:
        raise SchemaError(f"{where}: expected a number or [re, im] pair, got {value!r}")
    try:
        return complex(*parts)
    except OverflowError:
        # An integer literal beyond the float range; a float one reads as inf.
        raise SchemaError(f"{where}: entry too large for floating point") from None


def _parse_array(value, depth, real_mode, where):
    """Nested lists, ``depth`` >= 1 levels deep, of complex entries."""
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list")
    if depth > 1:
        return [_parse_array(v, depth - 1, real_mode, f"{where}[{i}]") for i, v in enumerate(value)]
    return [_parse_entry(v, real_mode, f"{where}[{i}]") for i, v in enumerate(value)]


def _parse_indexed(block, depth, real_mode, where):
    if not isinstance(block, dict):
        raise SchemaError(f"{where}: expected an object with harmonic-index keys")
    out = {}
    for key, value in block.items():
        try:
            l = int(key)
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"{where}: key {key!r} is not an integer") from None
        if str(l) != key:
            raise SchemaError(f"{where}: key {key!r} is not a canonical integer string")
        out[l] = _parse_array(value, depth, real_mode, f"{where}[{key!r}]")
    return out


def parse_problem(doc) -> ProblemSpec:
    """Build a validated ProblemSpec from a decoded JSON document.

    Raises SchemaError for structural problems and ConjugacyError when a
    real_mode document breaks conjugate symmetry.  An optional "meta" field
    is tolerated and ignored; any other unknown field is rejected.  This
    only decodes the entries and the harmonic keys; ProblemSpec checks n, m,
    real_mode, shapes and harmonic ranges.
    """
    if not isinstance(doc, dict):
        raise SchemaError("problem document must be a JSON object")
    unknown = set(doc) - set(_DOC_FIELDS) - {"meta"}
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")
    missing = [f for f in _DOC_FIELDS if f not in doc]
    if missing:
        raise SchemaError(f"missing fields: {missing}")
    real_mode = doc["real_mode"]
    return ProblemSpec(
        n=doc["n"],
        m=doc["m"],
        A0=_parse_array(doc["A0"], 2, real_mode, "A0"),
        B0=_parse_array(doc["B0"], 2, real_mode, "B0"),
        B=_parse_indexed(doc["B"], 2, real_mode, "B"),
        d=_parse_indexed(doc["d"], 1, real_mode, "d"),
        real_mode=real_mode,
    )


def to_pairs(values):
    """An array as nested lists of [re, im] pairs; a harmonic map {l: array}
    as {"l": pairs} in increasing l."""
    if isinstance(values, dict):
        return {str(l): to_pairs(values[l]) for l in sorted(values)}
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


def serialize_problem(spec: ProblemSpec) -> dict:
    """Canonical document for a spec: every entry an [re, im] pair, harmonic
    keys sorted numerically.  parse_problem inverts this bit-exactly."""
    return {
        "n": spec.n,
        "m": spec.m,
        "real_mode": spec.real_mode,
        "A0": to_pairs(spec.A0),
        "B0": to_pairs(spec.B0),
        "B": to_pairs(spec.B),
        "d": to_pairs(spec.d),
    }


def _json_object(pairs) -> dict:
    """A JSON object; json alone keeps the last value of a repeated key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def load_problem(path) -> ProblemSpec:
    """Read and validate a problem document from a UTF-8 JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_json_object)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, a repeated key, an integer past the interpreter's
        # digit limit, or nesting past its recursion limit.
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    return parse_problem(doc)
