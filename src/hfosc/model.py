"""Problem container and trigonometric-polynomial primitives.

A problem is the linear system

    dx/dt = (A0 + B0/omega) x + sum_{1<=|l|<=m} (B_l x + d_l) e^{i l omega t}
            + d_0

described by a JSON-style document.  Everything downstream (spectral data,
expansions, bounds, averaging, the reference integrator) consumes the
``ProblemSpec`` built here.

Every trigonometric polynomial, the system's coefficients as well as the
terms of the expansion, is evaluated in one basis, cos(l tau) and sin(l tau)
written as shifted cosines (``Sampler``).  It is exact for complex
coefficients, and a real system's coefficients are real in it, so a real
system is evaluated in real arithmetic.
"""

from __future__ import annotations

import dataclasses
import json
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


def _checked(value, shape, name):
    """Frozen complex copy of value after checking its shape and finiteness."""
    arr = _freeze(value)
    if arr.shape != shape:
        raise SchemaError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{name} has non-finite entries")
    return arr


def _checked_harmonics(coeffs, shape, name, low, m):
    """Checked harmonic -> coefficient map for low <= |l| <= m, exact zeros
    dropped (after the checks, so a zero block out of range is rejected)."""
    out = {}
    for key, c in coeffs.items():
        try:
            l = int(key)
        except (TypeError, ValueError):
            raise SchemaError(f"{name} harmonic {key!r} is not an integer") from None
        if not low <= abs(l) <= m:
            raise SchemaError(f"{name} harmonic {l} outside {low} <= |l| <= {m}")
        arr = _checked(c, shape, f"{name}[{l}]")
        if np.any(arr):
            out[l] = arr
    return out


def _matmul(a, b, vector: bool):
    """Matrix product of coefficient stacks; ``vector`` when b holds vectors."""
    return np.matmul(a, b[..., None])[..., 0] if vector else np.matmul(a, b)


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Trigonometric polynomial sum_{|l|<=H} c_l e^{i l tau} with array values.

    ``data`` has shape (2H+1, *shape): ``data[H + l]`` is c_l, a vector for
    shape (n,) and a matrix for shape (n, n).  Zero coefficients are stored
    like any other, so H is a bound on the harmonics, not the degree.
    """

    data: np.ndarray

    # Make numpy arrays defer to the reflected operators below.
    __array_ufunc__ = None

    def __post_init__(self):
        data = _freeze(self.data)
        if data.ndim < 2 or data.shape[0] % 2 == 0:
            raise ValueError(f"expected shape (2H+1, *shape), got {data.shape}")
        object.__setattr__(self, "data", data)

    @classmethod
    def constant(cls, value) -> "TrigPoly":
        return cls(np.asarray(value, dtype=complex)[None])

    @classmethod
    def from_coeffs(cls, coeffs: dict, shape: tuple) -> "TrigPoly":
        """Build from a harmonic -> coefficient map of the given value shape."""
        H = max((abs(l) for l in coeffs), default=0)
        data = np.zeros((2 * H + 1,) + tuple(shape), dtype=complex)
        for l, c in coeffs.items():
            data[H + l] = c
        return cls(data)

    @property
    def H(self) -> int:
        return self.data.shape[0] // 2

    @property
    def shape(self) -> tuple:
        return self.data.shape[1:]

    @property
    def coeffs(self) -> dict:
        """Harmonic -> coefficient for every nonzero coefficient."""
        H = self.H
        return {i - H: c for i, c in enumerate(self.data) if np.any(c)}

    @cached_property
    def _rates(self) -> np.ndarray:
        """i l for each row, the factors of the derivative."""
        return 1j * np.arange(-self.H, self.H + 1)

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

    @cached_property
    def _values(self) -> "Sampler":
        return self.sampler()

    def __call__(self, tau):
        """Evaluate at phase(s) tau; the value axes follow the axes of tau."""
        return self._values(tau)

    def mean(self) -> np.ndarray:
        return self.data[self.H]

    def _column(self, factors: np.ndarray) -> np.ndarray:
        """One factor per row, shaped to broadcast against ``data``."""
        return factors.reshape((-1,) + (1,) * len(self.shape))

    def derivative(self) -> "TrigPoly":
        return TrigPoly(self._column(self._rates) * self.data)

    def antiderivative(self) -> "TrigPoly":
        """Zero-mean antiderivative; defined only for zero-mean polynomials."""
        if np.any(self.mean()):
            raise ValueError("antiderivative needs a zero-mean polynomial")
        rates = self._rates.copy()
        rates[self.H] = 1.0
        return TrigPoly(self.data / self._column(rates))

    def padded(self, H: int) -> np.ndarray:
        """Coefficient stack widened with zero rows to the bound H >= self.H."""
        out = np.zeros((2 * H + 1,) + self.shape, dtype=complex)
        out[H - self.H : H + self.H + 1] = self.data
        return out

    def __add__(self, other) -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            other = TrigPoly.constant(other)
        H = max(self.H, other.H)
        out = self.padded(H)
        out[H - other.H : H + other.H + 1] += other.data
        return TrigPoly(out)

    def __sub__(self, other) -> "TrigPoly":
        return self + (-1.0) * other

    def __mul__(self, factor) -> "TrigPoly":
        return TrigPoly(factor * self.data)

    __rmul__ = __mul__

    def __matmul__(self, other) -> "TrigPoly":
        """Pointwise matrix product; harmonic indices convolve."""
        if not isinstance(other, TrigPoly):
            other = TrigPoly.constant(other)
        a, b = self.data, other.data
        vector = len(other.shape) == 1
        out = np.zeros((len(a) + len(b) - 1,) + other.shape, dtype=complex)
        if len(a) <= len(b):
            for i, c in enumerate(a):
                out[i : i + len(b)] += _matmul(c, b, vector)
        else:
            for j, c in enumerate(b):
                out[j : j + len(a)] += _matmul(a, c, vector)
        return TrigPoly(out)

    def __rmatmul__(self, other) -> "TrigPoly":
        return TrigPoly.constant(other) @ self

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

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return (self.basis(t) @ self.coeffs).reshape(t.shape + self.shape)

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
    same system compare equal.
    """

    n: int
    m: int
    A0: np.ndarray
    B0: np.ndarray
    B: dict = dataclasses.field(default_factory=dict)
    d: dict = dataclasses.field(default_factory=dict)
    real_mode: bool = True
    # [A0 + sum B_l e^{i l tau} | sum d_l e^{i l tau}], shape (n, n + 1)
    _stack: TrigPoly = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.real_mode, bool):
            raise SchemaError(f"real_mode must be a boolean, got {self.real_mode!r}")
        if not all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            for v in (self.n, self.m)
        ):
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
        checked = dict(n=n, m=m, A0=A0, B0=B0, B=B, d=d)
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_stack", TrigPoly(stack))

    # -- convenience views ------------------------------------------------

    @property
    def d0(self) -> np.ndarray:
        return self.d.get(0, np.zeros(self.n, dtype=complex))

    def osc_matrix(self) -> TrigPoly:
        """The oscillating part sum_{l != 0} B_l e^{i l tau}."""
        return TrigPoly.from_coeffs(self.B, (self.n, self.n))

    def forcing_poly(self) -> TrigPoly:
        """The full forcing d_0 + sum_{l != 0} d_l e^{i l tau}."""
        return TrigPoly(self._stack.data[..., self.n])

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
        return (
            self.n == other.n
            and self.m == other.m
            and self.real_mode == other.real_mode
            and np.array_equal(self.A0, other.A0)
            and np.array_equal(self.B0, other.B0)
            and self.B.keys() == other.B.keys()
            and all(np.array_equal(c, other.B[l]) for l, c in self.B.items())
            and self.d.keys() == other.d.keys()
            and all(np.array_equal(c, other.d[l]) for l, c in self.d.items())
        )

    __hash__ = None


def _check_real_symmetry(A0, B0, B, d):
    """real_mode demands real A0, B0, d_0 and conjugate-paired B_l, d_l."""
    for name, mat in (("A0", A0), ("B0", B0)):
        if np.max(np.abs(mat.imag)) > CONJ_TOL:
            raise ConjugacyError(f"real_mode: {name} has imaginary entries")
    for label, coeffs in (("B", B), ("d", d)):
        for l in sorted({abs(k) for k in coeffs if k != 0}):
            plus = coeffs.get(l, 0)
            minus = coeffs.get(-l, 0)
            if np.max(np.abs(minus - np.conj(plus))) > CONJ_TOL:
                raise ConjugacyError(
                    f"real_mode: {label}[{-l}] is not the conjugate of {label}[{l}]"
                )
    if 0 in d and np.max(np.abs(d[0].imag)) > CONJ_TOL:
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


def _parse_vector(entries, real_mode, where):
    if not isinstance(entries, list):
        raise SchemaError(f"{where}: expected a list of entries")
    return np.array(
        [_parse_entry(v, real_mode, f"{where}[{j}]") for j, v in enumerate(entries)],
        dtype=complex,
    )


def _parse_matrix(rows, real_mode, where):
    if not isinstance(rows, list):
        raise SchemaError(f"{where}: expected a list of rows")
    out = [_parse_vector(row, real_mode, f"{where}[{i}]") for i, row in enumerate(rows)]
    if len({len(row) for row in out}) > 1:
        raise SchemaError(f"{where}: rows of unequal length")
    return np.array(out, dtype=complex)


def _parse_indexed(block, real_mode, where, parse_value):
    if not isinstance(block, dict):
        raise SchemaError(f"{where}: expected an object with harmonic-index keys")
    out = {}
    for key, value in block.items():
        try:
            l = int(key)
        except (TypeError, ValueError):
            raise SchemaError(f"{where}: key {key!r} is not an integer") from None
        if not isinstance(key, str) or str(l) != key:
            raise SchemaError(f"{where}: key {key!r} is not a canonical integer string")
        out[l] = parse_value(value, real_mode, f"{where}[{key!r}]")
    return out


def parse_problem(doc) -> ProblemSpec:
    """Build a validated ProblemSpec from a decoded JSON document.

    Raises SchemaError for structural problems and ConjugacyError when a
    real_mode document breaks conjugate symmetry.  An optional "meta" field
    is tolerated and ignored; any other unknown field is rejected.  This
    only converts the entries; ProblemSpec checks n, m, real_mode, shapes
    and harmonic ranges.
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
        A0=_parse_matrix(doc["A0"], real_mode, "A0"),
        B0=_parse_matrix(doc["B0"], real_mode, "B0"),
        B=_parse_indexed(doc["B"], real_mode, "B", _parse_matrix),
        d=_parse_indexed(doc["d"], real_mode, "d", _parse_vector),
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


def load_problem(path) -> ProblemSpec:
    """Read and validate a problem document from a UTF-8 JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, an integer past the interpreter's digit limit, or
        # nesting past its recursion limit.
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    return parse_problem(doc)
