import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfosc import fixtures
from hfosc.averaging import analyze_stability
from hfosc.errors import ConjugacyError, SchemaError
from hfosc.expansion import expand
from hfosc.model import (
    ProblemSpec,
    Sampler,
    TrigPoly,
    _add_centered,
    _convolve,
    _integrated,
    _mean_of_product,
    _side_by_side,
    _times,
    _times_left,
    load_problem,
    parse_problem,
    serialize_problem,
)
from hfosc.oracle import PeriodicOracleSolution, periodic_solution
from hfosc.spectral import averaged_matrix

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _base_doc():
    return {
        "n": 2,
        "m": 1,
        "real_mode": True,
        "A0": [[0.0, 0.0], [0.0, -1.0]],
        "B0": [[1.0, 0.0], [0.0, 1.0]],
        "B": {"1": [[0.0, 0.1], [0.0, 0.0]], "-1": [[0.0, 0.1], [0.0, 0.0]]},
        "d": {"0": [1.0, 0.0]},
    }


def test_round_trip_canonical_fixtures():
    for name, make in (
        ("borderline_stable", fixtures.borderline_stable),
        ("borderline_unstable", fixtures.borderline_unstable),
        ("forced_borderline", fixtures.forced_borderline),
        ("degenerate", fixtures.degenerate_example),
        ("scalar_decay", fixtures.scalar_decay),
    ):
        spec = make()
        doc = serialize_problem(spec)
        assert parse_problem(doc) == spec
        # and through actual JSON text, which is how documents travel
        assert parse_problem(json.loads(json.dumps(doc))) == spec
        # The JSON fixture is its Python twin: the CLI reads the one and the
        # library callers build the other.
        assert load_problem(FIXTURES / f"{name}.json") == spec, name


def test_round_trip_random_instances():
    for seed in range(5):
        spec = fixtures.random_admissible(seed + 1, n=3, m=2, s=1)
        assert parse_problem(serialize_problem(spec)) == spec
    spec = fixtures.random_admissible(9, n=3, m=1, s=1, real_mode=False)
    assert not spec.real_mode
    assert parse_problem(serialize_problem(spec)) == spec


def test_round_trip_is_bit_exact():
    spec = fixtures.random_admissible(4, n=3, m=1, s=1)
    doc = serialize_problem(spec)
    again = serialize_problem(parse_problem(json.loads(json.dumps(doc))))
    assert json.dumps(doc) == json.dumps(again)


def test_parse_accepts_meta_field():
    doc = _base_doc()
    doc["meta"] = {"note": "anything"}
    parse_problem(doc)


def test_parse_accepts_bare_numbers_in_real_mode():
    spec = parse_problem(_base_doc())
    assert spec.A0[1, 1] == -1.0


def test_serialization_always_emits_pairs():
    doc = serialize_problem(parse_problem(_base_doc()))
    assert doc["A0"][0][0] == [0.0, 0.0]
    assert doc["d"]["0"][0] == [1.0, 0.0]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("A0"),
        lambda d: d.pop("d"),
        lambda d: d.update(n="2"),
        lambda d: d.update(n=True),
        lambda d: d.update(n=0),
        lambda d: d.update(m=-1),
        lambda d: d.update(real_mode="yes"),
        lambda d: d.update(A0=[[0.0, 0.0]]),
        lambda d: d.update(A0=[[0.0], [0.0]]),
        lambda d: d.update(A0=[[0.0, "x"], [0.0, 0.0]]),
        lambda d: d.update(A0=[[0.0, [1.0]], [0.0, 0.0]]),
        lambda d: d.update(A0=[[0.0, [1.0, 2.0, 3.0]], [0.0, 0.0]]),
        lambda d: d.update(B=[[0.0, 0.0], [0.0, 0.0]]),
        lambda d: d["B"].update({"0": [[0.0, 0.0], [0.0, 0.0]]}),
        lambda d: d["B"].update({"+1": [[0.0, 0.0], [0.0, 0.0]]}),
        lambda d: d["B"].update({"1.5": [[0.0, 0.0], [0.0, 0.0]]}),
        lambda d: d["B"].update({float("inf"): [[0.0, 0.0], [0.0, 0.0]]}),
        lambda d: d["B"].update({"2": [[0.1, 0.0], [0.0, 0.0]]}),
        lambda d: d["d"].update({"-2": [0.1, 0.0]}),
        lambda d: d.update(extra=1),
        lambda d: d.update(m=True),
        lambda d: d.update(m=1.0),
        lambda d: d.update(real_mode="no"),
        lambda d: d.update(real_mode=None),
        lambda d: d.update(A0=[[0.0, 0.0], [0.0]]),
        lambda d: d.update(A0=[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        lambda d: d.update(B0=[]),
        lambda d: d.update(B0=[0.0, 1.0]),
        lambda d: d.update(d=[1.0, 0.0]),
        lambda d: d["d"].update({"0": [1.0]}),
        lambda d: d["d"].update({"0": 1.0}),
        lambda d: d["B"].update({"1": [[0.0, 0.1]]}),
        lambda d: d["B"].update({"-1": [[0.0, 0.1, 0.0], [0.0, 0.0, 0.0]]}),
    ],
)
def test_parse_rejects_malformed_documents(mutate):
    doc = _base_doc()
    mutate(doc)
    with pytest.raises(SchemaError):
        parse_problem(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "place",
    [
        lambda d, x: d["A0"][0].__setitem__(0, x),
        lambda d, x: d["B0"][1].__setitem__(1, x),
        lambda d, x: [d["B"][k][0].__setitem__(1, x) for k in ("1", "-1")],
        lambda d, x: d["d"]["0"].__setitem__(0, x),
    ],
    ids=["A0", "B0", "B", "d"],
)
def test_parse_rejects_non_finite_entries(place, bad):
    doc = _base_doc()
    place(doc, bad)
    # JSON accepts NaN and Infinity, so the document may arrive as text.
    with pytest.raises(SchemaError, match="non-finite"):
        parse_problem(json.loads(json.dumps(doc)))


@pytest.mark.parametrize(
    "change",
    [
        dict(real_mode="no"),
        dict(real_mode=1),
        dict(n=True, m=False),
        dict(m=True),
        dict(n=1.0),
        dict(n=0),
        dict(m=-1),
        dict(A0=[[0.0, 0.0]]),
        dict(B0=[1.0]),
        dict(B={1: [[0.0], [0.0]]}),
        dict(d={0: [0.0, 0.0]}),
        # Out of range even when zero: exact zeros are dropped after the checks.
        dict(B={0: [[0.0]]}),
        dict(B={2: [[0.0]]}),
        dict(d={-2: [0.0]}),
        dict(d={"x": [0.0]}),
        # Each of these could be read as some other system.  Complex mode,
        # so that no conjugacy check rejects them for another reason.
        dict(B={1.5: [[1.0]]}, real_mode=False),
        dict(B={True: [[1.0]]}, real_mode=False),
        dict(d={1: [1.0], "1": [2.0]}, real_mode=False),
        dict(A0=[["1"]], real_mode=False),
        dict(A0=[[True]], real_mode=False),
        dict(n=2, A0=[[0.0, 1.0], [1.0]], B0=[[1.0, 0.0], [0.0, 1.0]], real_mode=False),
        dict(B=[[[1.0]]], real_mode=False),
        # numpy would read True among floats as 1.0, and None as nan.
        dict(n=2, m=0, A0=[[True, 0.0], [0.0, 0.5]], B0=[[1.0, 0.0], [0.0, 1.0]]),
        dict(A0=[[None]]),
    ],
    ids=repr,
)
def test_spec_rejects_invalid_fields(change):
    base = dict(n=1, m=1, A0=[[0.0]], B0=[[1.0]])
    # None is refused as what it is, not as a non-finite number.
    match = "must be an array of numbers" if change.get("A0") == [[None]] else None
    with pytest.raises(SchemaError, match=match):
        ProblemSpec(**{**base, **change})


def test_spec_takes_numpy_integer_harmonics():
    spec = ProblemSpec(n=1, m=1, A0=[[0.0]], B0=[[1.0]], B={np.int64(1): [[1.0]]}, real_mode=False)
    assert list(spec.B) == [1] and type(next(iter(spec.B))) is int
    assert spec == ProblemSpec(n=1, m=1, A0=[[0.0]], B0=[[1.0]], B={1: [[1.0]]}, real_mode=False)


# Signed zeros, subnormals and values near the ends of the float range,
# next to whatever hypothesis draws.
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _spec_fields(draw):
    """ProblemSpec keywords: n 1-4, m 0-3, sparse harmonic sets, some blocks
    exactly zero, and conjugate pairs with real A0, B0, d_0 in real mode."""
    n, m, real_mode = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.booleans())

    def block(shape, real=False):
        if draw(st.integers(0, 4)) == 0:
            return np.zeros(shape, dtype=complex)
        size = int(np.prod(shape))
        re, im = (draw(st.lists(_ENTRIES, min_size=size, max_size=size)) for _ in range(2))
        return np.array([complex(a, 0.0 if real else b) for a, b in zip(re, im)]).reshape(shape)

    def harmonics(shape, low):
        if not real_mode:
            ls = draw(st.sets(st.sampled_from(range(-m, m + 1)))) if m else set()
            return {l: block(shape) for l in ls if abs(l) >= low}
        out = {}
        for l in draw(st.sets(st.sampled_from(range(low, m + 1)))) if m >= low else ():
            out[l] = block(shape, real=l == 0)
            if l:
                out[-l] = out[l].conj()
        return out

    return dict(
        n=n,
        m=m,
        real_mode=real_mode,
        A0=block((n, n), real_mode),
        B0=block((n, n), real_mode),
        B=harmonics((n, n), 1),
        d=harmonics((n,), 0),
    )


def _written_by_hand(fields):
    """The document for the fields, with bare numbers wherever real_mode
    allows them and the harmonic keys in drawing order."""

    def entries(block, bare):
        block = np.asarray(block)
        return block.real.tolist() if bare else np.stack([block.real, block.imag], -1).tolist()

    real = fields["real_mode"]
    return {
        **fields,
        "A0": entries(fields["A0"], real),
        "B0": entries(fields["B0"], real),
        "B": {str(l): entries(c, False) for l, c in fields["B"].items()},
        "d": {str(l): entries(c, real and l == 0) for l, c in fields["d"].items()},
    }


@settings(max_examples=150, deadline=None)
@given(_spec_fields())
def test_documents_round_trip_exactly(fields):
    spec = ProblemSpec(**fields)
    text = json.dumps(serialize_problem(spec))
    again = parse_problem(json.loads(text))
    assert again == spec
    # Bit for bit: the text tells -0.0 from 0.0, which == does not.
    assert json.dumps(serialize_problem(again)) == text
    assert parse_problem(json.loads(json.dumps(_written_by_hand(fields)))) == spec


def _fields_equal(a, b):
    """Every public field of two results equal to the bit, and a periodic
    solution's ``ode_defect`` and ``multipliers``, which are computed on
    first read; polynomials by their coefficient stacks.  Private fields,
    such as a solution's interpolant, are skipped."""
    names = [f.name for f in dataclasses.fields(a) if not f.name.startswith("_")]
    if isinstance(a, PeriodicOracleSolution):
        names += ["ode_defect", "multipliers"]
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, TrigPoly):
            x, y = x.data, y.data
        if isinstance(x, (tuple, str)) or x is None:
            assert x == y, name
        else:
            assert np.array_equal(x, y), name


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_results_do_not_depend_on_the_order_of_harmonic_keys(data):
    # Two specs with one canonical document are one spec to the bit: the
    # averaged matrix sums over B in key order, which ProblemSpec makes
    # ascending whatever the caller's order.
    n = data.draw(st.integers(2, 6), label="n")
    spec = fixtures.random_admissible(
        data.draw(st.integers(0, 10**6), label="seed"),
        n=n,
        m=data.draw(st.integers(1, 3), label="m"),
        s=data.draw(st.integers(1, min(3, n)), label="s"),
    )
    B_keys = data.draw(st.permutations(list(spec.B)), label="B keys")
    d_keys = data.draw(st.permutations(list(spec.d)), label="d keys")
    twin = ProblemSpec(
        n=spec.n, m=spec.m, A0=spec.A0, B0=spec.B0,
        B={l: spec.B[l] for l in B_keys}, d={l: spec.d[l] for l in d_keys},
    )
    assert twin == spec
    assert np.array_equal(averaged_matrix(twin), averaged_matrix(spec))
    got, want = expand(twin, 4), expand(spec, 4)
    assert np.array_equal(got.leading, want.leading)
    assert got.leading_defect == want.leading_defect
    for a, b in zip(got.levels, want.levels, strict=True):
        _fields_equal(a, b)
    _fields_equal(analyze_stability(twin), analyze_stability(spec))
    _fields_equal(periodic_solution(twin, 50.0, 16), periodic_solution(spec, 50.0, 16))


def test_complex_mode_requires_pairs():
    doc = _base_doc()
    doc["real_mode"] = False
    # conjugate symmetry no longer applies, but bare numbers are now invalid
    with pytest.raises(SchemaError):
        parse_problem(doc)
    paired = {
        "n": 1,
        "m": 0,
        "real_mode": False,
        "A0": [[[0.0, 1.0]]],
        "B0": [[[0.0, 0.0]]],
        "B": {},
        "d": {},
    }
    spec = parse_problem(paired)
    assert spec.A0[0, 0] == 1j


def test_conjugacy_missing_partner():
    doc = _base_doc()
    del doc["B"]["-1"]
    with pytest.raises(ConjugacyError):
        parse_problem(doc)


def test_conjugacy_imaginary_stationary_part():
    doc = _base_doc()
    doc["A0"][0][0] = [0.0, 1e-6]
    with pytest.raises(ConjugacyError):
        parse_problem(doc)


def test_conjugacy_mismatched_forcing():
    doc = _base_doc()
    doc["m"] = 1
    doc["d"] = {"1": [[0.0, 0.5], [0.0, 0.0]], "-1": [[0.0, 0.5], [0.0, 0.0]]}
    # d_{-1} must be the conjugate, i.e. [0, -0.5] in the first entry
    with pytest.raises(ConjugacyError):
        parse_problem(doc)
    doc["d"]["-1"] = [[0.0, -0.5], [0.0, 0.0]]
    parse_problem(doc)


def test_conjugacy_not_enforced_in_complex_mode():
    doc = {
        "n": 1,
        "m": 1,
        "real_mode": False,
        "A0": [[[0.0, 0.0]]],
        "B0": [[[0.0, 0.0]]],
        "B": {"1": [[[1.0, 2.0]]]},  # no "-1" partner at all
        "d": {},
    }
    spec = parse_problem(doc)
    assert spec.B[1][0, 0] == 1 + 2j


def test_zero_coefficients_are_dropped():
    spec = ProblemSpec(
        n=1,
        m=1,
        A0=[[0.0]],
        B0=[[1.0]],
        B={1: [[0.0]], -1: [[0.0]]},
        d={0: [0.0]},
    )
    assert spec.B == {}
    assert spec.d == {}
    assert spec == ProblemSpec(n=1, m=1, A0=[[0.0]], B0=[[1.0]])


def test_spec_arrays_are_read_only():
    spec = fixtures.borderline_stable()
    with pytest.raises(ValueError):
        spec.A0[0, 0] = 5.0


@pytest.mark.parametrize("real_mode", [True, False])
@pytest.mark.parametrize("m", [0, 3])
def test_spec_keeps_its_polynomials_read_only(real_mode, m):
    spec = fixtures.random_admissible(seed=4, n=4, m=m, real_mode=real_mode)
    matrix = TrigPoly.from_coeffs({**spec.B, 0: spec.A0}, (4, 4))
    forcing = TrigPoly.from_coeffs(spec.d, (4,))
    for got, want in ((spec.matrix, matrix), (spec.forcing, forcing)):
        assert np.array_equal(got.data, want.data)
        assert not got.data.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.matrix = matrix
    # B_osc, M with A0 taken from its mean row, has the bound of M and an
    # exactly zero mean row.
    osc = TrigPoly(_add_centered(spec.matrix.data.copy(), spec.A0[None], np.subtract))
    assert osc.H == m and not np.any(osc.mean())
    assert osc == TrigPoly.from_coeffs(spec.B, (4, 4))
    assert np.array_equal(spec.forcing.mean(), spec.d[0])


# -- trig polynomials -------------------------------------------------------


def _random_poly(rng, shape, harmonics=(-2, 0, 1)):
    return TrigPoly.from_coeffs(
        {l: rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for l in harmonics},
        shape,
    )


def _random_vec_poly(rng, n=3, harmonics=(-2, -1, 1, 3)):
    return _random_poly(rng, (n,), harmonics)


def test_vector_poly_evaluates_like_the_sum():
    rng = np.random.default_rng(12)
    poly = _random_vec_poly(rng)
    taus = rng.uniform(0, 2 * np.pi, size=7)
    direct = sum(
        np.exp(1j * l * taus)[:, None] * c for l, c in poly.coeffs.items()
    )
    assert np.allclose(poly(taus), direct, atol=1e-14)
    assert np.allclose(poly(taus[0]), direct[0], atol=1e-14)


def test_vector_poly_derivative_inverts_antiderivative():
    rng = np.random.default_rng(5)
    poly = _random_vec_poly(rng)
    prim = TrigPoly(_integrated(poly.data))
    back = prim.derivative()
    assert tuple(back.coeffs) == tuple(poly.coeffs)
    for l in poly.coeffs:
        assert np.allclose(back.coeffs[l], poly.coeffs[l], rtol=1e-13, atol=1e-14)
    assert np.array_equal(prim.mean(), np.zeros(3))


def test_matrix_poly_product_matches_pointwise_values():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = TrigPoly.from_coeffs(
            {l: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
             for l in (-1, 0, 2)}, (2, 2)
        )
        b = TrigPoly.from_coeffs(
            {l: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
             for l in (-2, 1)}, (2, 2)
        )
        taus = rng.uniform(0, 2 * np.pi, size=5)
        prod = TrigPoly(_convolve(a.data, b.data))
        for tau in taus:
            assert np.allclose(prod(tau), a(tau) @ b(tau), atol=1e-12)
        v = _random_vec_poly(rng, n=2, harmonics=(-1, 0, 1))
        applied = TrigPoly(_convolve(a.data, v.data))
        for tau in taus:
            assert np.allclose(applied(tau), a(tau) @ v(tau), atol=1e-12)


def test_matrix_poly_mean_picks_the_zero_harmonic():
    rng = np.random.default_rng(3)
    a = TrigPoly.from_coeffs(
        {0: rng.standard_normal((2, 2)), 3: rng.standard_normal((2, 2))}, (2, 2)
    )
    grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    quad = np.mean([a(t) for t in grid], axis=0)
    assert np.allclose(a.mean(), quad, atol=1e-13)


def _exponential_sum(poly, taus):
    """sum_l c_l e^{i l tau}, written out apart from the package's basis."""
    taus = np.asarray(taus, dtype=float)
    out = np.zeros(taus.shape + poly.shape, dtype=complex)
    for i, c in enumerate(poly.data):
        phase = np.exp(1j * (i - poly.H) * taus)
        out += phase.reshape(taus.shape + (1,) * len(poly.shape)) * c
    return out


def _conjugate_symmetric(poly):
    """poly plus its conjugate mirror: c_{-l} = conj(c_l), real values."""
    return TrigPoly(poly.data + np.conj(poly.data[::-1]))


@pytest.mark.parametrize("kind", ["matrix", "real vector", "real matrix", "constant"])
def test_poly_evaluates_like_the_exponential_sum(kind):
    # Complex vector values at scalar and 1-d phases are in
    # test_vector_poly_evaluates_like_the_sum.
    rng = np.random.default_rng(17)
    matrix = TrigPoly.from_coeffs(
        {l: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for l in (-3, 1, 2)},
        (3, 3),
    )
    poly = {
        "matrix": matrix,
        "real vector": _conjugate_symmetric(_random_vec_poly(rng)),
        "real matrix": _conjugate_symmetric(matrix),
        "constant": TrigPoly((rng.standard_normal((2, 3)) + 1j)[None]),
    }[kind]
    for taus in (0.7, rng.uniform(-20.0, 20.0, size=(4, 5))):
        got, want = poly(taus), _exponential_sum(poly, taus)
        assert got.shape == np.shape(taus) + poly.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        if kind.startswith("real"):
            assert np.max(np.abs(got.imag)) <= 1e-13 * np.max(np.abs(got))


def test_real_values_are_the_real_part_in_real_arithmetic():
    rng = np.random.default_rng(21)
    taus = rng.uniform(-10.0, 10.0, size=(4, 5))
    general = _random_vec_poly(rng)  # c_{-l} unrelated to c_l
    real = _conjugate_symmetric(general)
    for poly in (general, real, TrigPoly((np.arange(3.0) + 1j)[None])):
        got = poly.sampler(real=True)(taus)
        assert got.dtype == np.float64 and got.shape == (4, 5, 3)
        assert np.allclose(got, poly(taus).real, rtol=0, atol=1e-13)


def _explicit_field(spec, tau, omega):
    """[A0 + B0/omega + sum B_l e^{i l tau} | sum d_l e^{i l tau}], summed
    term by term at one phase."""
    M = spec.A0 + spec.B0 / omega
    for l, Bl in spec.B.items():
        M = M + np.exp(1j * l * tau) * Bl
    f = sum((np.exp(1j * l * tau) * v for l, v in spec.d.items()), np.zeros(spec.n))
    return M, f


def test_system_matrix_and_forcing():
    spec = fixtures.random_admissible(2, n=3, m=2, s=1)
    tau, omega = 0.7, 55.0
    M, f = _explicit_field(spec, tau, omega)
    F = spec.field_map(omega)(tau)
    assert F.shape == (3, 4)
    assert np.allclose(F[:, :3], M, atol=1e-14)
    assert np.allclose(F[:, 3], f, atol=1e-14)
    assert np.array_equal(spec.system_matrix(tau, omega), F[:, :3])
    unforced = fixtures.borderline_stable()
    assert np.array_equal(unforced.field_map(omega)(tau)[:, 3], np.zeros(3))
    assert np.array_equal(unforced.forcing.mean(), np.zeros(3))


def test_system_matrix_and_forcing_accept_phase_arrays():
    spec = fixtures.random_admissible(2, n=3, m=2, s=1)
    omega = 55.0
    taus = np.linspace(0.0, 2 * np.pi, 12).reshape(3, 4)
    F = spec.field_map(omega)(taus)
    assert F.shape == (3, 4, 3, 4)
    assert np.array_equal(spec.system_matrix(taus, omega), F[..., :3])
    for idx in np.ndindex(taus.shape):
        M, f = _explicit_field(spec, taus[idx], omega)
        assert np.allclose(F[idx][:, :3], M, atol=1e-14)
        assert np.allclose(F[idx][:, 3], f, atol=1e-14)


def test_poly_arithmetic_is_blind_to_zero_padding():
    rng = np.random.default_rng(8)
    a = _random_vec_poly(rng, harmonics=(-1, 1))
    wide = TrigPoly(a.padded(4))
    assert wide == a and wide.H == 4 and wide.coeffs.keys() == a.coeffs.keys()
    b = _random_vec_poly(rng)
    c = np.arange(3.0)
    taus = rng.uniform(0, 2 * np.pi, size=5)
    total = TrigPoly(_add_centered(b.padded(4), wide.data))
    assert np.allclose(total(taus), a(taus) + b(taus), atol=1e-13)
    difference = TrigPoly(_add_centered(b.padded(4), wide.data, np.subtract))
    assert np.allclose(difference(taus), b(taus) - a(taus), atol=1e-13)
    assert np.allclose(TrigPoly(_add_centered(a.padded(1), c[None]))(taus), a(taus) + c, atol=1e-13)
    matrix = _random_poly(rng, (3, 3))
    for right in (a, wide):
        assert np.allclose(
            TrigPoly(_convolve(matrix.data, right.data))(taus),
            [matrix(t) @ a(t) for t in taus], atol=1e-12,
        )
    zero = TrigPoly(_add_centered(a.padded(1), a.data, np.subtract))
    assert a != b and zero == TrigPoly(np.zeros((1, 3)))


@pytest.mark.parametrize("real_mode", [True, False])
def test_field_map_in_time_is_the_field_at_omega_t(real_mode):
    # The integrators' right side: built once per frequency, with B0/omega
    # folded into the constant term, and evaluated at times, not phases.
    spec = fixtures.random_admissible(seed=4, n=5, m=3, real_mode=real_mode)
    omega = 137.0
    t = np.random.default_rng(2).uniform(0.0, 2 * np.pi / omega, size=(3, 7))
    got = spec.field_map(omega, omega)(t)
    want = spec.field_map(omega)(omega * t)
    assert got.dtype == want.dtype == (np.float64 if real_mode else np.complex128)
    assert got.shape == t.shape + (5, 6)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # At rate 1 the map takes the phase: the explicit sums, the forcing last.
    for idx in np.ndindex(t.shape):
        M, f = _explicit_field(spec, omega * t[idx], omega)
        scale = np.max(np.abs(M))
        assert np.max(np.abs(got[idx][:, :5] - M)) <= 1e-13 * scale
        assert np.max(np.abs(got[idx][:, 5] - f)) <= 1e-13 * scale


def test_sampler_basis_times_coefficients_is_the_polynomial():
    rng = np.random.default_rng(6)
    poly = _random_vec_poly(rng)
    t = rng.uniform(-1.0, 1.0, size=(4, 2))
    sampler = poly.sampler(rate=3.0, offset=np.ones(3))
    assert np.allclose(sampler(t), poly(3.0 * t) + 1.0, rtol=0, atol=1e-13)
    basis = sampler.basis(t)
    assert basis.shape == (4, 2, len(poly.data))
    assert np.allclose(basis @ sampler.coeffs, sampler(t).reshape(4, 2, -1), atol=1e-13)


@pytest.mark.parametrize(
    "left, right",
    [
        ("row", "matrix"),
        ("row constant", "matrix"),
        ("vector", "matrix"),
        ("vector", "matrix constant"),
        ("matrix", "row"),
        ("matrix constant", "vector"),
        ("matrix constant", "matrix"),
        ("matrix", "matrix constant"),
    ],
)
def test_products_evaluate_pointwise_for_vectors_on_either_side(left, right):
    # A vector on the left is a row, on the right a column, as in numpy.  An
    # array is a constant: _times on the right, _times_left on the left.
    # Polynomials on both sides are in
    # test_matrix_poly_product_matches_pointwise_values.
    rng = np.random.default_rng(31)
    operand = {
        "row": lambda: rng.standard_normal(3) + 1j,
        "row constant": lambda: TrigPoly(rng.standard_normal(3)[None]),
        "vector": lambda: _random_poly(rng, (3,)),
        "matrix": lambda: _random_poly(rng, (3, 3), (-1, 2)),
        "matrix constant": lambda: rng.standard_normal((3, 3)),
    }
    a, b = operand[left](), operand[right]()
    if isinstance(a, np.ndarray):
        prod = TrigPoly(_times_left(a, b.data))
    elif isinstance(b, np.ndarray):
        prod = TrigPoly(_times(a.data, b))
    else:
        prod = TrigPoly(_convolve(a.data, b.data))
    for tau in rng.uniform(0, 2 * np.pi, size=4):
        want = (a(tau) if isinstance(a, TrigPoly) else a) @ (
            b(tau) if isinstance(b, TrigPoly) else b
        )
        assert prod.shape == want.shape
        assert np.allclose(prod(tau), want, rtol=0, atol=1e-12)


def test_products_are_the_per_harmonic_loop_to_the_bit():
    # With the shorter operand on the left, a product forms the same
    # per-harmonic terms as a loop over its harmonics and adds them in the
    # loop's order, so rounding is the loop's: the stability series rest on it.
    rng = np.random.default_rng(34)
    for n, H_a, H_b in ((3, 1, 1), (3, 1, 6), (5, 3, 9), (13, 3, 18), (24, 2, 12)):
        left = _random_poly(rng, (n, n), harmonics=range(-H_a, H_a + 1))
        for shape in ((n,), (n, n)):
            right = _random_poly(rng, shape, harmonics=range(-H_b, H_b + 1))
            a, b = left.data, right.data
            want = np.zeros((len(a) + len(b) - 1,) + shape, dtype=complex)
            for i, c in enumerate(a):
                want[i : i + len(b)] += b @ c.T if len(shape) == 1 else c @ b
            assert np.array_equal(_convolve(a, b), want)


def test_construction_copies_and_results_are_read_only():
    rng = np.random.default_rng(33)
    # A caller's array, complex already, is copied: changing it later
    # leaves the polynomial as it was.
    arr = rng.standard_normal((3, 2)) + 0j
    poly = TrigPoly(arr)
    arr[1, 0] = 99.0
    assert poly.data[1, 0] != 99.0
    value = np.ones(2)
    constant = TrigPoly(value[None])
    value[0] = 5.0
    assert constant.data[0, 0] == 1.0
    matrix, vector = _random_poly(rng, (2, 2), (-1, 1)), _random_poly(rng, (2,), (-2, 1))
    results = [
        constant, matrix, vector, vector.derivative(), TrigPoly(_integrated(vector.data)),
        matrix.derivative(), TrigPoly(_integrated(matrix.data)),
    ]
    for result in results:
        assert not result.data.flags.writeable
        with pytest.raises(ValueError):
            result.data[0] = 0.0


def _naive_product(a, b, H_a, H_b):
    """sum over harmonic pairs (i, j) of a_i @ b_j at harmonic i + j, and
    the mean: the pairs with i + j = 0."""
    shape = (a[0] @ b[0]).shape
    out = np.zeros((len(a) + len(b) - 1,) + shape, dtype=complex)
    mean = np.zeros(shape, dtype=complex)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] @ b[j]
            if (i - H_a) + (j - H_b) == 0:
                mean += a[i] @ b[j]
    return out, mean


_VALUES = {"row": lambda n: (n,), "matrix": lambda n: (n, n), "column": lambda n: (n,)}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_products_match_the_naive_double_loop_exactly(data):
    # Small integers are exact in floating point, and so is every sum of
    # their products, whatever order numpy adds them in.
    n = data.draw(st.integers(1, 5), label="n")
    left, right = data.draw(
        st.sampled_from([("row", "matrix"), ("matrix", "column"), ("matrix", "matrix")]),
        label="values",
    )

    def stack(H, kind):
        shape = (2 * H + 1,) + _VALUES[kind](n)
        size = int(np.prod(shape))
        parts = [
            data.draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
            for _ in range(2)
        ]
        return (np.array(parts[0]) + 1j * np.array(parts[1])).reshape(shape)

    H_a, H_b = data.draw(st.integers(0, 4), label="H_a"), data.draw(st.integers(0, 4), label="H_b")
    a_data, b_data = stack(H_a, left), stack(H_b, right)
    product, mean = _naive_product(a_data, b_data, H_a, H_b)
    assert np.array_equal(_convolve(a_data, b_data), product)
    side = _side_by_side(a_data, min(H_a, H_b))
    assert np.array_equal(_mean_of_product(side, b_data).reshape(mean.shape), mean)
    # Constants on either side, as arrays.
    c_right, c_left = stack(0, right)[0], stack(0, left)[0]
    right_product, _ = _naive_product(a_data, c_right[None], H_a, 0)
    left_product, _ = _naive_product(c_left[None], b_data, 0, H_b)
    assert np.array_equal(_times(a_data, c_right), right_product)
    assert np.array_equal(_times_left(c_left, b_data), left_product)
    plus = a_data.copy()
    plus[H_a] += c_left
    assert np.array_equal(_add_centered(a_data.copy(), c_left[None]), plus)


@pytest.mark.parametrize("t", [0.4, np.linspace(-1.0, 1.0, 7), np.arange(12.0).reshape(3, 4)])
def test_sampler_takes_complex_coefficients_in_any_layout(t):
    rng = np.random.default_rng(33)
    rates = np.array([0.0, 1.0, 2.0, 1.0, 2.0])
    shifts = np.repeat([0.0, np.pi / 2], [3, 2])
    wide = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    coeffs = wide[:, ::2]  # a column slice: not C-contiguous
    assert not coeffs.flags.c_contiguous
    sampler = Sampler(rates, shifts, coeffs, (2, 2))
    got = sampler(t)
    want = (sampler.basis(np.asarray(t)) @ coeffs).reshape(np.shape(t) + (2, 2))
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    real = Sampler(rates, shifts, coeffs.real, (2, 2))
    got = real(t)
    assert got.dtype == np.float64
    want = (real.basis(np.asarray(t)) @ coeffs.real).reshape(want.shape)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
