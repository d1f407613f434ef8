import json

import numpy as np
import pytest

from hfosc import fixtures
from hfosc.errors import ConjugacyError, SchemaError
from hfosc.model import (
    ProblemSpec,
    TrigPoly,
    parse_problem,
    serialize_problem,
)


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
    for spec in (
        fixtures.borderline_stable(),
        fixtures.borderline_unstable(),
        fixtures.forced_borderline(),
        fixtures.degenerate_example(),
        fixtures.scalar_decay(),
    ):
        doc = serialize_problem(spec)
        assert parse_problem(doc) == spec
        # and through actual JSON text, which is how documents travel
        assert parse_problem(json.loads(json.dumps(doc))) == spec


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
    ],
    ids=repr,
)
def test_spec_rejects_invalid_fields(change):
    base = dict(n=1, m=1, A0=[[0.0]], B0=[[1.0]])
    with pytest.raises(SchemaError):
        ProblemSpec(**{**base, **change})


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


# -- trig polynomials -------------------------------------------------------


def _random_vec_poly(rng, n=3, harmonics=(-2, -1, 1, 3)):
    return TrigPoly.from_coeffs(
        {l: rng.standard_normal(n) + 1j * rng.standard_normal(n) for l in harmonics}, (n,)
    )


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
    back = poly.antiderivative().derivative()
    assert tuple(back.coeffs) == tuple(poly.coeffs)
    for l in poly.coeffs:
        assert np.allclose(back.coeffs[l], poly.coeffs[l], rtol=1e-13, atol=1e-14)
    assert np.array_equal(poly.antiderivative().mean(), np.zeros(3))


def test_antiderivative_rejects_nonzero_mean():
    poly = TrigPoly.from_coeffs({0: [1.0, 0.0], 1: [0.0, 1.0]}, (2,))
    with pytest.raises(ValueError):
        poly.antiderivative()


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
        prod = a @ b
        for tau in taus:
            assert np.allclose(prod(tau), a(tau) @ b(tau), atol=1e-12)
        v = _random_vec_poly(rng, n=2, harmonics=(-1, 0, 1))
        applied = a @ v
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
    return poly + TrigPoly(np.conj(poly.data[::-1]))


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
        "constant": TrigPoly.constant(rng.standard_normal((2, 3)) + 1j),
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
    for poly in (general, real, TrigPoly.constant(np.arange(3.0) + 1j)):
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
    assert np.array_equal(unforced.d0, np.zeros(3))


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
    assert np.allclose((wide + b)(taus), a(taus) + b(taus), atol=1e-13)
    assert np.allclose((b - wide)(taus), b(taus) - a(taus), atol=1e-13)
    assert np.allclose((a + c)(taus), a(taus) + c, atol=1e-13)
    assert np.allclose((2.5 * a)(taus), 2.5 * a(taus), atol=1e-13)
    assert a != b and a - a == TrigPoly.constant(np.zeros(3))


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
