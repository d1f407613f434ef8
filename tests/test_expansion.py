import dataclasses
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfosc import fixtures
from hfosc.cli import DEFECT_TOL, solvability_defect
from hfosc.errors import NonFiniteError
from hfosc.expansion import expand, ode_residual, partial_sum, safe_norm
from hfosc.model import ProblemSpec, load_problem
from hfosc.oracle import periodic_solution
from hfosc.spectral import compute_kernel_data

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _kernel_vectors(exp):
    """v_{-1}, v_0, ..., v_{order} reconstructed from the stored coefficients."""
    kernel = exp.kernel_data.kernel
    vs = [kernel @ exp.leading]
    vs += [kernel @ lev.kernel_coeff for lev in exp.levels]
    return vs


def test_forced_borderline_hand_values():
    exp = expand(fixtures.forced_borderline(), order=2)
    assert np.allclose(exp.kernel_data.kernel @ exp.leading, [1.0, -1.0, 0.0], atol=1e-13)
    assert np.allclose(exp.levels[0].mean, [0.0, 0.0, 1.0], atol=1e-13)
    assert exp.leading_defect < 1e-14
    for lev in exp.levels:
        assert lev.solvability_defect < 1e-12
        assert not lev.osc.coeffs  # no oscillating coefficients at all


def test_constant_coefficient_case_matches_neumann_recursion():
    # Without oscillating terms the equation is autonomous and the levels
    # must satisfy the matched-power identities of the exact equilibrium
    #   (A0 + B0/omega) x = -d0:
    # A0 u_{-1} = 0, A0 u_0 + B0 u_{-1} = -d0, A0 u_{k+1} + B0 u_k = 0.
    spec = fixtures.forced_borderline()
    exp = expand(spec, order=5)
    vs = _kernel_vectors(exp)
    u = [vs[0]] + [lev.mean + vs[k + 1] for k, lev in enumerate(exp.levels)]
    assert np.allclose(spec.A0 @ u[0], 0.0, atol=1e-13)
    assert np.allclose(spec.A0 @ u[1] + spec.B0 @ u[0] + spec.forcing.mean(), 0.0, atol=1e-12)
    for k in range(1, len(u) - 1):
        assert np.allclose(spec.A0 @ u[k + 1] + spec.B0 @ u[k], 0.0, atol=1e-11)
    # For this fixture the series terminates: already the order-0 sum equals
    # the exact equilibrium (the higher identities hold with zeros).
    omega = 200.0
    exact = -np.linalg.solve(spec.A0 + spec.B0 / omega, spec.forcing.mean())
    err0 = np.linalg.norm(partial_sum(exp, 0, omega, 0.0) - exact)
    assert err0 < 1e-10 * np.linalg.norm(exact)
    for lev in exp.levels[1:]:
        assert np.allclose(lev.mean + exp.kernel_data.kernel @ lev.kernel_coeff,
                           0.0, atol=1e-12)


def test_partial_sums_approach_exact_equilibrium():
    # A generic instance without oscillating coefficients: successive partial
    # sums must close in on the solved equilibrium.
    spec = fixtures.random_admissible(seed=1, n=3, m=0)
    exp = expand(spec, order=4)
    omega = 200.0
    exact = -np.linalg.solve(spec.A0 + spec.B0 / omega, spec.forcing.mean())
    err = [float(np.linalg.norm(partial_sum(exp, r, omega, 0.0) - exact))
           for r in (0, 2, 4)]
    assert err[0] > err[1] > err[2]
    assert err[2] < 1e-8 * np.linalg.norm(exact)


def test_mean_equation_holds_at_every_level():
    for seed, real_mode in ((0, True), (1, True), (2, False)):
        spec = fixtures.random_admissible(seed=seed, n=3, m=1, real_mode=real_mode)
        exp = expand(spec, order=4)
        kd = exp.kernel_data
        A1 = kd.averaged
        vs = _kernel_vectors(exp)
        for k, lev in enumerate(exp.levels):
            resid = spec.A0 @ lev.mean + A1 @ vs[k] + lev.forcing
            scale = max(1.0, float(np.linalg.norm(lev.forcing)))
            assert np.linalg.norm(resid) < 1e-10 * scale


def test_masses_and_defects_are_each_levels_own_to_the_bit():
    # The sweeps leave both to one call after them.  Level k's defect is
    # that of the equation which closed C_k with theta_{k+1}.
    for m in range(5):
        for real_mode in (True, False):
            spec = fixtures.random_admissible(
                seed=[m, 5], n=2 + 3 * m, m=m, s=1 + m % 2, real_mode=real_mode
            )
            exp = expand(spec, order=6)
            kd = exp.kernel_data
            coeffs = [exp.leading] + [lev.kernel_coeff for lev in exp.levels[:-1]]
            defects = [exp.leading_defect] + [lev.solvability_defect for lev in exp.levels[:-1]]
            for c, lev, defect in zip(coeffs, exp.levels, defects):
                g = kd.averaged @ (kd.kernel @ c) + lev.forcing
                assert defect == float(np.max(np.abs(kd.left_kernel.conj().T @ g)))
            for lev in exp.levels:
                assert lev.harmonic_mass == float(np.sum(safe_norm(lev.harmonics.data)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_level_closes_its_solvability_condition(data):
    n = data.draw(st.integers(1, 8), label="n")
    spec = fixtures.random_admissible(
        data.draw(st.integers(0, 10**6), label="seed"),
        n=n,
        m=data.draw(st.integers(0, 4), label="m"),
        s=data.draw(st.integers(1, min(3, n)), label="s"),
    )
    exp = expand(spec, 8)
    assert len(exp.levels) == 9
    assert solvability_defect(exp) < DEFECT_TOL


def test_structural_invariants():
    for seed in range(4):
        spec = fixtures.random_admissible(seed=seed, n=4, m=2, s=2)
        exp = expand(spec, order=3)
        kd = exp.kernel_data
        vs = _kernel_vectors(exp)
        for k, lev in enumerate(exp.levels):
            # Means live strictly outside the kernel.
            assert np.allclose(kd.kernel.conj().T @ lev.mean, 0.0, atol=1e-11)
            # Oscillating parts have zero mean and bounded harmonic range.
            assert np.array_equal(lev.osc.mean(), np.zeros(spec.n))
            if lev.osc.coeffs:
                assert max(abs(l) for l in lev.osc.coeffs) <= (k + 1) * spec.m
            # osc = (payload generated by v_{k-1}) + harmonics.
            support = set(lev.osc.coeffs) | set(lev.harmonics.coeffs)
            for l in support:
                payload = np.zeros(spec.n, dtype=complex)
                Bl = spec.B.get(l)
                if Bl is not None:
                    payload = Bl @ vs[k] / (1j * l)
                want = payload + lev.harmonics.coeffs.get(l, 0.0)
                got = lev.osc.coeffs.get(l, np.zeros(spec.n, dtype=complex))
                assert np.allclose(got, want, atol=1e-12)
            # Reported harmonic mass matches its definition.
            mass = sum(
                float(np.linalg.norm(c)) for c in lev.harmonics.coeffs.values()
            )
            assert lev.harmonic_mass == pytest.approx(mass, abs=1e-12)
        # Forcing of level k >= 1 is assembled from level k-1 data.
        for k in range(1, len(exp.levels)):
            lev, prev = exp.levels[k], exp.levels[k - 1]
            theta = spec.B0 @ prev.mean.astype(complex)
            for l, b in lev.harmonics.coeffs.items():
                Bm = spec.B.get(-l)
                if Bm is not None:
                    theta = theta + Bm @ b
            assert np.allclose(lev.forcing, theta, atol=1e-11)
        assert np.allclose(exp.levels[0].forcing, spec.forcing.mean(), atol=0.0)


def test_real_systems_have_real_partial_sums():
    spec = fixtures.random_admissible(seed=3, n=3, m=2)
    exp = expand(spec, order=3)
    t = np.linspace(0.0, 0.5, 7)
    S = partial_sum(exp, 3, 120.0, t)
    assert S.dtype == np.float64
    # The real part of a sum whose imaginary part is rounding.
    complex_sum = partial_sum(dataclasses.replace(exp, real_mode=False), 3, 120.0, t)
    assert np.max(np.abs(S - complex_sum.real)) <= 1e-15 * np.max(np.abs(S))
    assert float(np.max(np.abs(complex_sum.imag))) < 1e-9 * float(np.max(np.abs(S)))
    for lev in exp.levels:
        for l in lev.osc.coeffs:
            assert np.allclose(
                lev.osc.coeffs[l], np.conj(lev.osc.coeffs[-l]), atol=1e-12
            )


@pytest.mark.parametrize("seed, n, m", [(1, 3, 2), (2, 10, 4), (3, 24, 1), (1, 6, 0)])
def test_real_sums_and_residuals_match_the_complex_evaluation(seed, n, m):
    # A real system's sum and residual are evaluated in real arithmetic.
    # The same levels taken as a complex system's are evaluated in complex
    # arithmetic, and stay complex.
    spec = fixtures.random_admissible(seed=seed, n=n, m=m)
    exp = expand(spec, order=4)
    as_complex = dataclasses.replace(exp, real_mode=False)
    omega = 80.0
    t = np.linspace(0.0, 2 * np.pi / omega, 33)
    for r in (0, 4):
        S, want = partial_sum(exp, r, omega, t), partial_sum(as_complex, r, omega, t)
        assert S.dtype == np.float64 and want.dtype == np.complex128
        size = float(np.max(np.abs(want)))
        assert np.max(np.abs(S - want.real)) <= 1e-15 * size
        # The residual is a difference of terms of size omega |S|.
        gap = ode_residual(spec, exp, r, omega) - ode_residual(spec, as_complex, r, omega)
        assert abs(gap) <= 1e-15 * omega * size


@pytest.mark.parametrize("name", ["forcing_only", "forcing_past_matrix"])
def test_forcing_past_the_first_product_expands(name):
    # The first sweep adds d to g = M (y_0 + x_0), whose harmonics reach
    # 2 H_B; these documents force harmonics past that bound.
    spec = load_problem(FIXTURES / f"{name}.json")
    exp = expand(spec, order=4)
    assert solvability_defect(exp) < DEFECT_TOL
    H_B = max(map(abs, spec.B), default=0)
    past = [l for l in spec.d if abs(l) > 2 * H_B]
    assert past
    for l in past:
        # Nothing else reaches harmonic l at level 1: y_1 has d_l / (i l).
        want = spec.d[l] / (1j * l)
        assert np.allclose(exp.levels[1].osc.coeffs[l], want, rtol=1e-15, atol=0)
    # The partial sums converge to the reference solution at their order.
    omegas = (100.0, 200.0)
    solutions = [periodic_solution(spec, w) for w in omegas]
    for r in (0, 1, 2):
        err = [np.max(np.abs(partial_sum(exp, r, w, ps.t) - ps.x)) for w, ps in zip(omegas, solutions)]
        assert abs(np.log2(err[0] / err[1]) - (r + 1)) < 0.3, (r, err)


def test_prefix_consistency():
    spec = fixtures.random_admissible(seed=4, n=3, m=1)
    short = expand(spec, order=2)
    long = expand(spec, order=5)
    assert np.array_equal(short.leading, long.leading)
    for a, b in zip(short.levels, long.levels):
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.kernel_coeff, b.kernel_coeff)
        assert a.osc == b.osc
        assert np.array_equal(a.forcing, b.forcing)


def test_explicit_kernel_data_matches_default():
    spec = fixtures.random_admissible(seed=6, n=3, m=1)
    kd = compute_kernel_data(spec)
    a = expand(spec, order=2, kernel_data=kd)
    b = expand(spec, order=2)
    assert np.array_equal(a.leading, b.leading)
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(la.mean, lb.mean)


def test_unforced_system_expands_to_zero():
    spec = fixtures.random_admissible(seed=0, n=3, m=1, forced=False)
    exp = expand(spec, order=3)
    assert np.array_equal(exp.leading, np.zeros(exp.leading.shape))
    for lev in exp.levels:
        assert np.allclose(lev.mean, 0.0, atol=0.0)
        assert not lev.osc.coeffs
    S = partial_sum(exp, 3, 100.0, np.linspace(0.0, 1.0, 5))
    assert np.array_equal(S, np.zeros_like(S))


def test_ode_residual_decays_at_matched_rate():
    spec = fixtures.random_admissible(seed=1, n=3, m=1)
    exp = expand(spec, order=3)
    omegas = np.array([100.0, 200.0, 400.0])
    for r in (1, 2, 3):
        res = [ode_residual(spec, exp, r, w) for w in omegas]
        slope = np.polyfit(np.log(omegas), np.log(res), 1)[0]
        assert abs(slope + r) < 0.35, (r, slope, res)
    flat = [ode_residual(spec, exp, 0, w) for w in omegas]
    assert max(flat) < 10.0 * min(flat)  # order 0 leaves an O(1) defect


def test_argument_validation():
    spec = fixtures.forced_borderline()
    exp = expand(spec, order=1)
    with pytest.raises(ValueError):
        expand(spec, order=-1)
    with pytest.raises(ValueError):
        partial_sum(exp, 2, 100.0, 0.0)
    with pytest.raises(ValueError):
        partial_sum(exp, -1, 100.0, 0.0)
    with pytest.raises(ValueError):
        ode_residual(spec, exp, 5, 100.0)


@pytest.mark.parametrize("real_mode", [True, False])
def test_partial_sum_is_the_sum_of_its_levels(real_mode):
    # partial_sum evaluates the levels summed into one polynomial; here each
    # level is evaluated on its own and the values are summed.
    spec = fixtures.random_admissible(seed=5, n=4, m=2, s=2, real_mode=real_mode)
    exp = expand(spec, order=4)
    kernel = exp.kernel_data.kernel
    omega = 90.0
    t = np.linspace(0.0, 0.4, 9).reshape(3, 3)
    for r in range(exp.order + 1):
        want = omega * (kernel @ exp.leading) + sum(
            omega ** -k * (lev.mean + kernel @ lev.kernel_coeff + lev.osc(omega * t))
            for k, lev in enumerate(exp.levels[: r + 1])
        )
        if real_mode:
            want = want.real
        got = partial_sum(exp, r, omega, t)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_partial_sum_shapes():
    spec = fixtures.random_admissible(seed=2, n=3, m=1)
    exp = expand(spec, order=1)
    assert partial_sum(exp, 1, 50.0, 0.25).shape == (3,)
    assert partial_sum(exp, 1, 50.0, np.zeros(5)).shape == (5, 3)
    grid = np.zeros((2, 4))
    assert partial_sum(exp, 1, 50.0, grid).shape == (2, 4, 3)


@pytest.mark.parametrize("omega", [1e-300, 1e308])
def test_partial_sum_past_the_float_range_raises_non_finite(omega):
    # omega^-2 overflows at 1e-300, the O(omega) term at 1e308.
    exp = expand(fixtures.random_admissible(seed=2, n=3, m=1), order=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="partial sum .* is not finite"):
            partial_sum(exp, 2, omega, np.linspace(0.0, 1.0, 3))


def test_overflow_raises_a_typed_error_without_warnings():
    spec = fixtures.random_admissible(seed=0, n=3, m=1)

    def scaled(factor):
        return ProblemSpec(
            n=3, m=1, A0=factor * spec.A0, B0=factor * spec.B0,
            B={l: factor * b for l, b in spec.B.items()},
            d={l: factor * v for l, v in spec.d.items()},
        )

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="of the expansion"):
            expand(scaled(1e150), 4)
        with pytest.raises(NonFiniteError, match="averaged matrix A1"):
            compute_kernel_data(scaled(1e300))


def test_large_finite_coefficients_keep_finite_masses():
    # Past order 247 this expansion's beta coefficients exceed 1e154, whose
    # squares overflow; the masses and norms must stay finite until the
    # coefficients themselves overflow (order 489).
    spec = load_problem(FIXTURES / "random_n3_m1.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exp = expand(spec, 300)
        masses = np.array([lev.harmonic_mass for lev in exp.levels])
        means = safe_norm(np.array([lev.mean for lev in exp.levels]))
    assert np.all(np.isfinite(masses)) and np.all(np.isfinite(means))
    assert masses[-1] > 1e180 and means[-1] > 1e180


def test_safe_norm_is_numpys_norm_to_the_bit_between_1e_100_and_1e100():
    # The power-of-two scaling is exact there, so the norms are numpy's of
    # the real and imaginary parts, whatever each vector's magnitude.
    rng = np.random.default_rng(9)
    for k in (1, 3, 8, 29):
        mags = 10.0 ** rng.uniform(-100, 100, size=(60, k))
        a = mags * np.exp(2j * np.pi * rng.uniform(size=(60, k)))
        assert np.array_equal(safe_norm(a), np.linalg.norm(a.view(float), axis=-1))
        assert safe_norm(a[0]) == np.linalg.norm(a[0].view(float), axis=-1)


def test_safe_norm_is_the_euclidean_norm_at_any_scale():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    a[2] = 0.0
    want = np.linalg.norm(a, axis=-1)
    for scale in (1.0, 2.0**-1000, 2.0**900):
        assert np.allclose(safe_norm(scale * a) / scale, want, rtol=1e-15, atol=0)
    assert safe_norm(a[0]) == pytest.approx(want[0], rel=1e-15)
