import pathlib

import numpy as np
import pytest

from hfosc import fixtures
from hfosc.bounds import (
    ConvergenceConstants,
    _block_norms,
    _spectral_norms,
    check_growth,
    constants,
    normalize,
)
from hfosc.expansion import expand, partial_sum, safe_norm
from hfosc.spectral import compute_kernel_data
from hfosc.model import ProblemSpec, load_problem


def _scaled_up(spec, factor):
    """The same problem with every block blown up by ``factor``."""
    return ProblemSpec(
        n=spec.n, m=spec.m,
        A0=spec.A0 * factor,
        B0=spec.B0 * factor,
        B={l: M * factor for l, M in spec.B.items()},
        d={l: v * factor for l, v in spec.d.items()},
        real_mode=spec.real_mode,
    )


def test_normalize_brings_all_blocks_under_one():
    spec = _scaled_up(fixtures.random_admissible(seed=0, n=3, m=2), 7.0)
    prime, scale = normalize(spec)
    assert scale > 1.0
    assert normalize(prime)[1] == 1.0
    norms = [np.linalg.norm(prime.A0, 2), np.linalg.norm(prime.B0, 2)]
    norms += [np.linalg.norm(M, 2) for M in prime.B.values()]
    norms += [np.linalg.norm(v) for v in prime.d.values()]
    assert max(norms) <= 1.0 + 1e-12
    # The largest original block is the one that set the scale.
    orig = [np.linalg.norm(spec.A0, 2), np.linalg.norm(spec.B0, 2)]
    orig += [np.linalg.norm(M, 2) for M in spec.B.values()]
    orig += [np.linalg.norm(v) for v in spec.d.values()]
    assert scale == pytest.approx(max(orig))


def test_normalize_is_identity_on_small_problems():
    spec = fixtures.borderline_stable()
    prime, scale = normalize(_scaled_up(spec, 1e-3))
    assert scale == 1.0
    prime2, scale2 = normalize(prime)
    assert prime2 is prime and scale2 == 1.0
    # A largest block norm within NORM_SLACK of 1 is rounding: scale 1.0.
    edge = _scaled_up(spec, (1.0 + 1e-13) / max(_block_norms(spec)))
    assert 1.0 < max(_block_norms(edge)) < 1.0 + 1e-12
    prime3, scale3 = normalize(edge)
    assert prime3 is edge and scale3 == 1.0


def test_normalize_is_an_exact_change_of_variables():
    # x'(t') = x(t'/scale) maps solutions of the primed problem at frequency
    # omega/scale to solutions of the original at omega.  The recursion
    # commutes with the rescaling, so partial sums must agree pointwise.
    spec = _scaled_up(fixtures.random_admissible(seed=2, n=3, m=1), 4.0)
    prime, scale = normalize(spec)
    assert scale > 1.0
    exp = expand(spec, order=3)
    exp_p = expand(prime, order=3)
    omega = 150.0
    t = np.linspace(0.0, 0.3, 9)
    S = partial_sum(exp, 3, omega, t)
    S_p = partial_sum(exp_p, 3, omega / scale, scale * t)
    assert np.allclose(S, S_p, rtol=1e-9, atol=1e-9 * float(np.max(np.abs(S))))


def test_constants_carry_the_normalization_scale():
    spec = _scaled_up(fixtures.random_admissible(seed=1, n=3, m=1), 3.0)
    prime, scale = normalize(spec)
    assert constants(spec).scale == scale > 1.0
    cc = constants(prime)
    assert cc == constants(prime, compute_kernel_data(prime))
    assert cc.scale == 1.0
    assert cc.K == 2.0 * spec.m + 2.0
    assert cc.L > 0.0
    assert cc.omega0 == pytest.approx(cc.K * (cc.K * cc.L + 1.0))


@pytest.mark.parametrize("factor", [7.0, 1e3])
@pytest.mark.parametrize("real_mode", [True, False])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_scaled_growth_check_agrees_with_the_normalized_problem(s, real_mode, factor):
    # check_growth reads a stored problem's expansion at its scale; the
    # normalized problem's own expansion gives the same levels.  Its SVD
    # may pick another kernel basis for s >= 2, and L depends on the basis.
    spec = fixtures.random_admissible(seed=s, n=s + 2, m=2, s=s, real_mode=real_mode)
    spec = _scaled_up(spec, factor)
    prime, _ = normalize(spec)
    cc, cc_p = constants(spec), constants(prime)
    report = check_growth(expand(spec, order=10), cc)
    want = check_growth(expand(prime, order=10), cc_p)
    assert report.all_ok == want.all_ok
    assert report.first_violation == want.first_violation
    assert np.allclose(report.theta_norms, want.theta_norms, rtol=1e-10, atol=0.0)
    assert np.allclose(report.harmonic_masses, want.harmonic_masses, rtol=1e-10, atol=0.0)
    if s == 1:
        assert cc.L == pytest.approx(cc_p.L, rel=1e-12, abs=0.0)
        assert cc.omega0 == pytest.approx(cc_p.omega0, rel=1e-12, abs=0.0)


def test_solvability_constant_bounds_both_recursion_steps():
    # |x_p| <= L |theta_p| and the closing coefficients obey
    # sum_j |C_{p-1}^j| <= L |theta_p|, directly on computed data.
    for seed in (1, 3, 5):
        prime, _ = normalize(fixtures.random_admissible(seed=seed, n=3, m=1))
        cc = constants(prime)
        exp = expand(prime, order=6)
        slack = 1.0 + 1e-9
        coeff_chain = [exp.leading] + [lev.kernel_coeff for lev in exp.levels]
        for k, lev in enumerate(exp.levels):
            theta = float(np.linalg.norm(lev.forcing))
            assert np.linalg.norm(lev.mean) <= slack * cc.L * theta + 1e-15
            assert float(np.sum(np.abs(coeff_chain[k]))) <= slack * cc.L * theta + 1e-15


def test_envelope_holds_on_screened_instances():
    cases = [(3, 1, 1, 1), (3, 2, 1, 1), (4, 1, 2, 1), (2, 1, 1, 3)]
    for n, m, s, seed in cases:
        prime, _ = normalize(fixtures.random_admissible(seed=seed, n=n, m=m, s=s))
        cc = constants(prime)
        report = check_growth(expand(prime, order=10), cc)
        assert report.all_ok, (n, m, s, seed, report.first_violation)
        assert report.first_violation is None
        assert report.p_max == 10
        assert len(report.theta_norms) == 11
        assert len(report.envelope) == 11
        assert report.envelope[0] == 2.0 * m


def test_growth_check_detects_violations():
    # Feeding deliberately shrunken constants must trip the geometric
    # budgets on any genuinely forced expansion.
    prime, _ = normalize(fixtures.random_admissible(seed=1, n=3, m=1))
    exp = expand(prime, order=4)
    bogus = ConvergenceConstants(K=1e-3, L=1e-3, omega0=1.0)
    report = check_growth(exp, bogus)
    assert not report.all_ok
    assert not report.forcing_growth_ok
    assert report.first_violation is not None


def test_growth_budget_past_the_float_range_holds():
    # (K (K L + 1))^p overflows from p = 113 for this fixture; the budget
    # is then inf and the bound holds, where a Python float power raises.
    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "random_n3_m1.json"
    prime, _ = normalize(load_problem(path))
    cc = constants(prime)
    report = check_growth(expand(prime, order=120), cc)
    assert report.all_ok and report.first_violation is None
    assert np.isfinite(report.theta_norms).all()
    with np.errstate(over="ignore"):
        budget = np.float64(cc.K * (cc.K * cc.L + 1.0)) ** np.arange(121.0)
    assert np.isinf(budget[113:]).all() and np.isfinite(budget[:112]).all()
    with pytest.raises(OverflowError):
        (cc.K * (cc.K * cc.L + 1.0)) ** 120


def _admissible_specs():
    """Real and complex admissible specs with m = 0..4."""
    return [
        fixtures.random_admissible(seed=[seed, m], n=2 + 3 * m, m=m, s=1 + seed % 2, real_mode=real)
        for m in range(5) for real in (True, False) for seed in range(3)
    ]


def test_batched_two_norms_are_the_per_block_norms_to_the_bit():
    # One batched SVD gives each block the singular values of its own call.
    for spec in _admissible_specs():
        want = [np.linalg.norm(spec.A0, 2), np.linalg.norm(spec.B0, 2)]
        want += [np.linalg.norm(M, 2) for M in spec.B.values()]
        want += [np.linalg.norm(v) for v in spec.d.values()]
        assert np.array_equal(_block_norms(spec), want)
        kd = compute_kernel_data(spec)
        W, A1 = kd.restricted_inverse, kd.averaged
        assert np.array_equal(
            _spectral_norms(W, A1), [np.linalg.norm(W, 2), np.linalg.norm(A1, 2)]
        )


def test_theta_norms_are_the_per_level_safe_norms_to_the_bit():
    for spec in _admissible_specs():
        prime, _ = normalize(spec)
        exp = expand(prime, order=6)
        report = check_growth(exp, constants(prime))
        assert np.array_equal(report.theta_norms, [safe_norm(lev.forcing) for lev in exp.levels])
