import pathlib

import numpy as np
import pytest

from hfosc import fixtures
from hfosc.bounds import (
    ConvergenceConstants,
    check_growth,
    constants,
    is_normalized,
    normalize,
)
from hfosc.expansion import expand, partial_sum
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
    assert not is_normalized(spec)
    prime, scale = normalize(spec)
    assert scale > 1.0
    assert is_normalized(prime)
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


def test_constants_require_normalization():
    spec = _scaled_up(fixtures.random_admissible(seed=1, n=3, m=1), 3.0)
    with pytest.raises(ValueError):
        constants(spec)
    prime, _ = normalize(spec)
    cc = constants(prime)
    assert cc.K == 2.0 * spec.m + 2.0
    assert cc.L > 0.0
    assert cc.omega0 == pytest.approx(cc.K * (cc.K * cc.L + 1.0))


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


def test_growth_check_validates_p_max():
    prime, _ = normalize(fixtures.random_admissible(seed=1, n=3, m=1))
    exp = expand(prime, order=3)
    cc = constants(prime)
    with pytest.raises(ValueError):
        check_growth(exp, cc, p_max=4)
    with pytest.raises(ValueError):
        check_growth(exp, cc, p_max=-1)
    short = check_growth(exp, cc, p_max=2)
    assert short.p_max == 2 and len(short.theta_norms) == 3


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
