import gc
import json
import importlib.util
import pathlib
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfosc import fixtures
from hfosc.averaging import (
    DEFAULT_TRUNC,
    Series,
    _product,
    analyze_stability,
    char_poly_series,
    classify,
    formal_average,
    hurwitz_series,
    kb_transform,
    transform_residual,
)
from hfosc.bounds import constants, normalize
from hfosc.errors import NonFiniteError, NotRealError
from hfosc.model import ProblemSpec, TrigPoly, load_problem
from hfosc.oracle import floquet_verdict
from hfosc.spectral import averaged_matrix

# The benchmark's systems whose stability is known by construction.
_PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "problems.py"
_spec = importlib.util.spec_from_file_location("perfbench_problems", _PROBLEMS)
problems = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(problems)


def test_scalar_series_arithmetic():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 6))
    p = _product(a, b)
    for q in range(6):
        want = sum(a[i] * b[q - i] for i in range(q + 1))
        assert p[q] == pytest.approx(want)
    # Evaluation sums coeff / omega^q.
    series = Series(a)
    assert series.trunc == 5 and series.coeff(3) == a[3]
    omega = 7.0
    want = sum(a[q] * omega ** (-q) for q in range(6))
    assert series(omega) == pytest.approx(want)
    with pytest.raises(ValueError):
        Series(())


def test_series_truncation_commutes_with_multiplication():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b = rng.standard_normal((2, 7))
        k = int(rng.integers(0, 6))
        full = _product(a, b)[: k + 1]
        cut = _product(a[: k + 1], b[: k + 1])
        for q in range(k + 1):
            assert full[q] == pytest.approx(cut[q])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_series_products_are_causal(bad):
    # Order q of a product reads orders <= q of its operands and nothing
    # above: a non-finite order q leaves the orders below it as they were.
    rng = np.random.default_rng(3)
    for shape, op in (((), np.multiply), ((3, 3), np.matmul)):
        a, b = (rng.standard_normal((6,) + shape) for _ in range(2))
        for q in range(1, 6):
            spoilt = a.copy()
            spoilt[q] = bad
            with np.errstate(invalid="ignore"):
                for x, y in ((spoilt, b), (b, spoilt)):
                    got = _product(x, y, op)
                    want = _product(x[:q], y[:q], op)
                    np.testing.assert_array_equal(got[:q], want)
                    assert not np.isfinite(got[q]).all()
        # Unequal truncations give the shorter one.
        assert len(_product(a, b[:4], op)) == 4
        assert len(_product(a[:2], b, op)) == 2


def test_matrix_series_arithmetic():
    rng = np.random.default_rng(2)
    A, B = rng.standard_normal((2, 4, 3, 3))
    prod = _product(A, B, np.matmul)
    for q in range(4):
        want = sum(A[i] @ B[q - i] for i in range(q + 1))
        assert np.allclose(prod[q], want, atol=1e-13)
    omega = 11.0
    want = sum(omega ** (-q) * A[q] for q in range(4))
    assert np.allclose(Series(A)(omega), want, atol=1e-13)
    ident = np.zeros_like(A)
    ident[0] = np.eye(3)
    np.testing.assert_array_equal(_product(ident, A, np.matmul), A)
    # All coefficients share one shape.
    with pytest.raises(ValueError):
        Series((np.zeros((2, 2)), np.zeros((3, 3))))
    with pytest.raises(ValueError):
        Series(np.zeros((0, 3, 3)))


def test_transform_first_terms_match_hand_formulas():
    for seed in (0, 4):
        spec = fixtures.random_admissible(seed=seed, n=3, m=2)
        series, U = kb_transform(spec, trunc=3)
        assert len(U) == 3
        # Order 0: the stationary matrix itself; order 1: the averaged matrix
        # that the kernel-geometry route computes independently.
        assert np.allclose(series.coeff(0), spec.A0, atol=1e-14)
        assert np.allclose(series.coeff(1), averaged_matrix(spec), atol=1e-13)
        # U_1 is the zero-mean antiderivative of the oscillating part.
        want = TrigPoly.from_coeffs(spec.B, (3, 3)).antiderivative()
        assert U[0] == want
        for Uk in U:
            assert np.allclose(Uk.mean(), 0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_averaging_routes_agree_at_first_order(data):
    # The transform's A1 comes out of coefficient-stack products; the kernel-geometry
    # route sums B_{-l} B_l / (i l) directly.
    n = data.draw(st.integers(1, 8), label="n")
    spec = fixtures.random_admissible(
        data.draw(st.integers(0, 10**6), label="seed"),
        n=n,
        m=data.draw(st.integers(0, 4), label="m"),
        s=data.draw(st.integers(1, min(3, n)), label="s"),
    )
    want = averaged_matrix(spec)
    got = formal_average(spec, 1).coeff(1)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_transform_requires_positive_truncation():
    with pytest.raises(ValueError):
        kb_transform(fixtures.borderline_stable(), trunc=0)


def test_formal_average_default_truncation():
    series = formal_average(fixtures.borderline_stable())
    assert series.trunc == DEFAULT_TRUNC


def test_transform_residual_decays_at_truncation_order():
    spec = fixtures.random_admissible(seed=1, n=3, m=1)
    omegas = np.array([50.0, 100.0, 200.0])
    for trunc in (1, 2, 3):
        res = [transform_residual(spec, w, trunc, samples=32) for w in omegas]
        slope = np.polyfit(np.log(omegas), np.log(res), 1)[0]
        assert abs(slope + trunc) < 0.3, (trunc, slope, res)


def test_char_poly_matches_numpy_for_constant_series():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        A = rng.standard_normal((n, n))
        alphas = char_poly_series(Series((A,)))
        want = np.poly(A)  # [1, c_1, ..., c_n]
        for k, a in enumerate(alphas, start=1):
            assert a.coeff(0) == pytest.approx(want[k], abs=1e-10)


def test_char_poly_series_converges_to_pointwise_numpy():
    rng = np.random.default_rng(4)
    coeffs = tuple(0.5 * rng.standard_normal((3, 3)) for _ in range(4))
    ms = Series(coeffs)
    alphas = char_poly_series(ms)
    omegas = np.array([40.0, 80.0, 160.0])
    errs = []
    for w in omegas:
        want = np.poly(ms(w))
        err = max(abs(alphas[k](w) - want[k + 1]) for k in range(3))
        errs.append(err)
    slope = np.polyfit(np.log(omegas), np.log(errs), 1)[0]
    assert slope < -3.5, (slope, errs)


def _hurwitz_matrix(c):
    n = len(c)
    alpha = {0: 1.0}
    alpha.update({k + 1: float(v) for k, v in enumerate(c)})
    H = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            H[i - 1, j - 1] = alpha.get(2 * i - j, 0.0)
    return H


def test_hurwitz_minors_match_numpy_determinants():
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        for _ in range(5):
            c = rng.standard_normal(n)
            alphas = [Series((v, 0.0, 0.0)) for v in c]
            minors = hurwitz_series(alphas)
            H = _hurwitz_matrix(c)
            for k in range(1, n + 1):
                want = np.linalg.det(H[:k, :k])
                assert minors[k - 1].coeff(0) == pytest.approx(want, abs=1e-9)
                # Padding orders stay exactly zero for constant input.
                assert minors[k - 1].coeff(1) == 0
                assert minors[k - 1].coeff(2) == 0


def _exact_minors(alphas, trunc):
    """Leading Hurwitz minors by cofactor expansion over exact rationals.

    ``alphas`` are real coefficient lists; every float converts to a
    Fraction exactly, so the result is the exact minor of those numbers.
    """
    n = len(alphas)
    a = [[Fraction(1)] + [Fraction(0)] * trunc]
    a += [[Fraction(c) for c in al[: trunc + 1]] for al in alphas]
    zero = [Fraction(0)] * (trunc + 1)

    def mul(x, y):
        return [sum(x[i] * y[q - i] for i in range(q + 1)) for q in range(trunc + 1)]

    minors = []
    for size in range(1, n + 1):
        memo = {(): a[0]}

        def det(cols):
            if cols not in memo:
                row = size - len(cols) + 1
                acc = zero
                for pos, c in enumerate(cols):
                    k = 2 * row - c
                    if 0 <= k <= n and any(a[k]):
                        t = mul(a[k], det(cols[:pos] + cols[pos + 1 :]))
                        acc = [u - v if pos % 2 else u + v for u, v in zip(acc, t)]
                memo[cols] = acc
            return memo[cols]

        minors.append(np.array([float(v) for v in det(tuple(range(1, size + 1)))]))
    return minors


def test_hurwitz_series_matches_exact_minors_in_the_critical_case():
    # Three zero eigenvalues: alpha_7..alpha_9 have no constant term (set to
    # exact zeros here, their computed values being rounding), so the
    # trailing minors have positive valuation and the elimination must
    # divide whole blocks by eps.
    spec = fixtures.random_admissible(seed=1, n=9, m=2, s=3)
    alphas = [a.coeffs.real.copy() for a in char_poly_series(formal_average(spec))]
    for a in alphas[-3:]:
        a[0] = 0.0
    exact = _exact_minors(alphas, DEFAULT_TRUNC)
    minors = hurwitz_series([Series(a) for a in alphas])
    for got, want in zip(minors, exact):
        err = np.max(np.abs(got.coeffs - want)) / np.max(np.abs(want))
        assert err <= 1e-10, err
    # Below the valuation the computed minors are exact zeros, not rounding.
    valuations = [int(np.flatnonzero(want)[0]) for want in exact[-3:]]
    assert valuations == [1, 1, 2]
    for got, v in zip(minors[-3:], valuations):
        assert not got.coeffs[:v].any()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hurwitz_series_matches_exact_integer_minors(data):
    # Small integers are exact in floating point and so are their exact
    # minors; zeroed constant terms force positive valuations.
    n = data.draw(st.integers(1, 7), label="n")
    trunc = data.draw(st.integers(0, 4), label="trunc")
    coeff = st.integers(-4, 4)
    alphas = [
        np.array(data.draw(st.lists(coeff, min_size=trunc + 1, max_size=trunc + 1)), float)
        for _ in range(n)
    ]
    for k in data.draw(st.sets(st.integers(0, n - 1)), label="no constant term"):
        alphas[k][0] = 0.0
    minors = hurwitz_series([Series(a) for a in alphas])
    assert [m.trunc for m in minors] == [trunc] * n
    exact = _exact_minors(alphas, trunc)
    # A minor that vanishes for generic values with the same zero pattern is
    # structurally zero and must come out exactly zero.
    rng = np.random.default_rng(0)
    generic = [np.where(a, rng.integers(1, 10**6, a.shape), 0.0) for a in alphas]
    generic = _exact_minors(generic, trunc)
    scale = max(1.0, *(np.max(np.abs(e)) for e in exact))
    # Relative to each minor's largest coefficient.  Some inputs force
    # pivots whose constant term is small next to their higher orders; the
    # worst of 68,000 random minors of this kind was off by 2.1e-11.
    for k, (got, want, pattern) in enumerate(zip(minors, exact, generic), start=1):
        if not pattern.any():
            assert not got.coeffs.any(), (k, got.coeffs)
        elif want.any():
            err = np.max(np.abs(got.coeffs - want)) / np.max(np.abs(want))
            assert err <= 1e-10, (k, err)
        else:  # zero by cancellation of these particular values
            assert np.max(np.abs(got.coeffs)) <= 1e-10 * scale, (k, got.coeffs)


def test_hurwitz_series_and_classify_reject_empty_input():
    with pytest.raises(ValueError, match="at least one"):
        hurwitz_series([])
    with pytest.raises(ValueError, match="at least one"):
        classify([])


def test_hurwitz_series_retains_no_garbage():
    # Nothing the elimination builds may be left to the cycle collector: in
    # a long run that collector may not come round for a long time, and
    # what it holds piles up.
    rng = np.random.default_rng(6)
    alphas = [Series(rng.standard_normal(7)) for _ in range(10)]
    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        minors = hurwitz_series(alphas)
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
    finally:
        gc.enable()
    assert len(minors) == 10
    assert retained < 50_000, retained


def test_borderline_series_anchor():
    # For these fixtures the averaged series is exactly A0 + B0/omega.  The
    # characteristic coefficients are (1, +/- omega^-2, +/- omega^-2); the
    # second and third Hurwitz minors cancel identically, so the sign test
    # is inconclusive for both the decaying and the growing system.
    for spec, second_sign in (
        (fixtures.borderline_stable(), 1.0),
        (fixtures.borderline_unstable(), -1.0),
    ):
        series = formal_average(spec, trunc=6)
        assert np.allclose(series.coeff(0), spec.A0, atol=1e-14)
        assert np.allclose(series.coeff(1), spec.B0, atol=1e-14)
        for q in range(2, 7):
            assert np.allclose(series.coeff(q), 0.0, atol=1e-13)
        alphas = char_poly_series(series)
        want = {0: (1.0, 0.0, 0.0), 2: (0.0, second_sign, second_sign)}
        for q in range(7):
            row = want.get(q, (0.0, 0.0, 0.0))
            for k in range(3):
                assert alphas[k].coeff(q) == pytest.approx(row[k], abs=1e-12)
        verdict = classify(hurwitz_series(alphas))
        assert verdict.kind == "Inconclusive"
        assert verdict.leaders[0] == (0, pytest.approx(1.0))
        assert verdict.leaders[1] is None
        assert verdict.leaders[2] is None
        assert "D_2" in verdict.detail


def test_simple_systems_classify_by_sign():
    # A0 = diag(0, -1) with B0 = diag(-/+1, 0): the averaged eigenvalues are
    # -1 and -/+ 1/omega, so the verdict is decided at series order 1.
    A0 = np.diag([0.0, -1.0])
    for sign, kind in ((-1.0, "Stable"), (1.0, "Unstable")):
        spec = ProblemSpec(
            n=2, m=0, A0=A0, B0=np.diag([sign, 0.0]), B={}, d={},
        )
        verdict = analyze_stability(spec)
        assert verdict.kind == kind
        assert verdict.leaders[0] == (0, pytest.approx(1.0))
        order, value = verdict.leaders[1]
        assert order == 1
        assert value == pytest.approx(-sign)


def test_classification_priority_and_threshold():
    one = Series((1.0, 0.0, 0.0, 0.0, 0.0))
    vanished = Series((0.0, 1e-15, 0.0, 0.0, 0.0))
    negative = Series((0.0, -2.0, 0.0, 0.0, 0.0))
    # A negative leader dominates a vanished minor.
    verdict = classify([one, vanished, negative])
    assert verdict.kind == "Unstable"
    assert verdict.leaders[1] is None
    assert verdict.leaders[2] == (1, pytest.approx(-2.0))
    # Without the negative minor the vanished one rules.
    assert classify([one, vanished]).kind == "Inconclusive"
    assert classify([one, one]).kind == "Stable"
    # The zero threshold is relative to the largest coefficient; a stray
    # 1e-4 next to a 1e6 entry counts as zero at tolerance 1e-9.
    lopsided = Series((0.0, 1e-4, 1e6, 0.0, 0.0))
    verdict = classify([one, lopsided])
    assert verdict.leaders[1] == (2, pytest.approx(1e6))
    # At a tighter tolerance the same coefficient is a genuine leader.
    verdict = classify([one, lopsided], zero_tol=1e-12)
    assert verdict.leaders[1] == (1, pytest.approx(1e-4))


def test_classify_rejects_complex_minors():
    with pytest.raises(NotRealError):
        classify([Series((1.0, 1e-3j))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_gives_no_verdict_on_non_finite_minors(bad):
    verdict = classify([Series((1.0, 0.0, 0.0)), Series((bad, 2.0, 0.0))])
    assert verdict.kind == "Inconclusive"
    assert "non-finite coefficients in D_2 " in verdict.detail
    assert verdict.leaders == () and verdict.zero_ratios == ()
    assert verdict.imag_ratio is None
    # What ``stability --format json`` prints of it is valid JSON.
    json.dumps(
        [verdict.leaders, verdict.zero_ratios, verdict.imag_ratio,
         verdict.imag_tol, verdict.zero_tol, verdict.detail],
        allow_nan=False,
    )


def test_classify_measures_imaginary_parts_against_each_minor():
    one = Series((1.0, 0.0))
    # 1e5 is rounding noise next to 1e12 and must not count as complex ...
    verdict = classify([one, Series((1e12, 1e5j, -3.0))])
    assert verdict.leaders[1] == (0, pytest.approx(1e12))
    # ... while the same relative size as the 1e-3j above still does.
    with pytest.raises(NotRealError):
        classify([one, Series((1e12, 1e9j))])


def test_large_real_system_classifies_like_its_multipliers():
    # The Hurwitz minors of the n = 13 system reach 1e12 and more, and
    # rounding leaves imaginary parts of order 1e-5 in them: far above 1e-6
    # in absolute terms, yet tiny next to the minors themselves.  At n = 24
    # the minors must also come in polynomial time.
    for n, m, s in ((13, 3, 3), (24, 2, 2)):
        spec = fixtures.random_admissible(seed=1, n=n, m=m, s=s)
        start = time.perf_counter()
        verdict = analyze_stability(spec)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, (n, elapsed)
        prime, scale = normalize(spec)
        omega = 8.0 * constants(prime).K * scale
        assert verdict.kind in ("Stable", "Unstable")
        assert verdict.kind == floquet_verdict(spec, omega).kind


def test_verdict_reports_measured_quantities_next_to_thresholds():
    one = Series((1.0, 0.0, 0.0, 0.0, 0.0))
    lopsided = Series((0.0, 1e-4, 1e6, 0.0, 0.0))
    vanished = Series((0.0, 1e-15, 0.0, 0.0, 0.0))
    verdict = classify([one, lopsided, vanished])
    assert verdict.imag_tol == 1e-6
    assert verdict.imag_ratio == 0.0
    # Per minor: the largest coefficient counted as zero, over the scale.
    assert verdict.zero_ratios == (0.0, pytest.approx(1e-10), pytest.approx(1e-15))
    assert max(verdict.zero_ratios) <= verdict.zero_tol
    complexish = classify([Series((1e12, 1e5j, -3.0))])
    assert complexish.imag_ratio == pytest.approx(1e-7)
    assert complexish.imag_ratio <= complexish.imag_tol


def test_analyze_stability_rejects_complex_specs():
    spec = fixtures.random_admissible(seed=0, n=3, m=1, real_mode=False)
    with pytest.raises(NotRealError):
        analyze_stability(spec)


def test_inexact_characteristic_series_gives_no_verdict():
    # With s = 2 the constant terms of alpha_{n-1} and alpha_n vanish
    # exactly, but rounding leaves 5e-9 to 4e-8 of their largest
    # coefficient at n = 32: read as leaders, they made these stable
    # systems Unstable.  At n = 40 the minors overflowed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stable in (True, False):
            built = problems.constructed([0, 9, 24], 24, 2, 2, stable)
            assert analyze_stability(built).kind == ("Stable" if stable else "Unstable")
        for seed in range(3):
            verdict = analyze_stability(problems.constructed([seed, 9, 32], 32, 2, 2, True))
            assert verdict.kind == "Inconclusive", seed
        verdict = analyze_stability(problems.constructed([0, 9, 40], 40, 2, 2, False))
    assert verdict.kind == "Inconclusive"
    assert verdict.leaders == () and verdict.zero_ratios == ()
    assert "alpha_40" in verdict.detail and "above zero_tol 1e-09" in verdict.detail


def test_rounding_in_real_minors_gives_no_verdict():
    # Real system, real minors in exact arithmetic; at trunc 38 rounding
    # leaves imaginary parts of 4e-6 of their scale, where classify raises.
    spec = load_problem(pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "random_n3_m1.json")
    with pytest.raises(NotRealError):
        classify(hurwitz_series(char_poly_series(formal_average(spec, 38))))
    verdict = analyze_stability(spec, trunc=38)
    assert verdict.kind == "Inconclusive"
    assert verdict.imag_ratio > verdict.imag_tol
    assert f"{verdict.imag_ratio:.3e}" in verdict.detail and "imag_tol 1e-06" in verdict.detail
    assert verdict.leaders == () and verdict.zero_ratios == ()
    assert analyze_stability(spec, trunc=37).kind == "Unstable"



def test_imaginary_part_exit_returns_without_classify(monkeypatch):
    import hfosc.averaging as averaging

    calls = []
    real = averaging.classify

    def counting(minors, zero_tol):
        calls.append(len(minors))
        return real(minors, zero_tol=zero_tol)

    monkeypatch.setattr(averaging, "classify", counting)
    spec = load_problem(pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "random_n3_m1.json")
    assert analyze_stability(spec, trunc=38).kind == "Inconclusive"
    assert calls == []
    assert analyze_stability(spec, trunc=37).kind == "Unstable"
    assert calls == [3]


def test_imaginary_part_exit_on_constructed_minors(monkeypatch):
    # The exit without any rounding pattern: a real system's minors with
    # their imaginary parts set to 1e-3 of their scale.
    import hfosc.averaging as averaging

    real = averaging.hurwitz_series

    def complexish(alphas):
        out = []
        for mnr in real(alphas):
            scale = max(float(np.max(np.abs(mnr.coeffs.real))), 1.0)
            out.append(Series(mnr.coeffs.real + 1e-3j * scale))
        return out

    spec = fixtures.random_admissible(seed=0, n=3, m=1)
    assert analyze_stability(spec).kind in ("Stable", "Unstable")
    monkeypatch.setattr(averaging, "hurwitz_series", complexish)
    verdict = analyze_stability(spec)
    assert verdict.kind == "Inconclusive"
    # The scale of a minor is its largest modulus, which the imaginary
    # parts raise by a factor of 1 + 5e-7 at most.
    assert verdict.imag_ratio == pytest.approx(1e-3, rel=1e-6)
    assert f"{verdict.imag_ratio:.3e}" in verdict.detail and "imag_tol 1e-06" in verdict.detail
    assert verdict.leaders == () and verdict.zero_ratios == ()


@pytest.mark.parametrize("bad", [np.nan, complex(np.inf, np.inf), complex(1.0, np.inf)])
def test_non_finite_minors_keep_precedence_over_imaginary_parts(monkeypatch, bad):
    # D_3 alone would fail the imaginary-part test; the NaN ratio of D_2
    # sends the minors on to classify's non-finite exit instead.
    import hfosc.averaging as averaging

    minors = [Series((1.0, 0.0)), Series((bad, 1.0)), Series((1.0, 1e-3j))]
    monkeypatch.setattr(averaging, "hurwitz_series", lambda alphas: minors)
    verdict = analyze_stability(fixtures.random_admissible(seed=0, n=3, m=1), trunc=1)
    assert verdict.kind == "Inconclusive"
    assert "non-finite coefficients in D_2 " in verdict.detail
    assert verdict.imag_ratio is None and verdict.leaders == ()

def test_averaging_transform_raises_on_overflow():
    spec = fixtures.random_admissible(seed=0, n=3, m=1)
    big = ProblemSpec(
        n=3, m=1, A0=1e150 * spec.A0, B0=1e150 * spec.B0,
        B={l: 1e150 * b for l, b in spec.B.items()}, d={},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="averaging transform"):
            kb_transform(big, 6)


@pytest.mark.parametrize("stable", [True, False])
def test_series_chain_raises_on_overflow(stable):
    # At n = 40 the determinants of the leading Hurwitz blocks overflow,
    # while the minors the truncation keeps of them read as vanishing.
    spec = problems.constructed([0, 9, 40], 40, 2, 2, stable)
    alphas = char_poly_series(formal_average(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="Hurwitz minor"):
            hurwitz_series(alphas)
    # The full pipeline stops before it forms any minor.
    assert analyze_stability(spec).kind == "Inconclusive"


def test_characteristic_series_raises_on_overflow():
    big = Series([1e200 * np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="characteristic series"):
            char_poly_series(big)
