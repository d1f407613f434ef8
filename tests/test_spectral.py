import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfosc import fixtures
from hfosc.errors import DegenerateError, NoKernelError
from hfosc.model import ProblemSpec, TrigPoly, _integrated
from hfosc.spectral import averaged_matrix, compute_kernel_data


def _doctored(spec, kd):
    """Rank-one update of B0 that zeroes the first row of the solvability
    matrix while leaving A0 (and hence the kernel geometry) untouched."""
    z1 = kd.left_kernel[:, :1]
    B0 = spec.B0 - z1 @ (z1.conj().T @ kd.averaged)
    return ProblemSpec(
        n=spec.n, m=spec.m, A0=spec.A0, B0=B0, B=dict(spec.B), d=dict(spec.d),
        real_mode=False,
    )


def test_averaged_matrix_matches_quadrature():
    # A1 - B0 is the mean of B_osc(tau) @ P(tau) with P the zero-mean
    # antiderivative of the oscillating part; an equispaced grid integrates
    # trigonometric polynomials of low degree exactly.
    for seed in range(6):
        spec = fixtures.random_admissible(seed=seed, n=3, m=2)
        osc = TrigPoly.from_coeffs(spec.B, (spec.n, spec.n))
        prim = TrigPoly(_integrated(osc.data))
        tau = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        acc = np.zeros((spec.n, spec.n), dtype=complex)
        for t in tau:
            acc += osc(t) @ prim(t)
        quad = spec.B0 + acc / len(tau)
        assert np.allclose(averaged_matrix(spec), quad, atol=1e-12)


def test_averaged_matrix_without_oscillation_is_b0():
    spec = fixtures.borderline_stable()
    assert np.array_equal(averaged_matrix(spec), spec.B0.astype(complex))


def test_borderline_kernel_geometry():
    spec = fixtures.borderline_stable()
    kd = compute_kernel_data(spec)
    assert kd.dim == 2
    assert np.allclose(kd.sigma, [np.sqrt(2.0), 0.0, 0.0], atol=1e-14)
    # Basis columns are orthonormal and actually annihilated.
    assert np.allclose(kd.kernel.conj().T @ kd.kernel, np.eye(2), atol=1e-14)
    assert np.allclose(kd.left_kernel.conj().T @ kd.left_kernel, np.eye(2), atol=1e-14)
    assert np.allclose(spec.A0 @ kd.kernel, 0.0, atol=1e-14)
    assert np.allclose(kd.left_kernel.conj().T @ spec.A0, 0.0, atol=1e-14)
    # The spans are basis-independent: compare orthogonal projectors against
    # the hand-computed null spaces span{e1, e2} and span{(1,0,-1), (0,1,0)}.
    proj = kd.kernel @ kd.kernel.conj().T
    assert np.allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-14)
    left_proj = kd.left_kernel @ kd.left_kernel.conj().T
    expected = np.array([[0.5, 0.0, -0.5], [0.0, 1.0, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(left_proj, expected, atol=1e-14)


def test_solvability_singular_values_match_hand_bases():
    # Singular values of the solvability matrix do not depend on the choice
    # of orthonormal kernel bases, so they must agree with the matrix built
    # from explicit hand bases.
    spec = fixtures.borderline_stable()
    kd = compute_kernel_data(spec)
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]) / np.array([np.sqrt(2.0), 1.0])
    hand = z.conj().T @ spec.B0 @ a
    got = np.linalg.svd(kd.solvability, compute_uv=False)
    want = np.linalg.svd(hand, compute_uv=False)
    assert np.allclose(got, want, atol=1e-13)
    assert kd.solvability_sigma_min == pytest.approx(want[-1], rel=1e-12)


def test_full_kernel_when_stationary_matrix_vanishes():
    spec = ProblemSpec(
        n=3, m=0,
        A0=np.zeros((3, 3)),
        B0=np.diag([-1.0, -2.0, -3.0]),
        B={}, d={0: np.array([1.0, 0.0, 0.0])},
    )
    kd = compute_kernel_data(spec)
    assert kd.dim == 3
    assert np.allclose(kd.kernel @ kd.kernel.conj().T, np.eye(3), atol=1e-14)
    assert np.array_equal(kd.restricted_inverse, np.zeros((3, 3)))
    assert np.array_equal(kd.sigma, np.zeros(3))
    # With unitary bases the solvability matrix is A1 up to unitary factors.
    got = np.linalg.svd(kd.solvability, compute_uv=False)
    assert np.allclose(got, [3.0, 2.0, 1.0], atol=1e-14)


def test_restricted_inverse_contract():
    rng = np.random.default_rng(11)
    for seed in range(8):
        spec = fixtures.random_admissible(seed=seed, n=4, m=1, s=2)
        kd = compute_kernel_data(spec)
        n = spec.n
        W = kd.restricted_inverse
        range_proj = np.eye(n) - kd.left_kernel @ kd.left_kernel.conj().T
        coker_proj = np.eye(n) - kd.kernel @ kd.kernel.conj().T
        assert np.allclose(spec.A0 @ W, range_proj, atol=1e-10)
        assert np.allclose(W @ spec.A0, coker_proj, atol=1e-10)
        assert np.allclose(W @ kd.left_kernel, 0.0, atol=1e-10)
        assert np.allclose(kd.kernel.conj().T @ W, 0.0, atol=1e-10)
        # W g is the unique preimage of g orthogonal to the kernel.
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = range_proj @ y
        x = W @ g
        assert np.allclose(spec.A0 @ x, g, atol=1e-10)
        assert np.allclose(kd.kernel.conj().T @ x, 0.0, atol=1e-10)


def test_solvability_entries_match_direct_inner_products():
    spec = fixtures.random_admissible(seed=2, n=4, m=2, s=2)
    kd = compute_kernel_data(spec)
    A1 = averaged_matrix(spec)
    for k in range(kd.dim):
        for j in range(kd.dim):
            want = np.vdot(kd.left_kernel[:, k], A1 @ kd.kernel[:, j])
            assert kd.solvability[k, j] == pytest.approx(want, abs=1e-14)


def test_kernel_bases_are_orthonormal():
    # So that basis^H @ v gives the coefficients of v's orthogonal projection.
    spec = fixtures.random_admissible(seed=5, n=3, m=1)
    kd = compute_kernel_data(spec)
    for basis in (kd.kernel, kd.left_kernel):
        assert np.allclose(basis.conj().T @ basis, np.eye(kd.dim), rtol=0, atol=1e-14)


def test_nonsingular_stationary_matrix_is_rejected():
    with pytest.raises(NoKernelError):
        compute_kernel_data(fixtures.scalar_decay())


def test_degenerate_fixture_is_rejected():
    with pytest.raises(DegenerateError):
        compute_kernel_data(fixtures.degenerate_example())


def test_doctored_instances_are_rejected():
    # Killing one row of the solvability matrix with a rank-one B0 update
    # must flip any admissible instance to degenerate.
    for seed in range(5):
        spec = fixtures.random_admissible(seed=seed, n=3, m=1)
        kd = compute_kernel_data(spec)
        with pytest.raises(DegenerateError):
            compute_kernel_data(_doctored(spec, kd))


def test_solvability_margin_matches_least_squares_residual():
    # Independent route to the same margin: the part of A1 a_j that cannot
    # be matched by the range of A0 is exactly the solvability content, so
    # the residual matrix of a least-squares solve has the same nonzero
    # singular values.
    for seed in range(5):
        spec = fixtures.random_admissible(seed=seed, n=4, m=1, s=2)
        kd = compute_kernel_data(spec)
        target = kd.averaged @ kd.kernel
        sol = np.linalg.lstsq(spec.A0.astype(complex), -target, rcond=None)[0]
        residual = target + spec.A0 @ sol
        sv = np.linalg.svd(residual, compute_uv=False)[: kd.dim]
        want = np.linalg.svd(kd.solvability, compute_uv=False)
        assert np.allclose(np.sort(sv), np.sort(want), atol=1e-9)


def test_rank_tolerance_is_relative_and_adjustable():
    A0 = np.diag([-1.0, 1e-6])
    B0 = np.diag([0.0, 1.0])
    spec = ProblemSpec(n=2, m=0, A0=A0, B0=B0, B={}, d={})
    with pytest.raises(NoKernelError):
        compute_kernel_data(spec)
    kd = compute_kernel_data(spec, rank_tol=1e-4)
    assert kd.dim == 1
    assert np.allclose(np.abs(kd.kernel[:, 0]), [0.0, 1.0], atol=1e-12)
    assert kd.solvability_sigma_min == pytest.approx(1.0, rel=1e-9)


def test_restricted_inverse_is_the_truncated_pseudo_inverse_to_the_bit():
    # W scales the columns of Vh^H by 1/sigma in place of a product with
    # diag(1/sigma), whose other terms are exact zeros.
    for m in range(5):
        for real in (True, False):
            for seed in range(4):
                spec = fixtures.random_admissible(
                    seed=[seed, m, 3], n=2 + 3 * m, m=m, s=min(1 + seed, 2 + 3 * m), real_mode=real
                )
                kd = compute_kernel_data(spec)
                U, sigma, Vh = np.linalg.svd(spec.A0)
                rank = spec.n - kd.dim
                inv_sigma = np.zeros(spec.n)
                inv_sigma[:rank] = 1.0 / sigma[:rank]
                want = Vh.conj().T @ np.diag(inv_sigma) @ U.conj().T
                assert np.array_equal(kd.restricted_inverse, want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_geometry_holds_on_random_admissible_specs(data):
    n = data.draw(st.integers(2, 16), label="n")
    spec = fixtures.random_admissible(
        seed=data.draw(st.integers(0, 10**6), label="seed"),
        n=n,
        m=data.draw(st.integers(0, 3), label="m"),
        s=data.draw(st.integers(1, min(3, n)), label="s"),
        real_mode=data.draw(st.booleans(), label="real_mode"),
    )
    kd = compute_kernel_data(spec)
    K, Z, W, A0 = kd.kernel, kd.left_kernel, kd.restricted_inverse, spec.A0
    # Orthonormal bases of ker(A0) and ker(A0^H).
    for basis in (K, Z):
        assert np.abs(basis.conj().T @ basis - np.eye(kd.dim)).max() <= 1e-12
    assert np.linalg.norm(A0 @ K, 2) <= 1e-9 * kd.sigma[0]
    assert np.linalg.norm(A0.conj().T @ Z, 2) <= 1e-9 * kd.sigma[0]
    # W inverts A0 on its range and maps into the complement of the kernel.
    P = np.eye(n) - Z @ Z.conj().T
    assert np.abs(A0 @ W @ P - P).max() <= 1e-9
    assert np.abs(K.conj().T @ W).max() <= 1e-9
