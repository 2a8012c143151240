import numpy as np
import pytest

from shrinkcov.datagen import RngStream, ar_covariance, gaussian_samples
from shrinkcov.estimators import scm
from shrinkcov.hermitian import frobenius_norm_sq, is_psd
from shrinkcov.targets import (
    diagonal_target,
    knowledge_aided_target,
    scaled_identity_target,
    toeplitz_average_target,
)

from shrinkcov.single_target import (
    loocv_moments_general,
    shrink,
    solve_quadratic_2d,
)

from oracles import (
    random_psd,
    random_samples,
    scm_leave_one_out,
    toeplitz_first_row_loop,
)


def toeplitz_band_oracle(r):
    """Literal band-matrix construction of the Toeplitz average."""
    n = r.shape[0]
    out = (np.trace(r).real / n) * np.eye(n)
    for i in range(1, n):
        c = np.zeros((n, n))
        for j in range(n - i):
            c[j, j + i] = 1.0
            c[j + i, j] = 1.0
        coeff = np.trace(c @ r).real / (2 * (n - i))
        out = out + coeff * c
    return out


def test_scaled_identity_frozen():
    r = np.diag([1.0, 3.0])
    t0 = scaled_identity_target(r)
    assert np.allclose(t0, 2.0 * np.eye(2), atol=1e-14)
    assert np.trace(t0) == pytest.approx(np.trace(r))


def test_diagonal_target_frozen():
    r = np.array([[1.0, 0.5], [0.5, 2.0]])
    assert np.allclose(diagonal_target(r), np.diag([1.0, 2.0]), atol=1e-14)
    rc = np.array([[1.0, 1j], [-1j, 2.0]])
    d = diagonal_target(rc)
    assert np.allclose(d, np.diag([1.0, 2.0]), atol=1e-14)
    assert np.isrealobj(d)


def test_diagonal_target_negative_guard():
    with pytest.raises(ValueError):
        diagonal_target(np.diag([1.0, -1e-6]))
    # dust-level negatives are clipped, not fatal
    d = diagonal_target(np.diag([1.0, -1e-13]))
    assert d[1, 1] == 0.0


@pytest.mark.parametrize("c", [1e-8, 1e-6, 1.0, 1e6])
def test_psd_and_sign_checks_are_scale_free(c):
    # the decision for c * A is the decision for A: a negative eigenvalue
    # or diagonal entry of 1e-6 relative is rejected at every scale, and
    # rounding dust of 1e-13 relative is accepted
    bad, dust = c * np.diag([1.0, -1e-6]), c * np.diag([1.0, -1e-13])
    with pytest.raises(ValueError, match="positive semidefinite"):
        gaussian_samples(bad, 3, np.random.default_rng(1))
    with pytest.raises(ValueError, match="nonnegative diagonal"):
        diagonal_target(bad)
    y = gaussian_samples(dust, 3, np.random.default_rng(1))
    assert np.all(y[1] == 0.0)
    assert np.array_equal(diagonal_target(dust), np.diag([c, 0.0]))


def test_toeplitz_average_frozen_real():
    r = np.array([[1.0, 0.4], [0.4, 3.0]])
    assert np.allclose(toeplitz_average_target(r),
                       [[2.0, 0.4], [0.4, 2.0]], atol=1e-14)


def test_toeplitz_average_frozen_complex():
    r = np.array([[2.0, 1j], [-1j, 2.0]])
    # off-diagonal band mean is Re(i) = 0
    assert np.allclose(toeplitz_average_target(r), 2.0 * np.eye(2), atol=1e-14)


def test_toeplitz_average_matches_band_oracle():
    rng = np.random.default_rng(21)
    for cplx in (False, True):
        for _ in range(6):
            n = int(rng.integers(2, 9))
            r = random_psd(n, rng, cplx, rank=2 * n)
            got = toeplitz_average_target(r)
            want = toeplitz_band_oracle(r)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
            assert np.trace(got).real == pytest.approx(np.trace(r).real,
                                                       rel=1e-12)
            assert is_psd(got, tol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 50, 100, 1000])
def test_toeplitz_first_row_equals_the_mean_loop(n):
    rng = np.random.default_rng(23)
    for cplx in (False, True):
        r = random_psd(n, rng, cplx, rank=40)
        got = toeplitz_average_target(r)
        assert np.array_equal(got[0], toeplitz_first_row_loop(r))


def test_scaled_identity_rejects_non_finite_input():
    r = np.eye(3)
    r[2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        scaled_identity_target(r)


@pytest.mark.parametrize("target", [scaled_identity_target, diagonal_target,
                                    toeplitz_average_target])
def test_targets_reject_empty_raw_matrix(target):
    with pytest.raises(ValueError, match="has no rows"):
        target(np.zeros((0, 0)))


def test_targets_preserve_trace_and_psd():
    rng = np.random.default_rng(22)
    sigma = ar_covariance(12, 0.6)
    y = gaussian_samples(sigma, 30, rng)
    r = scm(y)
    for t0 in (scaled_identity_target(r), diagonal_target(r),
               toeplitz_average_target(r)):
        assert np.trace(t0).real == pytest.approx(np.trace(r).real, rel=1e-10)
        assert is_psd(t0, tol=1e-8)


def test_toeplitz_target_of_a_psd_matrix_need_not_be_psd():
    # band k's sum over its length N - k: for R = y y^T, y = (1, 0, -1),
    # the bands are (2/3, 0, -1) and the target has the eigenvalue -1/3
    r = scm(np.array([[1.0], [0.0], [-1.0]]))
    assert is_psd(r)
    t0 = toeplitz_average_target(r)
    assert np.array_equal(t0, t0.conj().T)
    assert np.trace(t0) == pytest.approx(np.trace(r), rel=1e-15)
    assert not is_psd(t0)
    assert np.linalg.eigvalsh(t0)[0] == pytest.approx(-1.0 / 3.0, rel=1e-12)


def test_knowledge_aided_two_samples_finite_psd():
    y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    t0 = knowledge_aided_target(y)
    assert np.all(np.isfinite(t0))
    assert is_psd(t0)
    # constrained combination preserves the sample covariance trace
    assert np.trace(t0).real == pytest.approx(np.trace(scm(y)).real, rel=1e-10)


@pytest.mark.parametrize("complex_field", (False, True))
@pytest.mark.parametrize("seed", range(5))
def test_knowledge_aided_two_samples_match_explicit_folds(complex_field, seed):
    # the closed form is exact at T = 2: the target built from the two
    # explicit leave-one-out covariances is the same to rounding
    y = random_samples(6, 2, np.random.default_rng(seed), complex_field)
    r = scm(y)
    t0 = scaled_identity_target(r)
    loo = [scm_leave_one_out(r, y, i) for i in range(2)]
    sol = solve_quadratic_2d(loocv_moments_general(loo, y, t0),
                             constrained=True)
    want = shrink(r, t0, sol)
    got = knowledge_aided_target(y)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_knowledge_aided_target_improves_over_scm_on_average():
    # Shrinking toward a target learned from independent past data should
    # beat the raw sample covariance on average at these sizes.
    from shrinkcov.single_target import scm_solution_unconstrained, shrink

    sigma = ar_covariance(20, 0.5)
    err_ka = 0.0
    err_scm = 0.0
    for seed in range(100):
        gen = RngStream(900 + seed).generator()
        past = gaussian_samples(sigma, 40, gen)
        cur = gaussian_samples(sigma, 40, gen)
        t0 = knowledge_aided_target(past)
        r = scm(cur)
        sol = scm_solution_unconstrained(cur, t0)
        err_ka += frobenius_norm_sq(shrink(r, t0, sol) - sigma)
        err_scm += frobenius_norm_sq(r - sigma)
    assert err_ka < err_scm
