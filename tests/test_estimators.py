import dataclasses

import numpy as np
import pytest

from shrinkcov.baselines import glc_coefficients, lw_coefficients, oas_coefficient
from shrinkcov.datagen import ar_covariance
from shrinkcov.estimators import (
    ols_covariance,
    ols_fit,
    ols_loo_blocks,
    ols_loo_covariances,
    sample_block,
    scm,
)
from shrinkcov.hermitian import (
    frobenius_norm_sq,
    is_psd,
    real_trace_product,
    validate_samples,
)
from shrinkcov.multi_target import mt_oracle_moments, mt_select
from shrinkcov.single_target import select_single_target
from shrinkcov.targets import (
    diagonal_target,
    knowledge_aided_target,
    scaled_identity_target,
    toeplitz_average_target,
)

from oracles import (
    loo_scm_naive,
    ols_loo_cov_refit,
    ols_refit,
    random_samples,
    scm_leave_one_out,
    scm_naive,
)


# ---------------------------------------------------------------- sample cov

def test_scm_single_sample_frozen():
    y = np.array([[1.0], [0.0]])
    assert np.allclose(scm(y), [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_scm_two_unit_samples_frozen():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(scm(y), 0.5 * np.eye(2), atol=1e-15)


def test_scm_matches_naive_accumulation():
    rng = np.random.default_rng(11)
    for cplx in (False, True):
        y = random_samples(6, 17, rng, cplx)
        got = scm(y)
        assert np.allclose(got, scm_naive(y), atol=1e-13)
        assert np.allclose(got, got.conj().T, atol=1e-14)
        assert is_psd(got)


def test_scm_empty_raises():
    with pytest.raises(ValueError):
        scm(np.zeros((3, 0)))


def _sample_results(y):
    """Every estimate and selection of samples ``y`` as a flat list:
    scm, the three targets of a raw R, both facades on owned and on raw
    targets by every method, the three baselines and the knowledge-aided
    target."""
    n = y.shape[0]
    truth = ar_covariance(n, 0.5)
    out = [scm(y)]
    raw = [f(scm(y)) for f in (scaled_identity_target, diagonal_target,
                               toeplitz_average_target)]
    out += raw
    for owned in (True, False):
        block = sample_block(y)
        samples = block if owned else y
        targets = [f(block) for f in (scaled_identity_target, diagonal_target,
                                      toeplitz_average_target)] if owned else raw
        for method in ("cv", "cv_constrained", "oracle", "oracle_constrained"):
            out += dataclasses.astuple(select_single_target(
                method, targets[0], samples=samples, truth=truth))
            out += dataclasses.astuple(mt_select(method, targets,
                                                 samples=samples, truth=truth))
    out += [dataclasses.astuple(f(y)) for f in (lw_coefficients,
                                                oas_coefficient)]
    out += dataclasses.astuple(glc_coefficients(y, raw[2]))
    out.append(knowledge_aided_target(y))
    return out


@pytest.mark.parametrize("kind", ["int64", "int8", "uint8", "bool"])
def test_integer_and_bool_samples_give_the_results_of_their_float_cast(kind):
    rng = np.random.default_rng(5)
    y = (rng.integers(-3, 4, (4, 9)) if kind == "int64"
         else rng.integers(-3, 4, (4, 9)).astype(kind) if kind == "int8"
         else rng.integers(0, 6, (4, 9)).astype(kind) if kind == "uint8"
         else rng.integers(0, 2, (4, 9)).astype(bool))
    y[:, 0] = 1  # no zero row
    assert validate_samples(y).dtype == np.float64
    np.testing.assert_equal(_sample_results(y),
                            _sample_results(y.astype(np.float64)))


def test_inexact_samples_are_validated_without_a_copy():
    # 64-bit samples come back as they are, 32-bit ones as their 64-bit cast
    for dtype, wide in ((np.float32, np.float64), (np.float64, np.float64),
                        (np.complex64, np.complex128),
                        (np.complex128, np.complex128)):
        y = np.ones((3, 4), dtype)
        got = validate_samples(y)
        assert got.dtype == wide and np.array_equal(got, y)
        assert (got is y) == (dtype == wide)


def test_diagonal_target_of_an_integer_covariance_is_float():
    r = np.array([[2, 1], [1, 3]])
    got = diagonal_target(r)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.diag([2.0, 3.0]))
    assert scaled_identity_target(r).dtype == np.float64
    assert toeplitz_average_target(r).dtype == np.float64


@pytest.mark.parametrize("kind", ["int64", "bool"])
def test_integer_and_bool_matrices_are_reduced_in_float64(kind):
    # in int64, (2^32)^2 wraps to 0; a bool einsum ORs its products
    m = (2 ** 32 * np.eye(2, dtype=np.int64) if kind == "int64"
         else np.eye(3, dtype=bool))
    f = m.astype(np.float64)
    assert real_trace_product(m, m) == real_trace_product(f, f) > 1.0
    assert frobenius_norm_sq(m) == frobenius_norm_sq(f)
    np.testing.assert_equal(dataclasses.astuple(mt_oracle_moments(m, [m], m)),
                            dataclasses.astuple(mt_oracle_moments(f, [f], f)))


@pytest.mark.parametrize("kind", ["int64", "bool"])
def test_targets_of_integer_and_bool_covariances_are_their_float_casts(kind):
    # in int64, the trace and band sums of 2^62 I (N = 4) wrap to 0
    r = (2 ** 62 * np.eye(4, dtype=np.int64) if kind == "int64"
         else np.eye(4, dtype=bool))
    f = r.astype(np.float64)
    for target in (scaled_identity_target, diagonal_target,
                   toeplitz_average_target):
        got = target(r)
        assert got.dtype == np.float64
        assert np.array_equal(got, target(f))
    assert np.array_equal(toeplitz_average_target(r), f)


def test_convex_trace_guard_sums_an_integer_target_in_float64():
    # tr R = ||Y||_F^2 / T = 4 * 2^62 = 2^64, which the integer target
    # keeps; summed in int64, its trace wraps to 0 and the guard rejects it
    y = 2.0 ** 31 * np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0],
                              [-1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    t0 = 2 ** 62 * np.eye(4, dtype=np.int64)
    f0 = t0.astype(np.float64)
    got = mt_select("cv_constrained", [t0], samples=y)
    want = mt_select("cv_constrained", [f0], samples=y)
    assert (got.rho, got.taus.tolist(), got.objective) == \
        (want.rho, want.taus.tolist(), want.objective)
    assert (select_single_target("cv_constrained", t0, samples=y)
            == select_single_target("cv_constrained", f0, samples=y))


def test_complex64_samples_give_an_scm_the_package_accepts():
    # scm of the complex64 samples themselves is not Hermitian to 1e-10
    # (deviation 4.5e-8), and the targets rejected the package's own R
    rng = np.random.default_rng(0)
    y = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    y32 = y.astype(np.complex64)
    r = scm(y32)
    assert r.dtype == np.complex128
    assert np.array_equal(r, scm(y32.astype(np.complex128)))
    for target in (scaled_identity_target, diagonal_target,
                   toeplitz_average_target):
        assert np.array_equal(target(r), target(sample_block(y32)))
    got = mt_select("cv", [scaled_identity_target(r)], samples=y32)
    want = mt_select("cv", [scaled_identity_target(r)],
                     samples=y32.astype(np.complex128))
    assert (got.rho, got.taus.tolist()) == (want.rho, want.taus.tolist())


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.complex64])
def test_targets_of_a_narrow_covariance_are_its_64_bit_casts(dtype):
    # a float32 R's band means were summed in float32, and its scaled
    # identity took a float32 trace
    rng = np.random.default_rng(1)
    y = random_samples(9, 4, rng, np.dtype(dtype).kind == "c")
    r = scm(y).astype(dtype)
    wide = r.astype(np.complex128 if np.iscomplexobj(r) else np.float64)
    for target in (scaled_identity_target, diagonal_target,
                   toeplitz_average_target):
        got = target(r)
        assert got.dtype == np.float64 and np.array_equal(got, target(wide))


def test_scm_leave_one_out_frozen():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    r = scm(y)
    # dropping the first sample leaves only e2
    assert np.allclose(scm_leave_one_out(r, y, 0),
                       [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)


def test_scm_leave_one_out_matches_refit():
    rng = np.random.default_rng(12)
    for cplx in (False, True):
        y = random_samples(5, 9, rng, cplx)
        r = scm(y)
        for t in range(y.shape[1]):
            got = scm_leave_one_out(r, y, t)
            want = loo_scm_naive(y, t)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_scm_leave_one_out_guards():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    r = scm(y)
    with pytest.raises(ValueError):
        scm_leave_one_out(r, y, 2)
    with pytest.raises(ValueError):
        scm_leave_one_out(r, y, -1)
    with pytest.raises(ValueError):
        scm_leave_one_out(scm(y[:, :1]), y[:, :1], 0)


# ------------------------------------------------------------------ OLS path

def test_ols_fit_noiseless_frozen():
    x = np.eye(2)
    y = np.array([[1.0, 0.0], [0.0, 2.0]])
    fit = ols_fit(x, y)
    assert np.allclose(fit.coef, np.diag([1.0, 2.0]), atol=1e-14)
    assert fit.noise_var == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(ols_covariance(fit), np.diag([1.0, 4.0]), atol=1e-13)


def test_ols_fit_noise_only_frozen():
    x = np.array([[1.0, 1.0]])
    y = np.array([[1.0, -1.0]])
    fit = ols_fit(x, y)
    assert np.allclose(fit.coef, [[0.0]], atol=1e-14)
    assert fit.noise_var == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(ols_covariance(fit), [[1.0]], atol=1e-14)


def test_ols_fit_matches_lstsq_oracle():
    rng = np.random.default_rng(13)
    for cplx in (False, True):
        for _ in range(8):
            m = int(rng.integers(1, 5))
            t = int(rng.integers(m + 2, m + 12))
            n = int(rng.integers(1, 7))
            x = random_samples(m, t, rng, cplx)
            y = random_samples(n, t, rng, cplx)
            fit = ols_fit(x, y)
            h, sigma2, cov = ols_refit(x, y)
            assert np.allclose(fit.coef, h, rtol=1e-10, atol=1e-10)
            assert fit.noise_var == pytest.approx(sigma2, rel=1e-10, abs=1e-12)
            assert np.allclose(ols_covariance(fit), cov, rtol=1e-10, atol=1e-10)
            # leverage = diag(X^H (XX^H)^-1 X), recomputed densely
            g = x @ x.conj().T
            lev = np.real(np.diag(x.conj().T @ np.linalg.solve(g, x)))
            assert np.allclose(fit.leverage, lev, rtol=1e-10, atol=1e-12)


def test_ols_fit_noiseless_recovery():
    rng = np.random.default_rng(14)
    h = random_samples(4, 3, rng, True)
    x = random_samples(3, 12, rng, True)
    fit = ols_fit(x, h @ x)
    assert np.allclose(fit.coef, h, rtol=1e-10, atol=1e-10)
    assert fit.noise_var == pytest.approx(0.0, abs=1e-10)


def test_ols_gram_guard():
    x = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])  # rank deficient
    y = np.ones((2, 3))
    with pytest.raises(ValueError):
        ols_fit(x, y)


def test_ols_gram_guard_is_the_condition_rule_without_svd(monkeypatch):
    # the Gram matrix's eigenvalues give its 2-norm condition number
    svd = []
    real = np.linalg._linalg.svd
    monkeypatch.setattr(np.linalg._linalg, "svd",
                        lambda *a, **k: svd.append(a) or real(*a, **k))
    y = np.ones((2, 3))
    ols_fit(np.array([[1.0, 0.0, 0.0], [0.0, 1e-5, 0.0]]), y)  # cond 1e10
    for x in (np.zeros((2, 3)),                                # zero
              np.array([[1.0, 0.0, 0.0], [0.0, 1e-7, 0.0]]),    # cond 1e14
              np.array([[1.0, 2.0, 3.0], [1.0j, 2.0j, 3.0j]])):  # rank one
        with pytest.raises(ValueError, match="ill-conditioned"):
            ols_fit(x, y)
    assert not svd


def test_ols_leverage_guard_is_in_loo_not_fit():
    x = np.eye(2)
    y = np.diag([1.0, 2.0])
    fit = ols_fit(x, y)  # allowed: Gram matrix is fine
    with pytest.raises(ValueError):
        ols_loo_blocks(fit)  # every leverage is exactly 1


def test_ols_loo_scalar_frozen():
    # X = [1,1,1], Y = [0,3,3]: coef 2, sigma2 2, R = 6.
    # Dropping t=0: coef 3, sigma2 0, R = 9; the rank-one terms must agree.
    x = np.array([[1.0, 1.0, 1.0]])
    y = np.array([[0.0, 3.0, 3.0]])
    fit = ols_fit(x, y)
    assert np.allclose(fit.coef, [[2.0]], atol=1e-14)
    assert fit.noise_var == pytest.approx(2.0, rel=1e-14)
    r = ols_covariance(fit)
    assert np.allclose(r, [[6.0]], atol=1e-13)
    e, f, delta, phi, psi = ols_loo_blocks(fit)  # column 0 drops t=0
    assert e[0, 0] == pytest.approx(-2.0)
    assert f[0, 0] == pytest.approx(0.5)
    assert delta[0] == pytest.approx(2.0)
    assert phi[0, 0] == pytest.approx(1.0)
    assert psi[0, 0] == pytest.approx(1.5)
    assert np.allclose(ols_loo_covariances(x, y)[0], [[9.0]], atol=1e-12)
    assert np.allclose(ols_loo_cov_refit(x, y, 0), [[9.0]], atol=1e-12)


def test_ols_loo_covariances_match_explicit_refits():
    rng = np.random.default_rng(15)
    for cplx in (False, True):
        for _ in range(6):
            m = int(rng.integers(1, 4))
            t = int(rng.integers(m + 3, m + 10))
            n = int(rng.integers(1, 6))
            x = random_samples(m, t, rng, cplx)
            y = random_samples(n, t, rng, cplx)
            covs = ols_loo_covariances(x, y)
            for i in range(t):
                want = ols_loo_cov_refit(x, y, i)
                scale = max(1.0, np.linalg.norm(want))
                assert np.linalg.norm(covs[i] - want) <= 1e-9 * scale
