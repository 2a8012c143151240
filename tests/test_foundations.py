import numpy as np
import pytest

from shrinkcov.hermitian import (
    frobenius_norm_sq,
    hermitize,
    is_psd,
    outer_product,
    real_trace_product,
    require_hermitian,
    validate_samples,
)

from oracles import random_hermitian, random_psd, trace_product_dense


def test_real_trace_product_frozen():
    a = np.array([[1.0, 1j], [-1j, 2.0]])
    b = np.array([[3.0, 1 - 1j], [1 + 1j, 4.0]])
    # tr(AB) = 3 + (i)(1+i) + (-i)(1-i) + 8 = 9, purely real
    assert real_trace_product(a, b) == pytest.approx(9.0, abs=1e-14)
    assert real_trace_product(b, a) == pytest.approx(9.0, abs=1e-14)


def test_real_trace_product_matches_dense_oracle():
    rng = np.random.default_rng(71)
    for k in range(25):
        n = int(rng.integers(1, 9))
        cplx = bool(k % 2)
        a = random_hermitian(n, rng, cplx)
        b = random_hermitian(n, rng, cplx)
        got = real_trace_product(a, b)
        want = trace_product_dense(a, b)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_real_trace_product_rejects_mismatched_shapes():
    # elementwise a * b.T would broadcast these into a finite wrong number
    with pytest.raises(ValueError, match=r"\(3, 3\).*\(1, 1\)"):
        real_trace_product(np.eye(3), np.array([[2.0]]))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        real_trace_product(np.ones((2, 3)), np.ones((2, 3)))
    assert real_trace_product(np.ones((2, 3)), np.ones((3, 2))) == 6.0


def test_real_trace_product_psd_pairs_nonnegative():
    rng = np.random.default_rng(72)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        a = random_psd(n, rng)
        b = random_psd(n, rng)
        assert real_trace_product(a, b) >= -1e-12


def test_frobenius_norm_sq_frozen():
    a = np.array([[1.0, 1 + 1j], [1 - 1j, 0.0]])
    assert frobenius_norm_sq(a) == pytest.approx(5.0, abs=1e-14)


def test_frobenius_norm_sq_consistency():
    rng = np.random.default_rng(73)
    a = random_hermitian(6, rng)
    assert frobenius_norm_sq(a) == pytest.approx(np.linalg.norm(a) ** 2,
                                                 rel=1e-13)
    # for hermitian a, ||a||_F^2 = Re tr(a a)
    assert frobenius_norm_sq(a) == pytest.approx(trace_product_dense(a, a),
                                                 rel=1e-13)


def test_outer_product_frozen():
    y = np.array([1 + 1j, 2.0])
    want = np.array([[2.0, 2 + 2j], [2 - 2j, 4.0]])
    got = outer_product(y)
    assert np.allclose(got, want, atol=1e-14)
    assert np.allclose(got, got.conj().T, atol=1e-14)
    assert np.linalg.matrix_rank(got) == 1
    assert is_psd(got)


def test_is_psd():
    assert is_psd(np.eye(3))
    assert not is_psd(np.diag([1.0, -1e-6]))
    # tiny negative eigenvalue within tolerance still counts as psd
    assert is_psd(np.diag([1.0, -1e-12]))
    rng = np.random.default_rng(74)
    for _ in range(10):
        assert is_psd(random_psd(5, rng))
        assert not is_psd(random_hermitian(5, rng) - 3 * np.eye(5))


def test_hermitize_and_validation():
    rng = np.random.default_rng(75)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitize(a)
    assert np.allclose(h, h.conj().T, atol=1e-15)
    require_hermitian(h)
    with pytest.raises(ValueError):
        require_hermitian(a)
    # tolerated asymmetry just below the threshold
    require_hermitian(h + 1e-14 * 1j * np.eye(4))


def test_validate_samples():
    y = np.zeros((3, 4))
    validate_samples(y)
    with pytest.raises(ValueError):
        validate_samples(np.zeros(3))
    with pytest.raises(ValueError):
        validate_samples(np.zeros((3, 1)), min_count=2)
    bad = y.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        validate_samples(bad)
