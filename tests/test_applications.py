import numpy as np
import pytest

from shrinkcov.applications import (
    lmmse_detect,
    ls_to_channel_cov,
    mmse_channel_estimate,
    mvdr_weights,
    mvdr_weights_pseudo,
    output_sinr,
    spectral_channel_estimate,
    ula_steering,
)
from shrinkcov.hermitian import is_psd

from oracles import dense_channel_estimate, random_psd, random_samples

BAD_PILOT_POWERS = (-1.0, 0.0, np.nan, np.inf, -np.inf)


def test_ula_steering_frozen():
    assert np.allclose(ula_steering(0.0, 5), np.ones(5), atol=1e-15)
    got = ula_steering(np.pi / 6, 4)  # sin = 1/2, phase -pi n / 2
    want = np.array([1.0, -1j, -1.0, 1j])
    assert np.allclose(got, want, atol=1e-14)
    assert np.allclose(np.abs(got), 1.0, atol=1e-15)


def test_mvdr_identity_cov_frozen():
    s = ula_steering(0.2, 6)
    w = mvdr_weights(np.eye(6), s)
    assert np.allclose(w, s / 6.0, atol=1e-14)


def test_mvdr_distortionless_and_minimal_variance():
    rng = np.random.default_rng(91)
    for _ in range(10):
        n = 8
        cov = random_psd(n, rng) + 0.1 * np.eye(n)
        s = ula_steering(float(rng.uniform(-1.2, 1.2)), n)
        w = mvdr_weights(cov, s)
        assert np.vdot(s, w).conjugate() == pytest.approx(1.0, abs=1e-10)
        base = float(np.vdot(w, cov @ w).real)
        proj = np.eye(n) - np.outer(s, s.conj()) / n
        for _ in range(10):
            v = proj @ random_samples(n, 1, rng, True)[:, 0]
            w2 = w + 0.3 * v  # still distortionless
            assert base <= float(np.vdot(w2, cov @ w2).real) + 1e-10


def test_mvdr_requires_positive_definite():
    s = ula_steering(0.0, 4)
    with pytest.raises(ValueError):
        mvdr_weights(np.outer(s, s.conj()), s)


@pytest.mark.parametrize("steering", [np.zeros(3), np.array([1.0, np.nan, 0.0]),
                                      np.array([np.inf, 0.0, 0.0])])
def test_mvdr_rejects_zero_or_non_finite_steering(steering):
    with pytest.raises(ValueError, match="steering vector|finite and positive"):
        mvdr_weights(np.eye(3), steering)


def test_mvdr_pseudo_rank_one():
    s = ula_steering(0.4, 5)
    w = mvdr_weights_pseudo(np.outer(s, s.conj()), s)
    assert np.allclose(w, s / 5.0, atol=1e-12)
    assert np.vdot(s, w).conjugate() == pytest.approx(1.0, abs=1e-12)


def test_mvdr_pseudo_equals_full_rank_inverse():
    rng = np.random.default_rng(92)
    cov = random_psd(6, rng) + 0.5 * np.eye(6)
    s = ula_steering(-0.3, 6)
    assert np.allclose(mvdr_weights_pseudo(cov, s), mvdr_weights(cov, s),
                       rtol=1e-9, atol=1e-11)


def test_mvdr_pseudo_orthogonal_steering_raises():
    u = np.zeros(4, dtype=complex)
    u[0] = 1.0
    s = np.zeros(4, dtype=complex)
    s[1] = 1.0
    with pytest.raises(ValueError):
        mvdr_weights_pseudo(np.outer(u, u.conj()), s)


def test_output_sinr_frozen_db():
    n, sigma2 = 10, 0.1
    s = ula_steering(0.0, n)
    w = s / n
    got = output_sinr(w, s, 1.0, sigma2 * np.eye(n))
    assert got == pytest.approx(10 * np.log10(n / sigma2), abs=1e-12)


def test_output_sinr_guard():
    s = ula_steering(0.0, 3)
    with pytest.raises(ValueError):
        output_sinr(s, s, 1.0, np.zeros((3, 3)))


def test_mmse_channel_estimate_frozen():
    y = np.array([1.0 + 1j, 2.0, -1.0])
    got = mmse_channel_estimate(np.eye(3), np.eye(3), y)
    assert np.allclose(got, y / 2.0, atol=1e-14)


def test_mmse_channel_estimate_matches_inverse_formula():
    rng = np.random.default_rng(93)
    p, q = 4, 6
    cov = random_psd(p, rng)
    pilot = random_samples(p, q, rng, True).T  # q x p
    y = random_samples(q, 1, rng, True)[:, 0]
    got = mmse_channel_estimate(cov, pilot, y)
    want = cov @ pilot.conj().T @ np.linalg.inv(
        pilot @ cov @ pilot.conj().T + np.eye(q)) @ y
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_mmse_beats_ls_with_true_cov():
    rng = np.random.default_rng(94)
    p = 6
    power = 2.0
    cov = np.diag([1.0, 0.5, 0.1, 0.01, 0.01, 0.01])
    pilot = np.sqrt(power) * np.eye(p)
    root = np.sqrt(np.diag(cov))
    err_mmse = err_ls = 0.0
    for _ in range(60):
        h = root * random_samples(p, 1, rng, True)[:, 0]
        noise = random_samples(p, 1, rng, True)[:, 0]
        y = pilot @ h + noise
        h_ls = y / np.sqrt(power)
        h_mm = mmse_channel_estimate(cov, pilot, y)
        err_ls += np.sum(np.abs(h_ls - h) ** 2)
        err_mmse += np.sum(np.abs(h_mm - h) ** 2)
    assert err_mmse < err_ls


def test_ls_to_channel_cov_frozen():
    assert np.allclose(ls_to_channel_cov(2.0 * np.eye(3), 1.0), np.eye(3),
                       atol=1e-13)
    # estimate entirely below the noise floor collapses to zero
    assert np.allclose(ls_to_channel_cov(0.5 * np.eye(3), 1.0),
                       np.zeros((3, 3)), atol=1e-13)
    got = ls_to_channel_cov(np.diag([2.0, 0.3]), 1.0)
    assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-13)


def test_ls_to_channel_cov_psd():
    rng = np.random.default_rng(95)
    for _ in range(10):
        cov = random_psd(5, rng)
        out = ls_to_channel_cov(cov, 3.0)
        assert is_psd(out)


@pytest.mark.parametrize("power", BAD_PILOT_POWERS)
def test_ls_to_channel_cov_rejects_bad_pilot_power(power):
    # a negative power used to add the noise floor instead of removing it
    with pytest.raises(ValueError, match="pilot power"):
        ls_to_channel_cov(2.0 * np.eye(3), power)


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_mmse_channel_estimate_rejects_non_finite_inputs(bad):
    y = np.array([1.0 + 1j, 2.0, -1.0])
    with pytest.raises(ValueError, match="observation"):
        mmse_channel_estimate(np.eye(3), np.eye(3), np.where(y == 2.0, bad, y))
    pilot = np.eye(3)
    pilot[1, 2] = bad
    with pytest.raises(ValueError, match="pilot"):
        mmse_channel_estimate(np.eye(3), pilot, y)


def _orthonormal_basis(n, k, rng, complex_field=True):
    q, _ = np.linalg.qr(random_samples(n, k, rng, complex_field))
    return q


def test_spectral_channel_estimate_frozen():
    # C = diag(2, 0.3, 1.5) with U = e_1 and e0 = 1.5, pilot power 1:
    # channel eigenvalues (1, 0, 0.5), gains c / (c + 1) = (1/2, 0, 1/3)
    u = np.array([[1.0], [0.0], [0.0]])
    y = np.array([2.0, 3.0, -1.5j])
    got = spectral_channel_estimate(u, np.array([2.0]), 1.5, 1.0, y)
    assert np.allclose(got, [1.0, 1.0, -0.5j], atol=1e-15)
    # the null-space eigenvalue 0.3 of a second basis vector is clipped
    u2 = np.eye(3)[:, :2]
    got = spectral_channel_estimate(u2, np.array([2.0, 0.3]), 1.5, 1.0, y)
    assert np.allclose(got, [1.0, 0.0, -0.5j], atol=1e-15)


@pytest.mark.parametrize("complex_field", (False, True))
def test_spectral_channel_estimate_matches_dense(complex_field):
    rng = np.random.default_rng(97)
    n, power = 7, 4.0
    for k in (1, 3, 7):
        u = _orthonormal_basis(n, k, rng, complex_field)
        y = random_samples(n, 1, rng, complex_field)[:, 0]
        # the floor 1/p = 0.25 falls inside the eigenvalues, which keep one
        # channel dimension so the estimate is not zero
        eigs = np.append(rng.uniform(0.0, 1.0, k - 1), 0.9)
        # null-space eigenvalue below, exactly at and above the floor
        for null_eig in (0.1, 0.25, 0.4):
            got = spectral_channel_estimate(u, eigs, null_eig, power, y)
            # C = U diag(e) U^H + e0 (I - U U^H)
            ls_cov = (u * eigs) @ u.conj().T \
                + null_eig * (np.eye(n) - u @ u.conj().T)
            want = dense_channel_estimate(ls_cov, power, y)
            assert np.linalg.norm(got - want) \
                <= 1e-10 * np.linalg.norm(want), (k, null_eig)


@pytest.mark.parametrize("power", BAD_PILOT_POWERS)
def test_spectral_channel_estimate_rejects_bad_pilot_power(power):
    with pytest.raises(ValueError, match="pilot power"):
        spectral_channel_estimate(np.eye(3), np.ones(3), 1.0, power, np.ones(3))


def test_spectral_channel_estimate_rejects_bad_inputs():
    u, e, y = np.eye(3)[:, :2], np.ones(2), np.ones(3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="observation"):
            spectral_channel_estimate(u, e, 1.0, 2.0, np.array([1.0, bad, 0.0]))
        with pytest.raises(ValueError, match="eigenvalue"):
            spectral_channel_estimate(u, np.array([1.0, bad]), 1.0, 2.0, y)
        with pytest.raises(ValueError, match="eigenvalue"):
            spectral_channel_estimate(u, e, bad, 2.0, y)
    with pytest.raises(ValueError, match="do not match"):
        spectral_channel_estimate(u, np.ones(3), 1.0, 2.0, y)
    with pytest.raises(ValueError, match="do not match"):
        spectral_channel_estimate(u, e, 1.0, 2.0, np.ones(4))


def test_lmmse_detect_frozen():
    y = np.array([2.0, -4.0 + 2j])
    got = lmmse_detect(np.eye(2), 2.0 * np.eye(2), y)
    assert np.allclose(got, y / 2.0, atol=1e-14)


def test_lmmse_detect_matches_formula():
    rng = np.random.default_rng(96)
    h = random_samples(5, 3, rng, True)
    cov = random_psd(5, rng) + 0.2 * np.eye(5)
    y = random_samples(5, 1, rng, True)[:, 0]
    want = h.conj().T @ np.linalg.inv(cov) @ y
    assert np.allclose(lmmse_detect(h, cov, y), want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lmmse_detect_rejects_non_finite_inputs(bad):
    y = np.array([1.0, bad, 0.0])
    with pytest.raises(ValueError, match="observation contains non-finite"):
        lmmse_detect(np.eye(3), np.eye(3), y)
    h = np.eye(3)
    h[1, 2] = bad
    with pytest.raises(ValueError, match="channel contains non-finite"):
        lmmse_detect(h, np.eye(3), np.ones(3))


def test_lmmse_detect_guard():
    h = np.eye(3)
    with pytest.raises(ValueError):
        lmmse_detect(h, np.zeros((3, 3)), np.ones(3))
