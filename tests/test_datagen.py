import math

import numpy as np
import pytest

from shrinkcov import datagen
from shrinkcov.datagen import (
    RngStream,
    ar_covariance,
    gaussian_sampler,
    gaussian_samples,
    interference_scene,
    kronecker_channel_cov,
    linear_model_scene,
)
from shrinkcov.applications import ula_steering
from shrinkcov.estimators import scm
from shrinkcov.hermitian import is_psd


def test_rng_stream_deterministic():
    a = RngStream(7).generator(3).standard_normal(8)
    b = RngStream(7).generator(3).standard_normal(8)
    assert np.array_equal(a, b)
    c = RngStream(7, 3).generator().standard_normal(8)
    d = RngStream(7, 3).generator().standard_normal(8)
    assert np.array_equal(c, d)


def test_rng_stream_indices_independent():
    root = RngStream(7)
    a = root.generator(0).standard_normal(8)
    b = root.generator(1).standard_normal(8)
    assert not np.array_equal(a, b)
    c = RngStream(8).generator(0).standard_normal(8)
    assert not np.array_equal(a, c)
    d = RngStream(7, 1).generator().standard_normal(8)
    assert not np.array_equal(RngStream(7, 0).generator().standard_normal(8), d)


def test_ar_covariance_frozen_real():
    assert np.allclose(ar_covariance(4, 0.0), np.eye(4), atol=1e-15)
    got = ar_covariance(3, 0.5)
    want = np.array([[1.0, 0.5, 0.25],
                     [0.5, 1.0, 0.5],
                     [0.25, 0.5, 1.0]])
    assert np.allclose(got, want, atol=1e-15)
    assert not np.iscomplexobj(got)
    assert ar_covariance(0, 0.5).shape == (0, 0)


def test_ar_covariance_frozen_complex():
    got = ar_covariance(2, 0.5j)
    # entry (i, j) carries r**(j-i) above the diagonal, conjugate below
    want = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    assert np.allclose(got, want, atol=1e-15)


def test_ar_covariance_guards_and_psd():
    with pytest.raises(ValueError):
        ar_covariance(4, 1.0)
    with pytest.raises(ValueError):
        ar_covariance(4, 1.2j)
    for r in (math.nan, complex(math.nan, 0.0), math.inf):
        with pytest.raises(ValueError, match=r"\|r\| < 1"):
            ar_covariance(3, r)
    for r in (0.0, 0.9, -0.7, 0.7 * np.exp(-1j * 0.9349 * np.pi)):
        assert is_psd(ar_covariance(12, r), tol=1e-10)


def test_gaussian_samples_reproducible_from_stream():
    cov = ar_covariance(4, 0.6)
    a = gaussian_samples(cov, 5, RngStream(3).generator(2), complex_field=True)
    b = gaussian_samples(cov, 5, RngStream(3).generator(2), complex_field=True)
    assert np.array_equal(a, b)
    assert a.shape == (4, 5)
    assert np.iscomplexobj(a)
    c = gaussian_samples(cov, 5, RngStream(3).generator(2), complex_field=False)
    assert not np.iscomplexobj(c)
    # the stream at offset 2 of seed 3, addressed from its own base
    d = gaussian_samples(cov, 5, RngStream(3, 2).generator(), complex_field=True)
    assert np.array_equal(a, d)


def _reference_draw(sigma, t, gen, complex_field):
    """The draw law written out: Cholesky factor, else the clipped eigh one."""
    try:
        factor = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
        factor = v * np.sqrt(np.maximum(w, 0.0))
    n = factor.shape[0]
    if complex_field:
        z = (gen.standard_normal((n, t))
             + 1j * gen.standard_normal((n, t))) / math.sqrt(2.0)
    else:
        z = gen.standard_normal((n, t))
    return factor @ z


_v = np.array([1.0, 2.0, -1.0, 0.5])
SAMPLER_COVS = {
    "real": ar_covariance(5, 0.6),
    "complex": ar_covariance(5, 0.7 * np.exp(-1j * 0.9 * np.pi)),
    "singular": np.outer(_v, _v),      # rank one: the eigh fallback
    "zero": np.zeros((3, 3)),
}


@pytest.mark.parametrize("complex_field", (False, True))
@pytest.mark.parametrize("name", sorted(SAMPLER_COVS))
def test_gaussian_sampler_equals_one_shot_draws(name, complex_field):
    sigma = SAMPLER_COVS[name]
    if name in ("singular", "zero"):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(sigma)
    draw = gaussian_sampler(sigma, complex_field)
    gen_a, gen_b, gen_c = (RngStream(9).generator(4) for _ in range(3))
    # successive draws from one generator, as replications of one stream
    for t in (1, 3, 7):
        got = draw(t, gen_a)
        assert np.array_equal(got, gaussian_samples(sigma, t, gen_b,
                                                    complex_field))
        assert np.array_equal(got, _reference_draw(sigma, t, gen_c,
                                                   complex_field))
        assert np.iscomplexobj(got) == (complex_field or name == "complex")
    # a fresh generator of the same stream repeats the one-shot draw
    assert np.array_equal(draw(4, RngStream(9, 4).generator()),
                          gaussian_samples(sigma, 4, RngStream(9, 4).generator(),
                                           complex_field))


def test_gaussian_sampler_factors_once_and_shares_a_read_only_factor(
        monkeypatch):
    calls = []
    factor = datagen._covariance_factor

    def counted(sigma):
        calls.append(1)
        return factor(sigma)
    monkeypatch.setattr(datagen, "_covariance_factor", counted)
    draw = gaussian_sampler(ar_covariance(4, 0.5), complex_field=True)
    gen = RngStream(2).generator()
    for t in range(1, 6):
        assert draw(t, gen).shape == (4, t)
    assert len(calls) == 1
    (held,) = [c.cell_contents for c in draw.__closure__
               if isinstance(c.cell_contents, np.ndarray)]
    assert not held.flags.writeable

    calls.clear()
    scene = interference_scene(np.deg2rad([20.0, -40.0]), 10.0, -10.0, 6)
    for _ in range(5):
        scene.generator(3, gen)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="positive semidefinite"):
        gaussian_sampler(np.diag([1.0, -1e-6]))


def test_gaussian_samples_zero_cov_and_guard():
    out = gaussian_samples(np.zeros((3, 3)), 4, RngStream(1).generator(),
                           complex_field=True)
    assert out.shape == (3, 4)
    assert np.allclose(out, 0.0, atol=1e-14)
    with pytest.raises(ValueError):
        gaussian_samples(np.array([[1.0, 2.0], [2.0, 1.0]]), 4,
                         RngStream(1).generator())


def test_gaussian_samples_law_of_large_numbers():
    gen = RngStream(11).generator(0)
    for complex_field in (False, True):
        y = gaussian_samples(np.eye(10), 100_000, gen, complex_field)
        dev = np.linalg.norm(scm(y) - np.eye(10))
        assert dev < 0.1


def test_gaussian_samples_complex_unit_variance_and_circular():
    gen = RngStream(12).generator(0)
    z = gaussian_samples(np.eye(1), 1_000_000, gen, complex_field=True)[0]
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.01)
    assert abs(np.mean(z ** 2)) < 0.01  # circular symmetry


def test_linear_model_scene_truth_and_shapes():
    gen = RngStream(21).generator(0)
    scene = linear_model_scene(5, 3, 0.1, gen)
    h = scene.metadata["coef"]
    assert h.shape == (5, 3)
    assert not np.iscomplexobj(h)
    want = h @ h.conj().T + 0.1 * np.eye(5)
    assert np.allclose(scene.true_covariance, want, atol=1e-12)
    x, y = scene.generator(7, RngStream(21).generator(1))
    assert x.shape == (3, 7) and y.shape == (5, 7)
    x2, y2 = scene.generator(7, RngStream(21).generator(1))
    assert np.array_equal(y, y2)
    with pytest.raises(ValueError):
        linear_model_scene(5, 0, 0.1, gen)


def test_linear_model_scene_empirical_cov_matches_truth():
    gen = RngStream(22).generator(0)
    scene = linear_model_scene(4, 3, 0.05, gen)
    _, y = scene.generator(40_000, RngStream(22).generator(1))
    got = scm(y)
    rel = (np.linalg.norm(got - scene.true_covariance)
           / np.linalg.norm(scene.true_covariance))
    assert rel < 0.05


def test_kronecker_channel_cov_blocks():
    rt, rr = 0.5j, 0.3
    cov = kronecker_channel_cov(2, 2, rt, rr)
    sig_r = ar_covariance(2, rr)
    assert cov.shape == (4, 4)
    assert np.allclose(cov[:2, :2], sig_r, atol=1e-14)
    assert np.allclose(cov[:2, 2:], 0.5j * sig_r, atol=1e-14)
    assert np.allclose(cov, cov.conj().T, atol=1e-14)
    assert is_psd(cov)
    assert np.allclose(kronecker_channel_cov(3, 2, 0.0, 0.0), np.eye(6),
                       atol=1e-15)


def test_kronecker_channel_cov_correlated_psd():
    cov = kronecker_channel_cov(4, 5,
                                0.7 * np.exp(-1j * 0.9349 * np.pi),
                                0.9 * np.exp(-1j * 0.9289 * np.pi))
    assert cov.shape == (20, 20)
    assert np.trace(cov).real == pytest.approx(20.0, abs=1e-10)
    assert is_psd(cov, tol=1e-10)


def test_interference_scene_composition():
    n = 10
    aoas = np.deg2rad([8.0, -15.0, 23.0, -21.0, 46.0, -44.0, -85.0, 74.0])
    scene = interference_scene(aoas, 10.0, -10.0, n)
    assert np.trace(scene.true_covariance).real == pytest.approx(
        n * (1.0 + 80.0 + 0.1), rel=1e-12)
    s = scene.metadata["steering"]
    assert np.allclose(s, ula_steering(0.0, n), atol=1e-14)
    diff = scene.true_covariance - scene.metadata["interference_plus_noise"]
    assert np.allclose(diff, np.outer(s, s.conj()), atol=1e-10)
    assert is_psd(scene.true_covariance, tol=1e-8)
    assert is_psd(scene.metadata["interference_plus_noise"], tol=1e-8)
    y = scene.generator(6, RngStream(5).generator())
    assert y.shape == (n, 6) and np.iscomplexobj(y)


def test_interference_scene_draws_equal_one_shot_draws():
    scene = interference_scene(np.deg2rad([8.0, -15.0, 46.0]), 10.0, -10.0, 7)
    gen_a, gen_b = RngStream(6).generator(1), RngStream(6).generator(1)
    for t in (1, 4, 9):
        assert np.array_equal(
            scene.generator(t, gen_a),
            gaussian_samples(scene.true_covariance, t, gen_b, True))


def test_interference_scene_no_interferers():
    scene = interference_scene([], 10.0, 0.0, 6)
    s = scene.metadata["steering"]
    want = np.outer(s, s.conj()) + np.eye(6)
    assert np.allclose(scene.true_covariance, want, atol=1e-12)
    assert np.allclose(scene.metadata["interference_plus_noise"], np.eye(6),
                       atol=1e-12)
