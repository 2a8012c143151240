"""Reproducible covariance models and sample generators for experiments.

Randomness is organized around :class:`RngStream`, a small wrapper over
numpy's seed-sequence spawning: every (seed, stream, index) triple maps
to one independent PCG64 generator, so parallel experiment replications
can draw from non-overlapping streams in any order and still reproduce
bit-identically.

Experiments draw many blocks from one fixed covariance, so
:func:`gaussian_sampler` validates and factors a covariance once and
returns a sampler that only draws; :func:`gaussian_samples` is its
one-shot case, and a sampler's draw equals it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .applications import ula_steering
from .hermitian import _psd_spectrum, _toeplitz, hermitize, require_hermitian

__all__ = [
    "RngStream",
    "ExperimentScene",
    "ar_covariance",
    "gaussian_sampler",
    "gaussian_samples",
    "linear_model_scene",
    "kronecker_channel_cov",
    "interference_scene",
]


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: a seed plus a flat stream offset.

    ``generator(i)`` materializes the stream at offset
    ``stream_index + i`` (``generator()`` at the base offset itself), so
    ``RngStream(s, k).generator()`` and ``RngStream(s).generator(k)``
    name the same stream.  Distinct offsets give statistically
    independent generators and every offset is reproducible in
    isolation.
    """

    seed: int
    stream_index: int = 0

    def generator(self, index: int | None = None) -> np.random.Generator:
        key = self.stream_index + (0 if index is None else index)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class ExperimentScene:
    """A ground-truth covariance with a matching sample generator.

    ``generator(t, gen)`` draws a T-sample block (or a tuple of blocks
    for regression scenes) using the provided numpy generator;
    ``metadata`` carries scene-specific side information such as the
    true coefficients or steering vectors.
    """

    true_covariance: np.ndarray
    generator: Callable
    metadata: dict = field(default_factory=dict)


def ar_covariance(n: int, r) -> np.ndarray:
    """First-order autoregressive covariance with coefficient ``r``.

    Entry (i, j) is r**(j-i) above the diagonal and the conjugate below;
    requires |r| < 1.  Real coefficients give a real matrix.
    """
    if not abs(r) < 1.0:  # NaN too
        raise ValueError("autoregressive coefficient must satisfy |r| < 1")
    first_row = np.asarray(r) ** np.arange(n)
    return _toeplitz(np.conj(first_row), first_row)


def _covariance_factor(sigma: np.ndarray) -> np.ndarray:
    """Square root factor F with F F^H = sigma, accepting PSD inputs."""
    sigma = require_hermitian(sigma)
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(hermitize(sigma))
        if not _psd_spectrum(w):
            raise ValueError("covariance must be positive semidefinite") from None
        return v * np.sqrt(np.maximum(w, 0.0))


def gaussian_sampler(sigma: np.ndarray,
                     complex_field: bool = False) -> Callable:
    """Sampler ``draw(t, rng)`` of N x T zero-mean Gaussian blocks, cov sigma.

    ``sigma`` is validated and factored here, once; each draw only
    generates normals and multiplies them by the read-only factor, so
    one sampler may be shared by threads that pass their own ``rng``, a
    numpy Generator.  Complex samples are circularly symmetric with
    E[y y^H] = sigma.
    """
    factor = _covariance_factor(sigma)
    factor.flags.writeable = False
    n = factor.shape[0]

    def draw(t: int, rng: np.random.Generator) -> np.ndarray:
        if complex_field:
            z = (rng.standard_normal((n, t))
                 + 1j * rng.standard_normal((n, t))) / math.sqrt(2.0)
        else:
            z = rng.standard_normal((n, t))
        return factor @ z

    return draw


def gaussian_samples(sigma: np.ndarray, t: int, rng: np.random.Generator,
                     complex_field: bool = False) -> np.ndarray:
    """Draw one N x T block: the one-shot case of :func:`gaussian_sampler`."""
    return gaussian_sampler(sigma, complex_field)(t, rng)


def linear_model_scene(n: int, m: int, sigma2: float,
                       rng: np.random.Generator) -> ExperimentScene:
    """Scene for the linear observation model y = H x + noise.

    The n x m coefficient matrix has independent N(0, 1/m) entries, drawn
    from the numpy Generator ``rng``, so the signal part of the covariance
    has trace about n; ``sigma2`` is the white noise variance.  The scene generator returns the pair
    (inputs, outputs) for the least-squares estimation path.
    """
    if m < 1:
        raise ValueError("the linear model needs at least one input dimension")
    coef = rng.standard_normal((n, m)) / math.sqrt(m)
    truth = coef @ coef.T + sigma2 * np.eye(n)

    def draw(t: int, gen: np.random.Generator):
        x = gen.standard_normal((m, t))
        y = coef @ x + math.sqrt(sigma2) * gen.standard_normal((n, t))
        return x, y

    return ExperimentScene(true_covariance=truth, generator=draw,
                           metadata={"coef": coef, "noise_var": sigma2})


def kronecker_channel_cov(nt: int, nr: int, r_t, r_r) -> np.ndarray:
    """Separable MIMO channel covariance kron(Sigma_tx, Sigma_rx).

    Both factors are first-order autoregressive covariances; the result
    has unit diagonal and trace nt * nr.
    """
    return np.kron(ar_covariance(nt, r_t), ar_covariance(nr, r_r))


def interference_scene(aoas, inr_db: float, noise_db: float,
                       n: int) -> ExperimentScene:
    """Array snapshot scene: broadside unit-power signal plus interferers.

    ``aoas`` lists interferer arrival angles in radians, each received
    at ``inr_db`` relative power; ``noise_db`` sets the white noise
    floor.  The scene metadata carries the signal steering vector and
    the interference-plus-noise covariance needed for SINR scoring; the
    generator is a :func:`gaussian_sampler` of the truth, factored here.
    """
    steering = ula_steering(0.0, n)
    inr = 10.0 ** (inr_db / 10.0)
    noise = 10.0 ** (noise_db / 10.0)
    sigma_in = noise * np.eye(n, dtype=complex)
    for theta in np.atleast_1d(np.asarray(aoas, dtype=float)):
        v = ula_steering(float(theta), n)
        sigma_in = sigma_in + inr * np.outer(v, v.conj())
    truth = sigma_in + np.outer(steering, steering.conj())
    draw = gaussian_sampler(truth, complex_field=True)
    return ExperimentScene(true_covariance=truth, generator=draw,
                           metadata={"steering": steering,
                                     "interference_plus_noise": sigma_in})
