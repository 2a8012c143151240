"""Array-processing consumers of covariance estimates.

Minimum-variance distortionless beamforming, pilot-based channel
estimation, and linear detection all take a covariance (or channel
covariance) estimate as input; better-conditioned estimates translate
directly into output SINR or estimation error.  These helpers are the
fixed downstream stages used by the experiment harness.

Channel estimation has a dense form, :func:`ls_to_channel_cov` followed
by :func:`mmse_channel_estimate`, and an eigenbasis form,
:func:`spectral_channel_estimate`, for the pilot sqrt(p) I.  A shrunk
sample covariance rho R + tau mu I has R's eigenvectors, which the
harness takes from the eigendecomposition of the smaller Gram matrix of
the samples (Y^H Y when T < N), and the eigenvalue tau mu on R's null
space; removing the noise floor and filtering are then scalar maps of
those eigenvalues, and no N x N matrix is formed.
"""

from __future__ import annotations

import math

import numpy as np

from .hermitian import frobenius_norm_sq, hermitize, require_hermitian

__all__ = [
    "ula_steering",
    "mvdr_weights",
    "mvdr_weights_pseudo",
    "output_sinr",
    "mmse_channel_estimate",
    "ls_to_channel_cov",
    "spectral_channel_estimate",
    "lmmse_detect",
]


def ula_steering(theta: float, n: int) -> np.ndarray:
    """Steering vector of an n-element half-wavelength uniform linear array.

    ``theta`` is the arrival angle in radians measured from broadside.
    """
    return np.exp(-1j * np.pi * np.arange(n) * np.sin(theta))


def _solve_pd(cov: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve cov @ x = rhs for Hermitian positive definite cov."""
    cov = require_hermitian(cov)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be positive definite") from None
    return np.linalg.solve(cov, rhs)


def _pinv_solve(cov: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve cov @ x = rhs, inverting only eigenvalues above the rank cutoff."""
    v, w, coords = _pinv_terms(cov, rhs)
    return v @ (coords / w)


def _pinv_terms(cov: np.ndarray, rhs: np.ndarray) -> tuple:
    """(V, w, V^H rhs) of the eigenpairs (w, V) of ``cov`` above the rank
    cutoff, which :func:`_pinv_solve` inverts."""
    w, v = np.linalg.eigh(hermitize(cov))
    cutoff = cov.shape[0] * np.finfo(float).eps * max(float(w[-1]), 0.0)
    keep = w > cutoff
    if not np.any(keep):
        raise ValueError("covariance has no positive eigenvalues")
    v = v[:, keep]
    return v, w[keep], v.conj().T @ rhs


def mvdr_weights(cov: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Distortionless minimum-variance weights cov^-1 s / (s^H cov^-1 s).

    Requires a positive definite covariance and a finite steering vector
    with s^H cov^-1 s finite and positive; use
    :func:`mvdr_weights_pseudo` for rank-deficient estimates.
    """
    steering = _require_finite(steering, "steering vector")
    q = _solve_pd(cov, steering)
    denom = float(np.vdot(steering, q).real)
    if not (math.isfinite(denom) and denom > 0.0):
        raise ValueError(f"s^H cov^-1 s must be finite and positive, got {denom!r}")
    return q / denom


def mvdr_weights_pseudo(cov: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Minimum-variance weights through the eigenvalue pseudoinverse.

    Eigenvalues below the usual rank cutoff are dropped rather than
    inverted, so sample covariances with T < N remain usable.  Raises if
    the steering vector is not finite, or orthogonal to the retained
    subspace (the distortionless constraint is then unsatisfiable): when
    its energy there is at most 1e-14 of ||s||^2, a test that does not
    depend on the scale of ``cov``.
    """
    energy = frobenius_norm_sq(steering)
    if not math.isfinite(energy):
        raise ValueError("steering vector contains non-finite entries")
    v, w, coords = _pinv_terms(require_hermitian(cov), steering)
    if not frobenius_norm_sq(coords) > 1e-14 * energy:
        raise ValueError("steering vector is orthogonal to the covariance "
                         "range; distortionless weights do not exist")
    q = v @ (coords / w)
    return q / float(np.vdot(steering, q).real)


def output_sinr(weights: np.ndarray, steering: np.ndarray, signal_power: float,
                interference_cov: np.ndarray) -> float:
    """Output SINR of a beamformer in dB.

    SINR = signal_power |w^H s|^2 / (w^H Sigma_in w) with Sigma_in the
    interference-plus-noise covariance.  A NaN or infinite entry of any
    input makes the power ratio non-finite, which is rejected.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # rejected below
        denom = float(np.vdot(weights, interference_cov @ weights).real)
        num = signal_power * abs(np.vdot(weights, steering)) ** 2
    if not (math.isfinite(num) and math.isfinite(denom)):
        raise ValueError("output SINR is not finite: weights, steering "
                         "vector, signal power and interference covariance "
                         "must be finite")
    if denom <= 0.0:
        raise ValueError("interference-plus-noise power at the beamformer "
                         "output must be positive")
    return float(10.0 * np.log10(num / denom))


def _require_finite(a, name: str) -> np.ndarray:
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_pilot_power(pilot_power: float) -> float:
    p = float(pilot_power)
    if not (math.isfinite(p) and p > 0.0):
        raise ValueError(f"pilot power must be finite and positive, got {p!r}")
    return p


def mmse_channel_estimate(channel_cov: np.ndarray, pilot: np.ndarray,
                          observation: np.ndarray) -> np.ndarray:
    """Bayesian linear estimate of a channel from one pilot observation.

    Model: observation = pilot @ h + noise with unit-variance white
    noise and prior covariance ``channel_cov`` on ``h``; the estimate is
    Sigma P^H (P Sigma P^H + I)^-1 y.  A non-finite pilot or observation
    is rejected.
    """
    channel_cov = require_hermitian(channel_cov)
    pilot = _require_finite(pilot, "pilot")
    observation = _require_finite(observation, "observation")
    gram = pilot @ channel_cov @ pilot.conj().T + np.eye(pilot.shape[0])
    return channel_cov @ pilot.conj().T @ np.linalg.solve(gram, observation)


def ls_to_channel_cov(ls_cov: np.ndarray, pilot_power: float) -> np.ndarray:
    """Channel covariance implied by a least-squares estimate covariance.

    The LS channel estimate equals the channel plus white noise of
    variance 1/pilot_power, so the channel covariance is the LS
    covariance minus that noise floor, with negative eigenvalues (pure
    noise dimensions) clipped to zero to keep the result PSD.  The pilot
    power must be finite and positive.
    """
    ls_cov = require_hermitian(ls_cov)
    pilot_power = _require_pilot_power(pilot_power)
    n = ls_cov.shape[0]
    w, v = np.linalg.eigh(hermitize(ls_cov - np.eye(n) / pilot_power))
    w = np.maximum(w, 0.0)
    return (v * w) @ v.conj().T


def spectral_channel_estimate(basis: np.ndarray, ls_eigs: np.ndarray,
                              null_eig: float, pilot_power: float,
                              observation: np.ndarray) -> np.ndarray:
    """MMSE channel estimate for the pilot sqrt(p) I, in an eigenbasis.

    The LS-estimate covariance is C = U diag(e) U^H + e0 (I - U U^H) for
    ``basis`` U with orthonormal columns (not checked), ``ls_eigs`` e and
    ``null_eig`` e0.  The result equals
    ``mmse_channel_estimate(ls_to_channel_cov(C, p), sqrt(p) I, y)``:
    with c = max(e - 1/p, 0) and c0 = max(e0 - 1/p, 0) the channel
    eigenvalues and g(c) = sqrt(p) c / (p c + 1) the filter gain,

        h = U (g(c) * U^H y) + g(c0) (y - U U^H y).

    The pilot power must be finite and positive, and every input finite.
    """
    p = _require_pilot_power(pilot_power)
    basis = _require_finite(basis, "basis")
    e = _require_finite(ls_eigs, "LS eigenvalues")
    e0 = float(_require_finite(null_eig, "null-space eigenvalue"))
    y = _require_finite(observation, "observation")
    if basis.ndim != 2 or e.shape != basis.shape[1:] \
            or y.shape != basis.shape[:1]:
        raise ValueError(f"basis {basis.shape}, eigenvalues {e.shape} and "
                         f"observation {y.shape} do not match")
    root = math.sqrt(p)
    c = np.maximum(e - 1.0 / p, 0.0)
    c0 = max(e0 - 1.0 / p, 0.0)
    coords = basis.conj().T @ y
    return basis @ (root * c / (p * c + 1.0) * coords) \
        + root * c0 / (p * c0 + 1.0) * (y - basis @ coords)


def lmmse_detect(channel: np.ndarray, cov: np.ndarray,
                 observation: np.ndarray) -> np.ndarray:
    """Linear MMSE-style detection statistic H^H cov^-1 y.

    ``cov`` is the observation covariance estimate and must be positive
    definite.  A non-finite channel or observation is rejected.
    """
    channel = _require_finite(channel, "channel")
    observation = _require_finite(observation, "observation")
    return channel.conj().T @ _solve_pd(cov, observation)
