"""Structured shrinkage targets derived from a base covariance estimate.

Every target here preserves the trace of its input, so convex
combinations of base estimate and target keep the total power; all of
them are Hermitian PSD whenever the input is.  Given a sample block in
place of R, a target reads its R unchecked and is registered on it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .estimators import _base, sample_block
from .multi_target import _scm_loocv_moments
from .single_target import _quad, shrink, solve_quadratic_2d

__all__ = [
    "scaled_identity_target",
    "diagonal_target",
    "toeplitz_average_target",
    "knowledge_aided_target",
]


def scaled_identity_target(r: np.ndarray) -> np.ndarray:
    """Identity scaled to match the trace of ``r``: (tr r / n) I."""
    r, own, *_ = _base(r)
    n = r.shape[0]
    return own((float(np.trace(r).real) / n) * np.eye(n))


def diagonal_target(r: np.ndarray) -> np.ndarray:
    """Diagonal of ``r`` as a real PSD matrix.

    Rounding dust on the diagonal (below 1e-12 of its largest magnitude)
    is clipped to zero; genuinely negative diagonal entries are rejected
    at any scale.
    """
    r, own, *_ = _base(r)
    d = np.diag(r).real.copy()
    if np.any(d < -1e-12 * np.max(np.abs(d), initial=0.0)):
        raise ValueError("diagonal target requires nonnegative diagonal entries")
    d[d < 0.0] = 0.0
    return own(np.diag(d))


def toeplitz_average_target(r: np.ndarray) -> np.ndarray:
    """Project ``r`` onto real symmetric Toeplitz structure by band averaging.

    Band ``i`` of the result carries the mean real part of the i-th
    super/sub-diagonal of ``r``; band 0 is tr(r)/n, so the trace is
    preserved exactly.  Band i is read as the strided slice
    ``flat[i:(n - i)(n + 1):n + 1]`` of the raveled matrix (a view for
    a contiguous ``r``); its sum over the band length is what
    ``np.mean`` of the diagonal computes, bit for bit.
    """
    r, own, *_ = _base(r)
    n = r.shape[0]
    flat = r.ravel()
    first_row = np.empty(n)
    for i in range(n):
        first_row[i] = flat[i:(n - i) * (n + 1):n + 1].real.sum() / (n - i)
    return own(scipy.linalg.toeplitz(first_row))


def knowledge_aided_target(past_samples: np.ndarray) -> np.ndarray:
    """Target learned from an independent block of past samples.

    Returns the convex combination rho R_past + (1 - rho) mu I selected
    by leave-one-out cross-validation on the past block, where R_past is
    its sample covariance and mu I its scaled identity.  The convex
    constraint keeps the trace of R_past, so the target remains a
    calibrated power reference even when the past block is short.
    ``past_samples`` (T >= 2) may be a sample block.
    """
    past = sample_block(past_samples, min_count=2)
    t0 = scaled_identity_target(past)
    moments = _quad(_scm_loocv_moments(past, [t0]))
    sol = solve_quadratic_2d(moments, constrained=True)
    return shrink(past.r, t0, sol)
