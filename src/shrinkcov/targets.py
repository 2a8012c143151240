"""Structured shrinkage targets derived from a base covariance estimate.

Every target here preserves the trace of its input, so convex
combinations of base estimate and target keep the total power, and
every one is Hermitian.  The scaled identity and diagonal targets are
PSD whenever the input is; the Toeplitz band average need not be (see
:func:`toeplitz_average_target`).  Given an owner (a sample block or a
least-squares fit) in place of R, a target reads its R unchecked and is
owned by it with its kind.  A raw R is checked, an integer or bool one
read as float64, and its target is registered with its kind.  Either
way the target comes back read-only for good, so that a selection of
N >> T takes its products in closed form from its diagonal and any
Toeplitz bands (:mod:`shrinkcov.estimators`); a copy of the target is
an ordinary, writable array.
"""

from __future__ import annotations

import numpy as np

from .estimators import _base, sample_block
from .hermitian import _toeplitz
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
    r, own = _base(r)
    n = r.shape[0]
    mu = float(np.trace(r).real) / n
    t0 = np.zeros((n, n))  # filled in place: one N x N array
    np.fill_diagonal(t0, mu)
    return own(t0, "identity")


def diagonal_target(r: np.ndarray) -> np.ndarray:
    """Diagonal of ``r`` as a real PSD matrix.

    Rounding dust on the diagonal (below 1e-12 of its largest magnitude)
    is clipped to zero; genuinely negative diagonal entries are rejected
    at any scale.
    """
    r, own = _base(r)
    d = np.diag(r).real.astype(np.float64)
    if np.any(d < -1e-12 * np.max(np.abs(d), initial=0.0)):
        raise ValueError("diagonal target requires nonnegative diagonal entries")
    d[d < 0.0] = 0.0
    return own(np.diag(d), "diagonal")


def toeplitz_average_target(r: np.ndarray) -> np.ndarray:
    """Project ``r`` onto real symmetric Toeplitz structure by band averaging.

    Band ``i`` of the result carries the mean real part of the i-th
    super/sub-diagonal of ``r``; band 0 is tr(r)/n, so the trace is
    preserved exactly.  Each band's sum is divided by its length n - i,
    the unbiased autocorrelation, so the target is not PSD in general,
    even for a PSD ``r``: y = (1, 0, -1) gives the eigenvalue -1/3 for
    R = y y^T.  Band i is read as the strided slice
    ``flat[i:(n - i)(n + 1):n + 1]`` of the raveled real part (a view
    for a contiguous ``r``) and summed by ``np.add.reduce``, the
    pairwise sum of ``np.mean`` of the diagonal, bit for bit.
    """
    r, own = _base(r)
    n = r.shape[0]
    flat, step, add = r.real.reshape(-1), n + 1, np.add.reduce
    first_row = np.array([add(flat[i:(n - i) * step:step]) / (n - i)
                          for i in range(n)], dtype=np.float64)
    return own(_toeplitz(first_row, first_row), "toeplitz")


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
