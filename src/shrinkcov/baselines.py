"""Closed-form shrinkage-coefficient baselines.

These selectors pick (rho, tau) from moments of the sample covariance
alone, without cross-validation: the Ledoit-Wolf identity-target rule,
its general-target extension, and the oracle-approximating rule for the
scaled-identity target.  All return :class:`ShrinkageSolution` so the
estimates are formed with the same :func:`shrink` call as the
cross-validated selectors.

Conventions: the Ledoit-Wolf and general-target coefficients scale the
*unscaled* target (tau absorbs the power calibration), while the
oracle-approximating tau multiplies the trace-calibrated identity
tr(R)/n I and satisfies rho + tau = 1.
Each takes the samples as an array or a sample block, and reads the
block's R, fourth-moment sum and trace products from the block.
"""

from __future__ import annotations

import numpy as np

from .estimators import SampleBlock, sample_block
from .hermitian import frobenius_norm_sq
from .single_target import Clip, ShrinkageSolution

__all__ = [
    "lw_coefficients",
    "glc_coefficients",
    "oas_coefficient",
]


def _dispersion_stat(block: SampleBlock) -> float:
    """Average squared distance (1/T^2) sum_t ||y_t y_t^H - R||_F^2.

    Computed through the identity sum_t ||S_t - R||^2 =
    sum_t ||y_t||^4 - T ||R||^2, the fourth-moment sum read from the
    block, and clamped at zero so rounding noise on dispersion-free
    samples cannot turn the statistic negative.
    """
    t = block.y.shape[1]
    return max(0.0, block.quart / t**2 - frobenius_norm_sq(block.r) / t)


def lw_coefficients(y: np.ndarray) -> ShrinkageSolution:
    """Ledoit-Wolf coefficients for shrinkage toward the identity.

    Returns (rho, tau) such that rho R + tau I estimates the covariance;
    tau absorbs the mean-eigenvalue calibration, so the target passed to
    :func:`shrink` should be the unscaled identity.
    """
    block = sample_block(y)
    r = block.r
    n = r.shape[0]
    mu = float(np.trace(r).real) / n
    delta2 = frobenius_norm_sq(r - mu * np.eye(n))
    if delta2 <= 0.0:
        return ShrinkageSolution(0.0, mu, Clip.RHO_ZERO)
    beta2 = min(delta2, _dispersion_stat(block))
    rho = (delta2 - beta2) / delta2
    return ShrinkageSolution(rho, (beta2 / delta2) * mu,
                             Clip.RHO_ZERO if rho == 0.0 else Clip.NONE)


def glc_coefficients(y: np.ndarray, target: np.ndarray) -> ShrinkageSolution:
    """Ledoit-Wolf-style coefficients for an arbitrary nonzero target.

    The target is first power-calibrated by its projection coefficient
    nu = <T0, R> / ||T0||^2; with the identity target this reduces
    exactly to :func:`lw_coefficients`.  A target the block did not
    build must be finite and Hermitian.
    """
    block = sample_block(y)
    r, t0 = block.r, block.checked(target)
    norm_t0 = frobenius_norm_sq(t0)
    if norm_t0 <= 0.0:
        raise ValueError("target must be nonzero")
    nu = block.trace(t0, r) / norm_t0
    d2 = frobenius_norm_sq(r - nu * t0)
    if d2 <= 0.0:
        return ShrinkageSolution(0.0, nu, Clip.RHO_ZERO)
    beta2 = min(d2, _dispersion_stat(block))
    rho = 1.0 - beta2 / d2
    return ShrinkageSolution(rho, nu * beta2 / d2,
                             Clip.RHO_ZERO if rho == 0.0 else Clip.NONE)


def oas_coefficient(y: np.ndarray) -> ShrinkageSolution:
    """Oracle-approximating convex shrinkage toward the scaled identity.

    Returns rho = 1 - tau with tau multiplying the trace-calibrated
    identity tr(R)/n I; tau always lands in [0, 1].
    """
    block = sample_block(y)
    r, t = block.r, block.y.shape[1]
    n = r.shape[0]
    tr = float(np.trace(r).real)
    tr2 = frobenius_norm_sq(r)
    num = (1.0 - 2.0 / n) * tr2 + tr**2
    den = (t + 1.0 - 2.0 / n) * (tr2 - tr**2 / n)
    tau = 1.0 if den <= 0.0 else min(1.0, num / den)
    return ShrinkageSolution(1.0 - tau, tau,
                             Clip.CONVEX_BOUNDARY if tau == 1.0 else Clip.NONE)
