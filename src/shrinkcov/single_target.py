"""Single-target linear shrinkage with leave-one-out coefficient selection.

The estimate is ``rho * R + tau * T0`` for a data-driven base estimate R
and a structured target T0.  Every selector here reduces to the same
2x2 quadratic program in (rho, tau): the cross-validation cost

    J(rho, tau) = (1/T) sum_t || rho R_t + tau T0 - y_t y_t^H ||_F^2

is a quadratic whose coefficients (``QuadMoments``) can be accumulated
without materializing the T leave-one-out estimates R_t on either the
sample-covariance or the least-squares path.  Oracle selection uses the
same machinery with the true covariance in place of the held-out
samples.

On the sample-covariance and oracle paths the moments are the K = 1
case of :mod:`shrinkcov.multi_target`'s accumulators; only the
least-squares path (:func:`ols_loo_moments`) accumulates here.  The 2x2
program is solved in closed form with thresholds relative to the
moments, so the selection does not depend on the units of the data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .estimators import (
    OlsFit,
    ols_covariance,
    ols_fit,
    ols_loo_blocks,
    scm,
)
from .hermitian import real_trace_product, require_hermitian, validate_samples
from .multi_target import (
    MultiMoments,
    mt_loocv_moments,
    mt_oracle_moments,
    mt_scm_loocv_moments,
)

__all__ = [
    "Clip",
    "QuadMoments",
    "ShrinkageSolution",
    "solve_quadratic_2d",
    "loocv_moments_general",
    "scm_fast_moments",
    "ols_fast_moments",
    "ols_loo_moments",
    "oracle_moments",
    "scm_solution_unconstrained",
    "scm_solution_constrained",
    "select_single_target",
    "shrink",
]


class Clip(enum.Enum):
    """How the optimizer reached the feasible set boundary, if at all."""

    NONE = "none"
    RHO_ZERO = "rho_zero"
    TAU_ZERO = "tau_zero"
    CONVEX_BOUNDARY = "convex_boundary"


@dataclass(frozen=True)
class QuadMoments:
    """Coefficients of the quadratic selection objective.

    J(rho, tau) = a_rr rho^2 + 2 a_rt rho tau + a_tt tau^2
                  - 2 b_r rho - 2 b_t tau + const
    """

    a_rr: float
    a_rt: float
    a_tt: float
    b_r: float
    b_t: float
    const: float

    def objective(self, rho: float, tau: float) -> float:
        return (self.a_rr * rho * rho + 2.0 * self.a_rt * rho * tau
                + self.a_tt * tau * tau
                - 2.0 * self.b_r * rho - 2.0 * self.b_t * tau + self.const)


@dataclass(frozen=True)
class ShrinkageSolution:
    """Selected coefficients, boundary flag, and attained objective."""

    rho: float
    tau: float
    clip: Clip = Clip.NONE
    objective: float = math.nan


def _require_psd_moments(m: QuadMoments) -> None:
    scale = max(m.a_rr, m.a_tt)
    det = m.a_rr * m.a_tt - m.a_rt * m.a_rt
    if m.a_rr < -1e-12 * scale or m.a_tt < -1e-12 * scale \
            or det < -1e-10 * scale * scale:
        raise ValueError("moment matrix is not positive semidefinite; "
                         "the selection objective is not convex")


def solve_quadratic_2d(m: QuadMoments, constrained: bool = False) -> ShrinkageSolution:
    """Minimize the selection objective in closed form.

    Unconstrained mode minimizes over the nonnegative quadrant
    rho, tau >= 0; constrained mode minimizes over the convex segment
    rho + tau = 1, rho in [0, 1].  Ties between the two quadrant edges
    deterministically prefer tau = 0 (pure base estimate).
    """
    _require_psd_moments(m)
    if constrained:
        return _solve_convex_segment(m)

    scale = max(m.a_rr, m.a_tt)
    det = m.a_rr * m.a_tt - m.a_rt * m.a_rt
    if det > 1e-14 * scale * scale:
        rho = (m.a_tt * m.b_r - m.a_rt * m.b_t) / det
        tau = (m.a_rr * m.b_t - m.a_rt * m.b_r) / det
        if rho >= 0.0 and tau >= 0.0:
            return ShrinkageSolution(rho, tau, Clip.NONE, m.objective(rho, tau))

    rho_edge = max(m.b_r, 0.0) / m.a_rr if m.a_rr > 0.0 else 0.0
    tau_edge = max(m.b_t, 0.0) / m.a_tt if m.a_tt > 0.0 else 0.0
    obj_tau0 = m.objective(rho_edge, 0.0)
    obj_rho0 = m.objective(0.0, tau_edge)
    if obj_tau0 <= obj_rho0:
        return ShrinkageSolution(rho_edge, 0.0, Clip.TAU_ZERO, obj_tau0)
    return ShrinkageSolution(0.0, tau_edge, Clip.RHO_ZERO, obj_rho0)


def _solve_convex_segment(m: QuadMoments) -> ShrinkageSolution:
    """Minimize along rho + tau = 1 with rho in [0, 1]."""
    curv = m.a_rr - 2.0 * m.a_rt + m.a_tt
    scale = max(m.a_rr, m.a_tt)
    if curv <= 1e-14 * scale:
        # every point of the segment yields the same estimate
        return ShrinkageSolution(1.0, 0.0, Clip.CONVEX_BOUNDARY,
                                 m.objective(1.0, 0.0))
    rho = (m.a_tt - m.a_rt + m.b_r - m.b_t) / curv
    clipped = min(max(rho, 0.0), 1.0)
    clip = Clip.NONE if clipped == rho else Clip.CONVEX_BOUNDARY
    return ShrinkageSolution(clipped, 1.0 - clipped, clip,
                             m.objective(clipped, 1.0 - clipped))


# ---------------------------------------------------------------------------
# moment accumulation


def _quad(m: MultiMoments) -> QuadMoments:
    """The single-target view of one-target (2 x 2) moments, as floats."""
    (a_rr, a_rt), (_, a_tt) = m.a.tolist()
    b_r, b_t = m.b.tolist()
    return QuadMoments(a_rr, a_rt, a_tt, b_r, b_t, m.const)


def loocv_moments_general(loo_covs, samples: np.ndarray,
                          target: np.ndarray) -> QuadMoments:
    """Accumulate the cross-validation quadratic from explicit R_t matrices.

    Works for any estimation path; the fast accumulators below must
    agree with this reference on their respective paths.
    """
    return _quad(mt_loocv_moments(loo_covs, samples, [target]))


def scm_fast_moments(samples: np.ndarray, target: np.ndarray) -> QuadMoments:
    """Cross-validation moments on the sample-covariance path, in closed form.

    Uses the rank-one leave-one-out identity to express every moment
    through tr(R^2), tr(R T0) and the fourth-moment sum of the samples,
    so no R_t is ever formed (:func:`mt_scm_loocv_moments` with one
    target).  Requires T >= 3 so the T-2 factor stays positive.
    """
    return _quad(mt_scm_loocv_moments(samples, [target]))


def _col_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise inner products a[:, j]^H b[:, j] of equal-shape blocks."""
    return np.einsum("ij,ij->j", a.conj(), b)


def ols_fast_moments(inputs: np.ndarray, outputs: np.ndarray,
                     target: np.ndarray) -> QuadMoments:
    """Least-squares cross-validation moments: one fit, then the block core."""
    return ols_loo_moments(ols_fit(inputs, outputs), outputs, target)


def ols_loo_moments(fit: OlsFit, outputs: np.ndarray,
                    target: np.ndarray) -> QuadMoments:
    """Cross-validation moments from a full least-squares fit of ``outputs``.

    Per-sample traces of the rank-one updates (:func:`ols_loo_blocks`)
    are column inner products of N x T blocks; the only matrix products
    are R E, T0 E, R Y and T0 Y, and no R_t or refit is formed.
    """
    y = validate_samples(outputs, name="outputs")
    if y.shape != fit.residuals.shape:
        raise ValueError(f"outputs of shape {y.shape} do not match the fit's "
                         f"residuals {fit.residuals.shape}")
    t0 = require_hermitian(target)
    e, _, delta, phi, psi = ols_loo_blocks(fit)
    r = ols_covariance(fit)
    n, count = y.shape
    tr_r2 = real_trace_product(r, r)
    rt_cross = real_trace_product(r, t0)
    tr_r, tr_t0 = float(np.trace(r).real), float(np.trace(t0).real)

    # linear-in-update traces
    re_ = r @ e
    tr_rd = (delta * tr_r + _col_inner(phi, re_).real
             + _col_inner(re_, psi).real)
    # quadratic-in-update traces via scalar products of the vectors
    pe = _col_inner(phi, e)     # phi^H e
    ep = _col_inner(e, psi)     # e^H psi
    ee = _col_inner(e, e).real
    pp = _col_inner(phi, psi)   # phi^H psi
    tr_d2 = (n * delta * delta + 2.0 * delta * (pe + ep).real
             + (pe * pe + ep * ep + 2.0 * ee * pp).real)
    a_rr = tr_r2 - 2.0 * tr_rd + tr_d2

    t0e = t0 @ e
    a_rt = rt_cross - (delta * tr_t0 + _col_inner(phi, t0e).real
                       + _col_inner(t0e, psi).real)

    ny2 = _col_inner(y, y).real
    ye = _col_inner(y, e)       # y^H e; e^H y is its conjugate
    py = _col_inner(phi, y)     # phi^H y
    ys = _col_inner(y, psi)     # y^H psi
    quad_full = _col_inner(y, r @ y).real
    b_r = quad_full - (delta * ny2 + (ye * py).real + (ys * ye.conj()).real)
    b_t = _col_inner(y, t0 @ y).real

    def mean(v):  # correctly rounded, whatever the summation order
        return math.fsum(v.tolist()) / count
    return QuadMoments(a_rr=mean(a_rr), a_rt=mean(a_rt),
                       a_tt=real_trace_product(t0, t0), b_r=mean(b_r),
                       b_t=mean(b_t), const=mean(ny2 * ny2))


def oracle_moments(base: np.ndarray, target: np.ndarray,
                   truth: np.ndarray) -> QuadMoments:
    """Moments of the Frobenius error against the true covariance.

    Minimizing the resulting quadratic gives the oracle coefficients:
    || rho R + tau T0 - Sigma ||_F^2 expanded in trace products.
    """
    return _quad(mt_oracle_moments(base, [target], truth))


# ---------------------------------------------------------------------------
# closed-form selectors


def scm_solution_unconstrained(samples: np.ndarray,
                               target: np.ndarray) -> ShrinkageSolution:
    """Nonnegative (rho, tau) minimizing the cross-validated SCM cost."""
    return solve_quadratic_2d(scm_fast_moments(samples, target))


def scm_solution_constrained(samples: np.ndarray,
                             target: np.ndarray) -> ShrinkageSolution:
    """Convex-combination (rho + tau = 1) variant of the SCM selector."""
    return solve_quadratic_2d(scm_fast_moments(samples, target),
                              constrained=True)


def select_single_target(method: str, target: np.ndarray,
                         samples: np.ndarray | None = None,
                         truth: np.ndarray | None = None,
                         inputs: np.ndarray | None = None,
                         outputs: np.ndarray | None = None) -> ShrinkageSolution:
    """Dispatch facade over the single-target selectors.

    Parameters
    ----------
    method : str
        One of ``cv``, ``cv_constrained``, ``oracle``,
        ``oracle_constrained``.
    target : ndarray
        Shrinkage target T0.
    samples : ndarray, optional
        N x T sample block (sample-covariance path).
    truth : ndarray, optional
        True covariance; required by the oracle methods.
    inputs, outputs : ndarray, optional
        Regression data (least-squares path); overrides ``samples``.
    """
    ols_data = inputs is not None and outputs is not None
    if not ols_data and samples is None:
        raise ValueError("provide either samples or inputs+outputs")

    if method in ("oracle", "oracle_constrained"):
        if truth is None:
            raise ValueError("oracle selection requires the true covariance")
        base = ols_covariance(ols_fit(inputs, outputs)) if ols_data \
            else scm(samples)
        m = oracle_moments(base, target, truth)
        return solve_quadratic_2d(m, constrained=method.endswith("constrained"))
    if method in ("cv", "cv_constrained"):
        m = ols_fast_moments(inputs, outputs, target) if ols_data \
            else scm_fast_moments(samples, target)
        return solve_quadratic_2d(m, constrained=method.endswith("constrained"))
    raise ValueError(f"unknown selection method {method!r}; expected one of "
                     "cv, cv_constrained, oracle, oracle_constrained")


def shrink(base: np.ndarray, target: np.ndarray,
           solution: ShrinkageSolution) -> np.ndarray:
    """Form the shrinkage estimate rho * base + tau * target.

    Nonnegative coefficients combined with PSD inputs keep the result
    PSD; negative coefficients are rejected.
    """
    if solution.rho < 0.0 or solution.tau < 0.0:
        raise ValueError("shrinkage coefficients must be nonnegative")
    return solution.rho * base + solution.tau * target
