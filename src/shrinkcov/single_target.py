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

Every moment and selection here is the K = 1 case of
:mod:`shrinkcov.multi_target`, solver included: this module keeps the
single-target views and reads the ``Clip`` flags off the point that the
active set returns.  The solver's thresholds and its PSD check
(:func:`shrinkcov.hermitian.is_psd`'s rule) are relative, so the
selection does not depend on data units, and it frees rho first, so
ties between the quadrant edges prefer tau = 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .estimators import ols_fit
from .hermitian import _TILE_BYTES
from .multi_target import (
    MultiMoments,
    _minimize,
    _selection_moments,
    mt_loocv_moments,
    mt_ols_loocv_moments,
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


def solve_quadratic_2d(m: QuadMoments, constrained: bool = False) -> ShrinkageSolution:
    """Minimize the selection objective: the K = 1 call of the active set.

    Unconstrained mode minimizes over the nonnegative quadrant
    rho, tau >= 0; constrained mode minimizes over the convex segment
    rho + tau = 1, rho in [0, 1].  Ties prefer tau = 0 (pure base
    estimate): the active set frees rho first on the quadrant and starts
    at rho's vertex on the segment.
    """
    rho, tau = _minimize([[m.a_rr, m.a_rt], [m.a_rt, m.a_tt]], [m.b_r, m.b_t],
                         m.const, constrained)
    if constrained:
        clip = Clip.CONVEX_BOUNDARY if 0.0 in (rho, tau) else Clip.NONE
    else:
        clip = (Clip.TAU_ZERO if tau == 0.0 else
                Clip.RHO_ZERO if rho == 0.0 else Clip.NONE)
    return ShrinkageSolution(rho, tau, clip, m.objective(rho, tau))


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
    target).  Requires T >= 3, the floor of every cross-validated selector.
    """
    return _quad(mt_scm_loocv_moments(samples, [target]))


def ols_fast_moments(inputs: np.ndarray, outputs: np.ndarray,
                     target: np.ndarray) -> QuadMoments:
    """Least-squares cross-validation moments: one fit, then the block core
    (:func:`mt_ols_loocv_moments` with one target); no R_t is formed."""
    return _quad(mt_ols_loocv_moments(ols_fit(inputs, outputs), [target]))


def oracle_moments(base: np.ndarray, target: np.ndarray,
                   truth: np.ndarray) -> QuadMoments:
    """Moments of the Frobenius error against the true covariance.

    Minimizing the resulting quadratic gives the oracle coefficients:
    || rho R + tau T0 - Sigma ||_F^2 expanded in trace products.
    """
    return _quad(mt_oracle_moments(base, [target], truth))


# ---------------------------------------------------------------------------
# selectors


def scm_solution_unconstrained(samples: np.ndarray,
                               target: np.ndarray) -> ShrinkageSolution:
    """Nonnegative (rho, tau) minimizing the cross-validated SCM cost."""
    return select_single_target("cv", target, samples=samples)


def scm_solution_constrained(samples: np.ndarray,
                             target: np.ndarray) -> ShrinkageSolution:
    """Convex-combination (rho + tau = 1) variant of the SCM selector; the
    target must keep tr R."""
    return select_single_target("cv_constrained", target, samples=samples)


def select_single_target(method: str, target: np.ndarray,
                         samples: np.ndarray | None = None,
                         truth: np.ndarray | None = None) -> ShrinkageSolution:
    """The K = 1 case of ``mt_select``, solved by its active set, which
    frees rho first (:func:`solve_quadratic_2d`).

    Parameters
    ----------
    method : str
        One of ``cv``, ``cv_constrained``, ``oracle``,
        ``oracle_constrained``.
    target : ndarray
        Shrinkage target T0.
    samples : ndarray, SampleBlock or OlsFit
        N x T samples or their block, or a least-squares fit
        (``ols_fit(inputs, outputs)``), as for ``mt_select``.
    truth : ndarray, optional
        True covariance; required by the oracle methods.
    """
    m, convex = _selection_moments(method, [target], samples, truth)
    return solve_quadratic_2d(_quad(m), constrained=convex)


def shrink(base: np.ndarray, target: np.ndarray,
           solution: ShrinkageSolution) -> np.ndarray:
    """Form the shrinkage estimate rho * base + tau * target.

    Nonnegative coefficients combined with PSD inputs keep the result
    PSD; negative or non-finite coefficients are rejected.  For operands
    of one shape, tau * target is added into rho * base a row strip of
    about one trace-sweep tile at a time, so the output is the one N x N
    array, and each entry is still rho * b + tau * t, bit for bit.
    """
    rho, tau = solution.rho, solution.tau
    if not (0.0 <= rho < math.inf and 0.0 <= tau < math.inf):  # NaN too
        raise ValueError("shrinkage coefficients must be finite and "
                         f"nonnegative, got {rho!r} and {tau!r}")
    if not np.ndim(base) or np.shape(base) != np.shape(target):  # broadcast
        return rho * base + tau * target
    out = np.empty(np.shape(base), np.result_type(rho, base, tau, target))
    np.multiply(rho, base, out=out)
    step = max(1, _TILE_BYTES // max(1, out[:1].nbytes))
    for i in range(0, len(out), step):
        out[i:i + step] += tau * target[i:i + step]
    return out
