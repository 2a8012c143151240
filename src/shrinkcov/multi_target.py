"""Multi-target linear shrinkage: rho R + sum_k tau_k T_k.

The leave-one-out selection cost is a K+1 dimensional convex quadratic
(or K dimensional under the convex-combination constraint
rho = 1 - sum_k tau_k).  The dimension equals the number of targets
plus one, which stays tiny in practice, so the nonnegativity
constraints are handled by a primal active-set method after Lawson and
Hanson's NNLS: each step solves one face of the feasible set in closed
form, visiting about one face per coordinate instead of all 2^(K+1).
That keeps the selection exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import scm
from .hermitian import (
    frobenius_norm_sq,
    is_psd,
    real_trace_product,
    require_hermitian,
    validate_samples,
)
from .single_target import _scm_loocv_terms

__all__ = [
    "MultiMoments",
    "MtSolution",
    "solve_nonneg_qp",
    "solve_nonneg_qp_simplex",
    "mt_loocv_moments",
    "mt_scm_loocv_moments",
    "mt_oracle_moments",
    "mt_constrained_moments",
    "mt_constrained_oracle_moments",
    "mt_select",
]

_MAX_DIM = 16


@dataclass(frozen=True)
class MultiMoments:
    """Coefficients of a convex quadratic x^T a x - 2 b . x + const."""

    a: np.ndarray
    b: np.ndarray
    const: float

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.a @ x - 2.0 * self.b @ x + self.const)


@dataclass(frozen=True)
class MtSolution:
    """Selected multi-target coefficients.

    ``active_targets`` lists the indices of targets with strictly
    positive weight.
    """

    rho: float
    taus: np.ndarray
    active_targets: tuple
    objective: float


def _validate_qp(m: MultiMoments) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(m.a, dtype=float)
    b = np.asarray(m.b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise ValueError("moment matrix and vector shapes do not match")
    if a.shape[0] > _MAX_DIM:
        raise ValueError(f"quadratic dimension {a.shape[0]} exceeds the "
                         f"supported limit {_MAX_DIM}")
    if not is_psd(a):
        raise ValueError("moment matrix is not positive semidefinite; "
                         "the selection objective is not convex")
    return a, b


def _active_set(a: np.ndarray, b: np.ndarray, simplex=False) -> np.ndarray:
    """Minimize x^T a x - 2 b . x over x >= 0 (and sum x = 1 for ``simplex``).

    Lawson-Hanson style primal active set: start at x = 0, or at the best
    vertex of the simplex, and free the coordinate with the largest
    multiplier w = b - a x - lam.  Each free block is a minimum-norm least
    squares solve, bordered by the sum-to-one row for the simplex; when
    it leaves the orthant, x steps back to the boundary.  As in NNLS, a
    freed coordinate whose own value comes out nonpositive is rejected
    until x moves.  Coordinates off the final free set are exact zeros.
    """
    dim = b.size
    x = np.zeros(dim)
    free = np.zeros(dim, dtype=bool)
    rejected = np.zeros(dim, dtype=bool)
    lam = 0.0
    if simplex:
        i = int(np.argmin(np.diag(a) - 2.0 * b))
        x[i], free[i], lam = 1.0, True, b[i] - a[i, i]
    tol = 1e-12 * max([1.0, *np.diag(a), *np.abs(b)])  # PSD: max|a| on diag

    def face(free):
        idx = np.flatnonzero(free)
        k = idx.size
        kkt = np.ones((k + simplex, k + simplex))
        kkt[:k, :k] = a[idx[:, None], idx]
        kkt[k:, k:] = 0.0
        sol = np.linalg.lstsq(kkt, np.append(b[idx], [1.0] * simplex),
                              rcond=None)[0]
        z = np.zeros(dim)
        z[idx] = sol[:k]
        return z, float(sol[k]) if simplex else 0.0

    # in exact arithmetic each freeing lowers the objective: no face repeats
    for _ in range(4 * dim * dim + 4):
        w = np.where(free | rejected, -np.inf, b - a @ x - lam)
        if not dim or w.max() <= tol:
            return x
        j = int(np.argmax(w))
        free[j] = True
        z, z_lam = face(free)
        if z[j] <= 0.0:
            free[j], rejected[j] = False, True
            continue
        rejected[:] = False
        while np.min(z[free], initial=np.inf) <= 0.0:
            out = free & (z <= 0.0)
            ratio = x[out] / (x[out] - z[out])
            x = x + float(np.min(ratio)) * (z - x)
            x[np.flatnonzero(out)[np.argmin(ratio)]] = 0.0
            free &= x > 0.0
            x[~free] = 0.0
            z, z_lam = face(free)
        x, lam = z, z_lam
    raise RuntimeError("active-set solve did not converge")


def solve_nonneg_qp(m: MultiMoments) -> tuple[np.ndarray, float]:
    """Minimize x^T a x - 2 b . x over x >= 0; returns (x, objective)."""
    a, b = _validate_qp(m)
    x = _active_set(a, b)
    return x, m.objective(x)


def solve_nonneg_qp_simplex(m: MultiMoments) -> tuple[np.ndarray, float]:
    """Minimize the quadratic over the simplex x >= 0, sum x <= 1.

    If the nonnegative minimizer already satisfies the sum constraint it
    is returned unchanged; otherwise the optimum lies on sum x = 1.
    """
    a, b = _validate_qp(m)
    x = _active_set(a, b)
    if float(np.sum(x)) > 1.0 + 1e-12:
        x = _active_set(a, b, simplex=True)
    return x, m.objective(x)


# ---------------------------------------------------------------------------
# moment accumulation


def mt_loocv_moments(loo_covs, samples: np.ndarray, targets) -> MultiMoments:
    """Cross-validation quadratic in (rho, tau_1..tau_K) from explicit R_t.

    Reference accumulator; :func:`mt_scm_loocv_moments` must agree with
    it on the sample-covariance path.
    """
    y = validate_samples(samples)
    targets = [require_hermitian(t0) for t0 in targets]
    count = y.shape[1]
    if len(loo_covs) != count:
        raise ValueError("need one leave-one-out estimate per sample")
    k = len(targets)
    a = np.zeros((k + 1, k + 1))
    b = np.zeros(k + 1)
    a00 = []
    a0k = [[] for _ in range(k)]
    b0 = []
    bk = [[] for _ in range(k)]
    const = []
    for i in range(count):
        r_i = loo_covs[i]
        y_i = y[:, i]
        a00.append(real_trace_product(r_i, r_i))
        b0.append(float(np.vdot(y_i, r_i @ y_i).real))
        const.append(float(np.vdot(y_i, y_i).real) ** 2)
        for j, t0 in enumerate(targets):
            a0k[j].append(real_trace_product(r_i, t0))
            bk[j].append(float(np.vdot(y_i, t0 @ y_i).real))
    a[0, 0] = math.fsum(a00) / count
    b[0] = math.fsum(b0) / count
    for j in range(k):
        a[0, j + 1] = a[j + 1, 0] = math.fsum(a0k[j]) / count
        b[j + 1] = math.fsum(bk[j]) / count
        for l in range(k):
            a[j + 1, l + 1] = real_trace_product(targets[j], targets[l])
    return MultiMoments(a=a, b=b, const=math.fsum(const) / count)


def mt_scm_loocv_moments(samples: np.ndarray, targets) -> MultiMoments:
    """Closed-form cross-validation quadratic on the SCM path (T >= 3).

    Every block reduces to tr(R^2), tr(R T_k), tr(T_j T_k) and the
    fourth-moment sum; the K+1 dimensional analogue of the single-target
    fast accumulator.
    """
    y = validate_samples(samples, min_count=3)
    targets = [require_hermitian(t0) for t0 in targets]
    r = scm(y)
    a_rr, b_r, quart = _scm_loocv_terms(r, y)
    k = len(targets)
    a = np.zeros((k + 1, k + 1))
    b = np.zeros(k + 1)
    a[0, 0] = a_rr
    b[0] = b_r
    for j, t0 in enumerate(targets):
        cross = real_trace_product(r, t0)
        a[0, j + 1] = a[j + 1, 0] = cross
        b[j + 1] = cross
        for l in range(j, k):
            a[j + 1, l + 1] = a[l + 1, j + 1] = real_trace_product(t0, targets[l])
    return MultiMoments(a=a, b=b, const=quart / y.shape[1])


def mt_oracle_moments(base: np.ndarray, targets, truth: np.ndarray) -> MultiMoments:
    """Frobenius-error quadratic || rho R + sum tau_k T_k - Sigma ||_F^2."""
    r = require_hermitian(base)
    targets = [require_hermitian(t0) for t0 in targets]
    sigma = require_hermitian(truth)
    mats = [r] + list(targets)
    k = len(mats)
    a = np.zeros((k, k))
    b = np.zeros(k)
    for i in range(k):
        b[i] = real_trace_product(mats[i], sigma)
        for j in range(i, k):
            a[i, j] = a[j, i] = real_trace_product(mats[i], mats[j])
    return MultiMoments(a=a, b=b, const=frobenius_norm_sq(sigma))


def _require_matched_traces(reference: np.ndarray, targets) -> None:
    tr_ref = float(np.trace(reference).real)
    tol = 1e-8 * max(1.0, abs(tr_ref))
    for j, t0 in enumerate(targets):
        if abs(float(np.trace(t0).real) - tr_ref) > tol:
            raise ValueError(f"target {j} does not match the base estimate "
                             "trace; the convex-combination design requires "
                             "trace-preserving targets")


def mt_constrained_moments(samples: np.ndarray, targets,
                           loo_covs=None) -> MultiMoments:
    """Quadratic in (tau_1..tau_K) for the convex-combination design.

    Under rho = 1 - sum tau_k the cross-validation cost becomes
    (1/T) sum_t || sum_k tau_k (T_k - R_t) + (R_t - y_t y_t^H) ||_F^2.
    Without ``loo_covs`` the SCM fast path is used (T >= 3); with them
    the cost is accumulated from the explicit matrices.

    The targets are held fixed across folds, so on the SCM path the
    linear term is the same for every target (``b = a_rr - b_r``) and
    only the quadratic term tells the targets apart.  This biases the
    selection, as measured on the AR(0.9) scene of acceptance check 8
    (n=25, T = 15, 25, 50, 21 seeds of 200 draws): the scaled-identity
    target (listed first there) got zero weight on every one of the
    12600 draws, while the best fixed weight vector in hindsight gives it
    0.03-0.19.  Two variants restore that weight: targets rebuilt from
    each leave-one-out R_t, and an unbiased estimate of the linear term
    of the Frobenius risk.  On seeds 6003-6005 both land 1.09-1.18x
    above the best fixed vector, against 1.05-1.19x for this design, so
    neither is better overall.  The bias is a property of the design,
    kept as is.
    """
    y = validate_samples(samples, min_count=2 if loo_covs is not None else 3)
    targets = [require_hermitian(t0) for t0 in targets]
    count = y.shape[1]
    r = scm(y)
    _require_matched_traces(r, targets)
    k = len(targets)

    if loo_covs is not None:
        if len(loo_covs) != count:
            raise ValueError("need one leave-one-out estimate per sample")
        a = np.zeros((k, k))
        b = np.zeros(k)
        const = []
        a_acc = [[[] for _ in range(k)] for _ in range(k)]
        b_acc = [[] for _ in range(k)]
        for i in range(count):
            r_i = loo_covs[i]
            y_i = y[:, i]
            resid = r_i - np.outer(y_i, y_i.conj())
            const.append(frobenius_norm_sq(resid))
            diffs = [t0 - r_i for t0 in targets]
            for m_ in range(k):
                b_acc[m_].append(-real_trace_product(diffs[m_], resid))
                for n_ in range(m_, k):
                    a_acc[m_][n_].append(real_trace_product(diffs[m_], diffs[n_]))
        for m_ in range(k):
            b[m_] = math.fsum(b_acc[m_]) / count
            for n_ in range(m_, k):
                a[m_, n_] = a[n_, m_] = math.fsum(a_acc[m_][n_]) / count
        return MultiMoments(a=a, b=b, const=math.fsum(const) / count)

    a_rr, b_r, quart = _scm_loocv_terms(r, y)
    cross = [real_trace_product(t0, r) for t0 in targets]
    a = np.zeros((k, k))
    for m_ in range(k):
        for n_ in range(m_, k):
            a[m_, n_] = a[n_, m_] = (real_trace_product(targets[m_], targets[n_])
                                     - cross[m_] - cross[n_] + a_rr)
    # the mean leave-one-out estimate equals R, so the linear term loses
    # its target dependence and is shared by every coordinate
    b = np.full(k, a_rr - b_r)
    return MultiMoments(a=a, b=b, const=a_rr - 2.0 * b_r + quart / count)


def mt_constrained_oracle_moments(base: np.ndarray, targets,
                                  truth: np.ndarray) -> MultiMoments:
    """Oracle quadratic || sum tau_k (T_k - R) + (R - Sigma) ||_F^2."""
    r = require_hermitian(base)
    targets = [require_hermitian(t0) for t0 in targets]
    sigma = require_hermitian(truth)
    _require_matched_traces(r, targets)
    k = len(targets)
    diffs = [t0 - r for t0 in targets]
    a = np.zeros((k, k))
    b = np.zeros(k)
    for m_ in range(k):
        b[m_] = real_trace_product(diffs[m_], sigma - r)
        for n_ in range(m_, k):
            a[m_, n_] = a[n_, m_] = real_trace_product(diffs[m_], diffs[n_])
    return MultiMoments(a=a, b=b, const=frobenius_norm_sq(r - sigma))


# ---------------------------------------------------------------------------
# selection facade


def mt_select(method: str, targets, samples: np.ndarray | None = None,
              truth: np.ndarray | None = None) -> MtSolution:
    """Select multi-target coefficients by the named method.

    Parameters
    ----------
    method : str
        ``cv`` / ``oracle`` minimize over the nonnegative cone;
        ``cv_constrained`` / ``oracle_constrained`` additionally impose
        rho = 1 - sum tau_k with tau on the simplex.
    targets : sequence of ndarray
        Shrinkage targets T_1..T_K.
    samples : ndarray
        N x T sample block.
    truth : ndarray, optional
        True covariance, required by the oracle methods.
    """
    if samples is None:
        raise ValueError("multi-target selection requires samples")
    if method in ("oracle", "oracle_constrained") and truth is None:
        raise ValueError("oracle selection requires the true covariance")

    if method == "cv":
        x, obj = solve_nonneg_qp(mt_scm_loocv_moments(samples, targets))
        rho, taus = float(x[0]), x[1:]
    elif method == "oracle":
        m = mt_oracle_moments(scm(samples), targets, truth)
        x, obj = solve_nonneg_qp(m)
        rho, taus = float(x[0]), x[1:]
    elif method == "cv_constrained":
        taus, obj = solve_nonneg_qp_simplex(mt_constrained_moments(samples, targets))
        rho = max(0.0, 1.0 - float(np.sum(taus)))
    elif method == "oracle_constrained":
        m = mt_constrained_oracle_moments(scm(samples), targets, truth)
        taus, obj = solve_nonneg_qp_simplex(m)
        rho = max(0.0, 1.0 - float(np.sum(taus)))
    else:
        raise ValueError(f"unknown selection method {method!r}; expected one "
                         "of cv, cv_constrained, oracle, oracle_constrained")

    active = tuple(k for k in range(len(taus)) if taus[k] > 0)
    return MtSolution(rho=rho, taus=taus, active_targets=active, objective=obj)
