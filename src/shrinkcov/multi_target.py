"""Multi-target linear shrinkage: rho R + sum_k tau_k T_k.

This module is the package's one accumulator of trace-product moments:
the leave-one-out and oracle selection costs are a K+1 dimensional
convex quadratic in (rho, tau_1..tau_K).  Its three accumulators (SCM
path, least-squares path, oracle) form no leave-one-out estimate; the
reference :func:`mt_loocv_moments` takes them explicitly.  The
single-target moments of :mod:`shrinkcov.single_target` are the K = 1
case.  The convex-combination design rho = 1 - sum_k tau_k is one
substitution applied to those moments, which leaves a K dimensional
quadratic.

The dimension stays tiny in practice, so the nonnegativity constraints
are handled by a primal active-set method after Lawson and Hanson's
NNLS: each step solves one face of the feasible set in closed form,
visiting about one face per coordinate instead of all 2^(K+1).  That
keeps the selection exactly reproducible.  It runs on Python floats, as
numpy's per-call cost outweighs arithmetic this small: a Cholesky factor
solves each face, and ``lstsq`` (minimum norm) only a face that is not
numerically positive definite.  Dividing the moments by their largest
diagonal entry first makes the selection free of the data's units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import OlsFit, _base, ols_fit, ols_loo_blocks, sample_block
from .hermitian import (
    frobenius_norm_sq,
    is_psd,
    outer_product,
    real_trace_product,
    require_hermitian,
)

__all__ = [
    "MultiMoments",
    "MtSolution",
    "solve_nonneg_qp",
    "solve_nonneg_qp_simplex",
    "mt_loocv_moments",
    "mt_scm_loocv_moments",
    "mt_ols_loocv_moments",
    "mt_oracle_moments",
    "mt_constrained_moments",
    "mt_constrained_oracle_moments",
    "mt_select",
]

_MAX_DIM = 16
_NONFINITE = "moments are not finite: NaN or infinite data, or an overflow"


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

    ``active_targets`` lists the indices of targets whose weight exceeds
    1e-10 times the largest coefficient, so that weights at rounding
    level, which the cone's active set can leave behind, do not count.
    """

    rho: float
    taus: np.ndarray
    active_targets: tuple
    objective: float


def _validate_qp(m: MultiMoments) -> tuple[np.ndarray, np.ndarray]:
    """Checked finite (a, b) divided by the largest diagonal moment, so
    that the PSD check, the stopping rule and the face solves' cutoffs do
    not depend on the units of the data (moments scale as c^4).
    """
    a = np.asarray(m.a, dtype=float)
    b = np.asarray(m.b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise ValueError("moment matrix and vector shapes do not match")
    if a.shape[0] > _MAX_DIM:
        raise ValueError(f"quadratic dimension {a.shape[0]} exceeds the "
                         f"supported limit {_MAX_DIM}")
    if not (np.isfinite(a).all() and np.isfinite(np.append(b, m.const)).all()):
        raise ValueError(_NONFINITE)
    scale = float(a.diagonal().max(initial=0.0))
    if scale > 0.0:
        a, b = a / scale, b / scale
    if not is_psd(a):
        raise ValueError("moment matrix is not positive semidefinite; "
                         "the selection objective is not convex")
    return a, b


def _dot(u, v) -> float:
    """Sum of u_i v_i, added in order (``sum`` compensates since 3.12)."""
    total = 0.0
    for p, q in zip(u, v):
        total += p * q
    return total


def _solve_face(a, b, free, simplex=False):
    """Minimizer z of z^T a z - 2 b . z on the coordinates ``free`` of lists
    a, b (zero elsewhere; sum z = 1 for ``simplex``) and the multiplier lam
    of that border, (a z)_i + lam = b_i on ``free``, by Cholesky from
    u = A^-1 b, v = A^-1 1: lam = (sum u - 1) / sum v, z = u - lam v."""
    k, low, top = len(free), [], max([a[i][i] for i in free], default=0.0)
    for i in free:
        li = []
        for j, lj in zip(free, low):
            li.append((a[i][j] - _dot(li, lj)) / lj[-1])
        pivot = a[i][i] - _dot(li, li)
        if pivot <= 1e-12 * top:
            break
        low.append(li + [math.sqrt(pivot)])

    def solve(r):
        y = []
        for i, li in enumerate(low):
            y.append((r[i] - _dot(li, y)) / li[i])
        for i in reversed(range(k)):  # back substitution by columns
            y[i] /= low[i][i]
            for j in range(i):
                y[j] -= low[i][j] * y[i]
        return y
    rhs, ones, lam = [b[i] for i in free], [1.0] * k, 0.0
    if not k or len(low) < k:
        kkt = np.ones((k + simplex, k + simplex))
        kkt[:k, :k] = [[a[i][j] for j in free] for i in free]
        kkt[k:, k:] = 0.0
        z = np.linalg.lstsq(kkt, rhs + [1.0] * simplex, rcond=None)[0].tolist()
        lam = z.pop() if simplex else 0.0
    elif simplex:
        u, v = solve(rhs), solve(ones)
        lam = (_dot(u, ones) - 1.0) / _dot(v, ones)
        z = [p - lam * q for p, q in zip(u, v)]
    else:
        z = solve(rhs)
    z = dict(zip(free, z))
    return [z.get(i, 0.0) for i in range(len(b))], lam


def _active_set(a: np.ndarray, b: np.ndarray, simplex=False) -> np.ndarray:
    """Minimize x^T a x - 2 b . x over x >= 0 (and sum x = 1 for ``simplex``).

    Lawson-Hanson style primal active set: start at x = 0, or at the best
    vertex of the simplex, and free the coordinate with the largest
    multiplier w = b - a x - lam.  A scalar Cholesky factor solves each
    free block, or face; ``lstsq`` (minimum norm) solves only a face with
    a pivot at most 1e-12 of its largest diagonal entry.  When the solution
    leaves the orthant, x steps back to the boundary.  As in NNLS, a freed
    coordinate whose own value comes out nonpositive is rejected until x
    moves.  Coordinates off the final free set are exact zeros.
    """
    a, b, dim = a.tolist(), b.tolist(), b.size
    x, free, rejected, lam = [0.0] * dim, [], [], 0.0
    if simplex:
        i = min(range(dim), key=lambda i: a[i][i] - 2.0 * b[i])
        x[i], free, lam = 1.0, [i], b[i] - a[i][i]
    tol = 1e-12 * max([1.0, *(a[i][i] for i in range(dim)), *map(abs, b)])

    # in exact arithmetic each freeing lowers the objective: no face repeats
    for _ in range(4 * dim * dim + 4):
        w = {i: b[i] - _dot(a[i], x) - lam for i in range(dim)
             if i not in free and i not in rejected}
        j = max(w, key=w.get, default=None)  # the first largest
        if j is None or w[j] <= tol:
            return np.array(x)
        grown = sorted(free + [j])
        z, z_lam = _solve_face(a, b, grown, simplex)
        if z[j] <= 0.0:
            rejected.append(j)
            continue
        free, rejected = grown, []
        while out := [i for i in free if z[i] <= 0.0]:
            ratio = [x[i] / (x[i] - z[i]) for i in out]
            step = min(ratio)
            x = [p + step * (q - p) for p, q in zip(x, z)]
            x[out[ratio.index(step)]] = 0.0
            free = [i for i in free if x[i] > 0.0]
            x = [x[i] if i in free else 0.0 for i in range(dim)]
            z, z_lam = _solve_face(a, b, free, simplex)
        x, lam = z, z_lam
    raise RuntimeError("active-set solve did not converge")


def solve_nonneg_qp(m: MultiMoments) -> tuple[np.ndarray, float]:
    """Minimize x^T a x - 2 b . x over x >= 0; returns (x, objective).

    The objective is evaluated on the moments as given.
    """
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


def _gram(mats) -> np.ndarray:
    """Symmetric matrix of the real trace products tr(M_i M_j)."""
    k = len(mats)
    g = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            g[i, j] = g[j, i] = real_trace_product(mats[i], mats[j])
    return g


def mt_loocv_moments(loo_covs, samples: np.ndarray, targets) -> MultiMoments:
    """Cross-validation quadratic in (rho, tau_1..tau_K) from explicit R_t.

    Fold t's cost || rho R_t + sum_k tau_k T_k - y_t y_t^H ||_F^2 is the
    oracle quadratic of R_t against the held-out y_t y_t^H, so this is
    the mean of T :func:`mt_oracle_moments`.  Reference accumulator;
    :func:`mt_scm_loocv_moments` must agree with it on the
    sample-covariance path.
    """
    y = sample_block(samples).y
    targets = list(targets)
    if len(loo_covs) != y.shape[1]:
        raise ValueError("need one leave-one-out estimate per sample")
    folds = [mt_oracle_moments(r_i, targets, outer_product(y_i))
             for r_i, y_i in zip(loo_covs, y.T)]
    return MultiMoments(a=np.mean([f.a for f in folds], axis=0),
                        b=np.mean([f.b for f in folds], axis=0),
                        const=float(np.mean([f.const for f in folds])))


def mt_scm_loocv_moments(samples: np.ndarray, targets) -> MultiMoments:
    """Closed-form cross-validation quadratic on the SCM path (T >= 3).

    With R = scm(y) and R_t its leave-one-out estimates, the rank-one
    leave-one-out identity expresses a_00 = mean_t tr(R_t^2) and
    b_0 = mean_t y_t^H R_t y_t through tr(R^2) and the fourth-moment sum
    sum_t ||y_t||^4 alone, so no R_t is ever formed.  The mean R_t is R,
    so a_0k = b_k = tr(R T_k); a_jk = tr(T_j T_k).  Requires T >= 3, the
    floor of every cross-validated selector; the closed form holds from
    T = 2 (:func:`_scm_loocv_moments`).  ``samples`` may be a block.
    """
    return _scm_loocv_moments(sample_block(samples, min_count=3), targets)


def _scm_loocv_moments(block, targets) -> MultiMoments:
    """:func:`mt_scm_loocv_moments` of a block of T >= 2 samples."""
    y, count = block.y, block.y.shape[1]
    a = _gram([block.r, *map(block.checked, targets)])
    b = a[0].copy()
    tr_r2 = float(a[0, 0])
    quart = float(np.sum(np.sum(np.abs(y) ** 2, axis=0) ** 2))
    a[0, 0] = (count * (count - 2) / (count - 1) ** 2 * tr_r2
               + quart / (count * (count - 1) ** 2))
    b[0] = count / (count - 1) * tr_r2 - quart / (count * (count - 1))
    return MultiMoments(a=a, b=b, const=quart / count)


def _col_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise inner products a[:, j]^H b[:, j] of equal-shape blocks."""
    return np.einsum("ij,ij->j", a.conj(), b)


def mt_ols_loocv_moments(fit: OlsFit, outputs: np.ndarray,
                         targets) -> MultiMoments:
    """Cross-validation quadratic on the least-squares path, from one fit.

    Refit t's estimate is R_t = R - D_t, D_t = delta_t I + e_t phi_t^H
    + psi_t e_t^H (column t of :func:`ols_loo_blocks`), so each M of
    (R, T_1..T_K) needs only tr(D_t M) and y_t^H M y_t, column inner
    products of N x T blocks: no R_t or refit is formed.  ``outputs``
    may be a sample block.
    """
    y = sample_block(outputs, name="outputs").y
    if y.shape != fit.residuals.shape:
        raise ValueError(f"outputs of shape {y.shape} do not match the fit's "
                         f"residuals {fit.residuals.shape}")
    targets = [require_hermitian(t0) for t0 in targets]
    e, _, delta, phi, psi = ols_loo_blocks(fit)
    mats = [fit.covariance, *targets]
    n, count = y.shape
    a = _gram(mats)

    def update_trace(m):  # tr(D_t M) for every t
        me = m @ e
        return (delta * float(np.trace(m).real) + _col_inner(phi, me).real
                + _col_inner(me, psi).real)

    # tr(D_t^2) via scalar products of the update vectors
    pe = _col_inner(phi, e)     # phi^H e
    ep = _col_inner(e, psi)     # e^H psi
    ee = _col_inner(e, e).real
    pp = _col_inner(phi, psi)   # phi^H psi
    tr_d2 = (n * delta * delta + 2.0 * delta * (pe + ep).real
             + (pe * pe + ep * ep + 2.0 * ee * pp).real)
    tr_dm = [update_trace(m) for m in mats]
    row = [a[0, 0] - 2.0 * tr_dm[0] + tr_d2]    # tr(R_t^2)
    row += [a[0, k] - tr_dm[k] for k in range(1, len(mats))]  # tr(R_t T_k)

    ny2 = _col_inner(y, y).real
    ye = _col_inner(y, e)       # y^H e; e^H y is its conjugate
    py = _col_inner(phi, y)     # phi^H y
    ys = _col_inner(y, psi)     # y^H psi
    quad = [_col_inner(y, m @ y).real for m in mats]   # y_t^H M y_t
    quad[0] = quad[0] - (delta * ny2 + (ye * py).real + (ys * ye.conj()).real)

    def mean(v):  # correctly rounded, whatever the summation order
        return math.fsum(v.tolist()) / count
    a[0] = a[:, 0] = [mean(v) for v in row]
    return MultiMoments(a=a, b=np.array([mean(v) for v in quad]),
                        const=mean(ny2 * ny2))


def mt_oracle_moments(base: np.ndarray, targets, truth: np.ndarray) -> MultiMoments:
    """Frobenius-error quadratic || rho R + sum tau_k T_k - Sigma ||_F^2.

    ``base`` may be a sample block; R is then its sample covariance.
    """
    r, _, check = _base(base)
    mats = [r, *map(check, targets)]
    sigma = require_hermitian(truth)
    a = _gram(mats)
    b = np.array([real_trace_product(m, sigma) for m in mats])
    return MultiMoments(a=a, b=b, const=frobenius_norm_sq(sigma))


def _convex_design(m: MultiMoments, tr_r=0.0, targets=()) -> MultiMoments:
    """Substitute rho = 1 - sum_k tau_k into a (rho, tau) quadratic.

    Returns the quadratic in tau alone, exactly:
    a'_kl = a_kl - a_0k - a_0l + a_00, b'_k = b_k - a_0k + a_00 - b_0 and
    c' = a_00 - 2 b_0 + c.  The design needs trace-preserving targets:
    each of ``targets`` must match tr R = ``tr_r`` to 1e-8 relative.
    """
    for j, t0 in enumerate(targets):
        if abs(float(np.trace(t0).real) - tr_r) > 1e-8 * abs(tr_r):
            raise ValueError(f"target {j} does not match the base estimate "
                             "trace; the convex-combination design requires "
                             "trace-preserving targets")
    a, b = m.a, m.b
    return MultiMoments(a=a[1:, 1:] - a[1:, :1] - a[:1, 1:] + a[0, 0],
                        b=b[1:] - a[0, 1:] + a[0, 0] - b[0],
                        const=float(a[0, 0] - 2.0 * b[0] + m.const))


def mt_constrained_moments(samples: np.ndarray, targets) -> MultiMoments:
    """Quadratic in (tau_1..tau_K) for the convex-combination design.

    Under rho = 1 - sum tau_k the cross-validation cost becomes
    (1/T) sum_t || sum_k tau_k (T_k - R_t) + (R_t - y_t y_t^H) ||_F^2,
    accumulated on the SCM path (T >= 3).

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
    targets = list(targets)
    return _convex_design(*_selection_moments("cv_constrained", targets,
                                              samples), targets)


def mt_constrained_oracle_moments(base: np.ndarray, targets,
                                  truth: np.ndarray) -> MultiMoments:
    """Oracle quadratic || sum tau_k (T_k - R) + (R - Sigma) ||_F^2."""
    targets = list(targets)
    return _convex_design(mt_oracle_moments(base, targets, truth),
                          float(np.trace(_base(base)[0]).real), targets)


# ---------------------------------------------------------------------------
# selection


def _selection_moments(method: str, targets, samples=None, truth=None,
                       inputs=None, outputs=None):
    """The (rho, tau_1..tau_K) quadratic of ``method`` and tr R of its base.

    The one dispatch on method names, behind both selection facades.
    ``inputs`` and ``outputs`` select the least-squares base.  tr R is
    None for the cone methods, which need no trace guard.
    """
    if method not in ("cv", "cv_constrained", "oracle", "oracle_constrained"):
        raise ValueError(f"unknown selection method {method!r}; expected one "
                         "of cv, cv_constrained, oracle, oracle_constrained")
    ols = inputs is not None and outputs is not None
    if not ols and samples is None:
        raise ValueError("selection requires samples, or inputs and outputs")
    oracle = method.startswith("oracle")
    if oracle and truth is None:
        raise ValueError("oracle selection requires the true covariance")
    if ols:
        fit = ols_fit(inputs, outputs)
        r = fit.covariance
        m = (mt_oracle_moments(r, targets, truth) if oracle
             else mt_ols_loocv_moments(fit, outputs, targets))
    else:
        block = sample_block(samples)
        r = block.r
        m = (mt_oracle_moments(block, targets, truth) if oracle
             else mt_scm_loocv_moments(block, targets))
    return m, float(np.trace(r).real) if method.endswith("constrained") else None


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
    targets = list(targets)
    m, tr_r = _selection_moments(method, targets, samples, truth)
    if tr_r is None:
        x, obj = solve_nonneg_qp(m)
        rho, taus = float(x[0]), x[1:]
    else:
        taus, obj = solve_nonneg_qp_simplex(_convex_design(m, tr_r, targets))
        rho = max(0.0, 1.0 - float(np.sum(taus)))

    cutoff = 1e-10 * max([rho, *taus])
    active = tuple(k for k in range(len(taus)) if taus[k] > cutoff)
    return MtSolution(rho=rho, taus=taus, active_targets=active, objective=obj)
