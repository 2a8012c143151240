"""Multi-target linear shrinkage: rho R + sum_k tau_k T_k.

This module is the package's one accumulator of trace-product moments:
the leave-one-out and oracle selection costs are a K+1 dimensional
convex quadratic in (rho, tau_1..tau_K).  Its three accumulators (SCM
path, least-squares path, oracle) form no leave-one-out estimate; the
reference :func:`mt_loocv_moments` takes them explicitly.  The
single-target moments of :mod:`shrinkcov.single_target` are the K = 1
case.  The convex-combination design rho = 1 - sum_k tau_k is the same
quadratic minimized over the probability simplex in (rho, tau).

The dimension stays tiny in practice, so one primal active-set method
after Lawson and Hanson's NNLS solves every K and both designs, the
single target being K = 1.  Each step solves one face of the feasible
set in closed form, visiting about one face per coordinate instead of
all 2^(K+1).  Ties prefer the base estimate: the cone frees rho first,
and the simplex starts at rho's vertex unless another is better by more
than the stopping tolerance.  That keeps the selection exactly
reproducible.  It runs on Python floats, as numpy's per-call cost
outweighs arithmetic this small: each solve converts its quadratic to
lists once and evaluates its objective on them, in the order of
:meth:`MultiMoments.objective`.  A Cholesky factor solves each face,
and ``lstsq`` (minimum norm) only a face that is not numerically
positive definite.  Dividing the moments by their largest diagonal
entry first makes the selection free of the data's units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .estimators import (
    OlsFit,
    _operands,
    _SampleFactor,
    _structure,
    sample_block,
)
from .hermitian import _tile_side, _trace_products, _widened, is_psd

__all__ = [
    "MultiMoments",
    "MtSolution",
    "solve_nonneg_qp",
    "solve_nonneg_qp_simplex",
    "mt_loocv_moments",
    "mt_scm_loocv_moments",
    "mt_ols_loocv_moments",
    "mt_oracle_moments",
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
        """The quadratic at x, evaluated on Python floats."""
        a, b = _lists(self)
        x = np.asarray(x, dtype=float).reshape(len(b)).tolist()
        return _value(a, b, self.const, x)


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


def _lists(m: MultiMoments) -> tuple[list, list]:
    """(a, b) of ``m`` as lists of floats, their shapes checked."""
    a, b = np.asarray(m.a, dtype=float), np.asarray(m.b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise ValueError("moment matrix and vector shapes do not match")
    return a.tolist(), b.tolist()


def _dot(u, v) -> float:
    """Sum of u_i v_i, added in order (``sum`` compensates since 3.12)."""
    total = 0.0
    for p, q in zip(u, v):
        total += p * q
    return total


def _value(a, b, const, x) -> float:
    """x^T a x - 2 b . x + const of lists a, b and x: the one evaluation
    order of :meth:`MultiMoments.objective` and of every solve."""
    ax = [_dot(row, x) for row in a]
    return _dot(x, ax) - 2.0 * _dot(b, x) + const


def _factor(a, free) -> list:
    """Cholesky rows of list a on the coordinates ``free``, cut short at a
    pivot at most 1e-12 of 1 or of their largest diagonal entry if larger,
    1 being the largest diagonal moment of the checked quadratic."""
    low = []
    cut = 1e-12 * max([1.0, *[a[i][i] for i in free]])
    for i in free:
        ai, li = a[i], []
        for j, lj in zip(free, low):
            li.append((ai[j] - _dot(li, lj)) / lj[-1])
        pivot = ai[i] - _dot(li, li)
        if pivot <= cut:
            break
        li.append(math.sqrt(pivot))
        low.append(li)
    return low


def _checked(a, b, const) -> tuple[list, list, list]:
    """Finite lists (a, b) divided by the largest diagonal moment, so that
    the PSD check, the stopping rule and the face cutoffs do not depend on
    the data's units, and a's Cholesky rows.  A full factor shows a
    positive definite; else :func:`is_psd`'s rule decides."""
    dim = len(b)
    if dim > _MAX_DIM:
        raise ValueError(f"quadratic dimension {dim} exceeds the "
                         f"supported limit {_MAX_DIM}")
    if not all(map(math.isfinite, chain([const], b, *a))):
        raise ValueError(_NONFINITE)
    scale = max([a[i][i] for i in range(dim)], default=0.0)
    if scale > 0.0:
        a, b = [[v / scale for v in row] for row in a], [v / scale for v in b]
    low = _factor(a, range(dim))
    if len(low) < dim and not is_psd(np.reshape(a, (dim, dim))):
        raise ValueError("moment matrix is not positive semidefinite; "
                         "the selection objective is not convex")
    return a, b, low


def _cholesky_solve(low, r) -> list:
    """y with L L^T y = r for the rows ``low`` of a lower triangular L."""
    y = []
    for li, ri in zip(low, r):
        y.append((ri - _dot(li, y)) / li[-1])
    for i in range(len(y) - 1, -1, -1):  # back substitution by columns
        li = low[i]
        yi = y[i] = y[i] / li[i]
        for j in range(i):
            y[j] -= li[j] * yi
    return y


def _solve_face(a, b, free, simplex=False, low=None):
    """Minimizer z of z^T a z - 2 b . z on the coordinates ``free`` of lists
    a, b (zero elsewhere; sum z = 1 for ``simplex``) and the multiplier lam
    of that border, (a z)_i + lam = b_i on ``free``, by Cholesky from
    u = A^-1 b, v = A^-1 1: lam = (sum u - 1) / sum v, z = u - lam v; by
    minimum-norm ``lstsq`` if the face's factor (``low``, if given) is
    short."""
    k = len(free)
    low = _factor(a, free) if low is None else low
    rhs, lam = [b[i] for i in free], 0.0
    if not k or len(low) < k:
        kkt = np.ones((k + simplex, k + simplex))
        kkt[:k, :k] = [[a[i][j] for j in free] for i in free]
        kkt[k:, k:] = 0.0
        z = np.linalg.lstsq(kkt, rhs + [1.0] * simplex, rcond=None)[0].tolist()
        lam = z.pop() if simplex else 0.0
    elif simplex:
        ones = [1.0] * k
        u, v = _cholesky_solve(low, rhs), _cholesky_solve(low, ones)
        lam = (_dot(u, ones) - 1.0) / _dot(v, ones)
        z = [p - lam * q for p, q in zip(u, v)]
    else:
        z = _cholesky_solve(low, rhs)
    x = [0.0] * len(b)
    for i, v in zip(free, z):
        x[i] = v
    return x, lam


def _ray(a, b, free, j, tol) -> bool:
    """Whether d >= 0 with d_j = 1, a_FF d_F = -a_Fj on F = ``free`` and 0
    elsewhere is a ray of descent whose minimizer, if any, is past 1e12."""
    z = _solve_face(a, a[j], free)[0]  # -d on F
    size, slope = 1.0 - math.fsum(z), b[j] - _dot(b, z)
    return (max(z) <= 0.0 and slope > tol * size
            and a[j][j] - _dot(a[j], z) <= 1e-12 * size * slope)


def _active_set(a, b, simplex=False, low=()) -> list:
    """Minimize x^T a x - 2 b . x over x >= 0 (and sum x = 1 for ``simplex``).

    Lawson-Hanson style primal active set on lists a, b.  Given the full
    factor ``low`` of a positive definite a, a strictly positive minimizer
    of the whole face is the optimum.  Else start at x = 0, or at the best
    vertex of the simplex (index 0's unless another is better by more than
    the stopping tolerance), and free a coordinate whose multiplier
    w = b - a x - lam exceeds that tolerance: index 0 (rho) whenever it
    does, so that ties prefer the pure base estimate, else the first
    largest.  When a face's solution leaves the orthant, x steps back to
    the boundary.  As in NNLS, a freed coordinate whose own value comes
    out nonpositive is rejected until x moves; the cone gives None if it
    stops with one along an unbounded ray (:func:`_ray`).  Coordinates off
    the final free set are exact zeros.
    """
    dim = len(b)
    if dim and len(low) == dim:
        x = _solve_face(a, b, range(dim), simplex, low)[0]
        if min(x) > 0.0:
            return x
    x, free, rejected, lam = [0.0] * dim, [], [], 0.0
    tol = 1e-12 * max([1.0, *[a[i][i] for i in range(dim)], *map(abs, b)])
    if simplex:
        cost = [a[i][i] - 2.0 * b[i] for i in range(dim)]
        least = min(cost)
        i = 0 if cost[0] <= least + tol else cost.index(least)
        x[i], free, lam = 1.0, [i], b[i] - a[i][i]

    # in exact arithmetic each freeing lowers the objective: no face repeats
    for _ in range(4 * dim * dim + 4):
        j = None  # the first largest multiplier w_j off the face, or rho's
        for i in range(dim):
            if i not in free and i not in rejected:
                w = b[i] - _dot(a[i], x) - lam
                if j is None or w > w_j:
                    j, w_j = i, w
                if i == 0 and w > tol:
                    break
        if j is None or w_j <= tol:
            ray = any(_ray(a, b, free, i, tol) for i in rejected if not simplex)
            return None if ray else x
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


def _simplex(a, b, low) -> list:
    """Minimizer over x >= 0, sum x <= 1: the cone's, else on sum x = 1."""
    x = _active_set(a, b, False, low)
    if x is None or _dot(x, [1.0] * len(x)) > 1.0 + 1e-12:
        x = _active_set(a, b, True, low)
    return x


def _minimize(a, b, const, convex=False) -> list:
    """Minimizer x = (rho, tau_1..tau_K) >= 0 of the checked quadratic of
    lists a, b; the ``convex`` design adds rho + sum_k tau_k = 1."""
    a, b, low = _checked(a, b, const)
    if (x := _active_set(a, b, convex, low)) is None:
        raise ValueError("the selection objective is unbounded below")
    return x


def solve_nonneg_qp(m: MultiMoments) -> tuple[np.ndarray, float]:
    """Minimize x^T a x - 2 b . x over x >= 0; returns (x, objective)."""
    a, b = _lists(m)
    x = _minimize(a, b, m.const)
    return np.array(x), _value(a, b, m.const, x)


def solve_nonneg_qp_simplex(m: MultiMoments) -> tuple[np.ndarray, float]:
    """Minimize the quadratic over x >= 0, sum x <= 1; (x, objective)."""
    a, b = _lists(m)
    x = _simplex(*_checked(a, b, m.const))
    return np.array(x), _value(a, b, m.const, x)


# ---------------------------------------------------------------------------
# moment accumulation


def _gram(mats, owner=None) -> np.ndarray:
    """Symmetric matrix of the real trace products tr(M_i M_j) of Hermitian
    matrices, the coefficients of every selection quadratic; its diagonal
    holds the squared norms ||M_i||_F^2.

    A pair that ``owner`` (a block or a fit) owns both of comes from its
    memo; every other pair is taken in one sweep over the operands
    (:func:`hermitian._trace_products`), in which R may be a sample
    factor (:func:`shrinkcov.estimators._operands`).  The sweep first
    validates every array that ``owner`` does not own, in order, as
    :func:`hermitian.require_hermitian` would; each is in a pair it
    takes.  When R is a sample factor over several tiles with T < N and
    every other operand a registered target, the whole Gram comes in
    closed form instead (:func:`_structured_gram`).
    """
    if (g := _structured_gram(mats)) is not None:
        return g
    k = len(mats)
    owned = [False] * k if owner is None else list(map(owner.owns, mats))
    g, rest, memo = [[0.0] * k for _ in range(k)], [], []
    for i in range(k):
        for j in range(i, k):
            (memo if owned[i] and owned[j] else rest).append((i, j))
    if rest:
        check = [i for i, m in enumerate(mats)
                 if not owned[i] and isinstance(m, np.ndarray)]
        for (i, j), v in zip(rest, _trace_products(mats, rest, check)):
            g[i][j] = g[j][i] = v
    for i, j in memo:
        g[i][j] = g[j][i] = owner.trace(mats[i], mats[j])
    return np.array(g)


def _structured_gram(mats) -> np.ndarray | None:
    """The Gram of :func:`_gram` from Y and the targets' structures, in
    O(N T log N), when R is a sample factor over several tiles with T < N
    and every target is registered (:func:`estimators._structure`) and of
    R's shape; None for any other operands, so that the sweep raises a
    mismatched shape's error.

    A target is its diagonal d plus, if Toeplitz, its bands c_k, k >= 1,
    so with r_i = ||y_i||^2 / T, R's diagonal, s_k R's band sums
    (``SampleBlock.band_sums``) and n_k = N - k band k's length:
    tr R^2 = ``SampleBlock.tr_r2``, tr(R X) = sum_i d_i r_i + 2 sum_k c_k
    Re s_k, and tr(X X') = sum_i d_i d'_i + 2 sum_k n_k c_k c'_k, the band
    terms present only where the targets have bands.
    """
    r = mats[0]
    if not isinstance(r, _SampleFactor):
        return None
    n, t = r.y.shape
    if (t >= n or n <= _tile_side(max(m.itemsize for m in mats))
            or any(m.shape != r.shape for m in mats[1:])):
        return None
    structs = [_structure(m) for m in mats[1:]]
    if any(x is None for x in structs):
        return None
    block, lengths = r.block, np.arange(n - 1, 0, -1.0)
    k = len(mats)
    g = np.empty((k, k))
    g[0, 0] = block.tr_r2
    for i, (d, c) in enumerate(structs, 1):
        v = _inner(d, block.row_norms) / t
        if c is not None:
            v += 2.0 * _inner(c, block.band_sums[1:])
        g[0, i] = g[i, 0] = v
        for j, (d2, c2) in enumerate(structs[i - 1:], i):
            v = _inner(d, d2)
            if c is not None and c2 is not None:
                v += 2.0 * _inner(lengths * c, c2)
            g[i, j] = g[j, i] = v
    return g


def _inner(u: np.ndarray, v: np.ndarray) -> float:
    """sum_i u_i v_i of two real vectors, by einsum rather than BLAS."""
    return float(np.einsum("i,i->", u, v))


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
    folds = [mt_oracle_moments(r_i, targets, np.outer(y_i, y_i.conj()))
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
    T = 2 (:func:`_scm_loocv_moments`).  ``samples`` may be a block; R
    is formed only if the block owns every target.
    """
    return _scm_loocv_moments(sample_block(samples, min_count=3), targets)


def _scm_loocv_moments(block, targets) -> MultiMoments:
    """:func:`mt_scm_loocv_moments` of a block of T >= 2 samples."""
    count, quart = block.y.shape[1], block.quart
    a = _gram(_operands(block, targets)[0], block)
    b = a[0].copy()
    tr_r2 = float(a[0, 0])
    a[0, 0] = (count * (count - 2) / (count - 1) ** 2 * tr_r2
               + quart / (count * (count - 1) ** 2))
    b[0] = count / (count - 1) * tr_r2 - quart / (count * (count - 1))
    return MultiMoments(a=a, b=b, const=quart / count)


def mt_ols_loocv_moments(fit: OlsFit, targets) -> MultiMoments:
    """Cross-validation quadratic on the least-squares path, from one fit.

    Refit t's estimate is R_t = R - D_t, D_t = delta_t I + e_t phi_t^H
    + psi_t e_t^H (column t of :func:`ols_loo_blocks`), so each M of
    (R, T_1..T_K) needs only tr(D_t M) and y_t^H M y_t, column inner
    products of N x T blocks of the fit and its outputs ``fit.y``: no R_t
    or refit is formed.  The terms of R, tr(D_t^2), ||y_t||^2 and tr D_t
    depend on the fit alone, which keeps them (``fit.loo_terms``); a
    call forms those of each of its targets (``fit.loo_products``), but
    of a scaled identity mu I the fit built, they are mu tr D_t and
    mu ||y_t||^2.  The fit's own R and targets are not checked again,
    and their products come from its memo.
    """
    mats = _operands(fit, targets)[0]
    a = _gram(mats, fit)  # validates the raw targets first
    tr_dr, tr_d2, quad_r, ny2, tr_d = fit.loo_terms
    row, quad = [a[0, 0] - 2.0 * tr_dr + tr_d2], [quad_r]  # tr(R_t^2)
    for k, m in enumerate(mats[1:], 1):
        mu = fit.scale(m)
        tr_dm, quad_m = (fit.loo_products(m) if mu is None
                         else (mu * tr_d, mu * ny2))
        row.append(a[0, k] - tr_dm)     # tr(R_t T_k)
        quad.append(quad_m)             # y_t^H T_k y_t

    def mean(v):  # correctly rounded, whatever the summation order
        return math.fsum(v.tolist()) / ny2.size
    a[0] = a[:, 0] = [mean(v) for v in row]
    return MultiMoments(a=a, b=np.array([mean(v) for v in quad]),
                        const=mean(ny2 * ny2))


def mt_oracle_moments(base: np.ndarray, targets, truth: np.ndarray) -> MultiMoments:
    """Frobenius-error quadratic || rho R + sum tau_k T_k - Sigma ||_F^2.

    ``base`` may be a sample block or a least-squares fit; R is then its
    own, and the products of the matrices it owns (R, its targets and a
    registered truth) come from its memo.  A block that does not own
    them all does not form R (:func:`shrinkcov.estimators._operands`).
    The quadratic is read from the Gram of (R, T_1..T_K, Sigma): its
    constant is tr(Sigma Sigma) = ||Sigma||_F^2.
    """
    mats, owner = _operands(base, [*targets, truth])
    k = len(mats) - 1
    g = _gram(mats, owner)
    return MultiMoments(a=g[:k, :k], b=g[:k, k], const=float(g[k, k]))


def _require_trace(targets, tr_r: float) -> None:
    """Check that each target keeps tr R = ``tr_r`` to 1e-8 relative; a
    target's trace is summed in 64-bit precision (:func:`_widened`)."""
    for j, t0 in enumerate(targets):
        if abs(float(_widened(t0).trace().real) - tr_r) > 1e-8 * abs(tr_r):
            raise ValueError(f"target {j} does not match the base estimate "
                             "trace; the convex-combination design requires "
                             "trace-preserving targets")


# ---------------------------------------------------------------------------
# selection


def _selection_moments(method: str, targets, samples, truth=None):
    """The (rho, tau_1..tau_K) quadratic of ``method`` and whether it is
    a convex-combination method.

    The one dispatch on method names, behind both selection facades.
    The base, ``samples`` as a block or a least-squares fit, picks the
    cross-validation moments by its type.  The convex methods require
    trace-preserving targets.
    """
    if method not in ("cv", "cv_constrained", "oracle", "oracle_constrained"):
        raise ValueError(f"unknown selection method {method!r}; expected one "
                         "of cv, cv_constrained, oracle, oracle_constrained")
    if samples is None:
        raise ValueError("selection requires samples")
    oracle = method.startswith("oracle")
    if oracle and truth is None:
        raise ValueError("oracle selection requires the true covariance")
    targets = list(targets)
    base = samples if isinstance(samples, OlsFit) else sample_block(samples)
    m = (mt_oracle_moments(base, targets, truth) if oracle
         else mt_ols_loocv_moments(base, targets) if isinstance(base, OlsFit)
         else mt_scm_loocv_moments(base, targets))
    convex = method.endswith("constrained")
    if convex:  # a block's tr R is ||Y||_F^2 / T, without forming R
        _require_trace(targets, base.tr_r)
    return m, convex


def mt_select(method: str, targets, samples: np.ndarray | None = None,
              truth: np.ndarray | None = None) -> MtSolution:
    """Select multi-target coefficients by the named method.

    Parameters
    ----------
    method : str
        ``cv`` / ``oracle`` minimize over the nonnegative cone;
        ``cv_constrained`` / ``oracle_constrained`` minimize over the
        simplex rho + sum tau_k = 1 of the same cone.
    targets : sequence of ndarray
        Shrinkage targets T_1..T_K.
    samples : ndarray, SampleBlock or OlsFit
        N x T samples, their block, or a least-squares fit of the samples.
    truth : ndarray, optional
        True covariance, required by the oracle methods.
    """
    m, convex = _selection_moments(method, targets, samples, truth)
    if convex:
        a, b = _lists(m)
        x = _minimize(a, b, m.const, True)
        obj = _value(a, b, m.const, x)
    else:
        x, obj = solve_nonneg_qp(m)
        x = x.tolist()
    cutoff = 1e-10 * max(x)
    active = tuple(k for k, tau in enumerate(x[1:]) if tau > cutoff)
    return MtSolution(rho=x[0], taus=np.array(x[1:]), active_targets=active,
                      objective=obj)
