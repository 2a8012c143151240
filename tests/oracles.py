"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: dense products, explicit refits,
grid scans, projected gradient, face enumeration, and a 2 x 2 solve by
case analysis that the package's active set must match. Apart from the
tau-form of the convex design, the paired MultiTargetAr reference, the
dense MMSE channel composition at the end and the pairwise
``real_trace_product`` of the dense Gram, nothing imports from shrinkcov,
so the package and these oracles can only agree by computing the same
mathematics.
"""
import math

import numpy as np

from shrinkcov.applications import ls_to_channel_cov, mmse_channel_estimate
from shrinkcov.datagen import RngStream, ar_covariance, gaussian_samples
from shrinkcov.estimators import scm
from shrinkcov.hermitian import real_trace_product
from shrinkcov.multi_target import (
    MultiMoments,
    mt_oracle_moments,
    mt_scm_loocv_moments,
    solve_nonneg_qp_simplex,
)
from shrinkcov.single_target import (
    QuadMoments,
    oracle_moments,
    solve_quadratic_2d,
)
from shrinkcov.targets import (
    diagonal_target,
    scaled_identity_target,
    toeplitz_average_target,
)


def gram_dense(y, targets):
    """Gram of the trace products of R = y y^H / T and the targets, each a
    dense N x N copy, pair by pair by ``real_trace_product``."""
    mats = [y @ y.conj().T / y.shape[1], *[np.array(m) for m in targets]]
    return np.array([[real_trace_product(a, b) for b in mats] for a in mats])


def trace_product_dense(a, b):
    """Re tr(a @ b) via an actual matrix product."""
    return float(np.trace(a @ b).real)


def hermitian_check_dense(a):
    """Deviation and scale of the Hermitian check, from dense N x N arrays.

    Returns (max|a - a^H|, max(1, max|a|)); the check accepts ``a`` at
    tolerance ``tol`` when the first is at most ``tol`` times the second.
    """
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    return dev, scale


def require_hermitian_dense(a, tol=1e-10):
    """The Hermitian check on dense N x N arrays, with the package's
    messages: square, then finite, then max|a - a^H| <= tol * max(1,
    max|a|)."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix is non-finite (NaN or infinite entries)")
    with np.errstate(over="ignore"):
        dev, scale = hermitian_check_dense(a)
    if dev > tol * scale:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return a


def trace_products_unfused(mats, pairs, check, tiles):
    """Trace products of array operands as a separate check and a plain
    sweep take them: each mats[k], k in ``check``, through
    :func:`require_hermitian_dense` in order, then Re <mats[i], mats[j]>_F
    for each (i, j) of ``pairs`` summed over the upper-triangle ``tiles``,
    the diagonal ones once and the others twice, with no tile skipped.

    A tile product is an einsum of the interleaved (real, imag) parts
    when both operands are complex, else of the real parts, and the sum
    is taken on Python floats.
    """
    for k in check:
        require_hermitian_dense(mats[k])
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise ValueError(f"trace of mismatched shapes {mats[0].shape} "
                             f"and {m.shape}; expected square operands of "
                             "equal shape")

    def parts(t, both):
        return (np.ascontiguousarray(t, dtype=np.complex128).view(np.float64)
                if both else t.real)
    sums = [0.0] * len(pairs)
    for rows, cols in tiles:
        weight = 1.0 if rows == cols else 2.0
        for p, (i, j) in enumerate(pairs):
            both = np.iscomplexobj(mats[i]) and np.iscomplexobj(mats[j])
            x = parts(mats[i][rows, cols], both)
            y = parts(mats[j][rows, cols], both)
            sums[p] += weight * float(np.einsum("ij,ij->", x, y))
    return sums


def toeplitz_dense(c, r):
    """Toeplitz matrix entry by entry: T[i, j] = c[i - j] for i >= j and
    r[j - i] for j > i."""
    t = np.empty((len(c), len(r)), dtype=np.result_type(c, r))
    for i in range(len(c)):
        for j in range(len(r)):
            t[i, j] = c[i - j] if i >= j else r[j - i]
    return t


def toeplitz_first_row_loop(r):
    """Band means of ``r``: the mean real part of each superdiagonal."""
    n = r.shape[0]
    first_row = np.empty(n)
    for i in range(n):
        first_row[i] = float(np.mean(np.diagonal(r, offset=i).real))
    return first_row


def random_hermitian(n, rng, complex_field=True):
    a = rng.standard_normal((n, n))
    if complex_field:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_psd(n, rng, complex_field=True, rank=None):
    m = rank if rank is not None else n
    a = rng.standard_normal((n, m))
    if complex_field:
        a = a + 1j * rng.standard_normal((n, m))
    return a @ a.conj().T / m


def random_samples(n, t, rng, complex_field=True):
    y = rng.standard_normal((n, t))
    if complex_field:
        y = (y + 1j * rng.standard_normal((n, t))) / np.sqrt(2)
    return y


def scm_naive(y):
    n, t = y.shape
    acc = np.zeros((n, n), dtype=complex if np.iscomplexobj(y) else float)
    for i in range(t):
        acc += np.outer(y[:, i], y[:, i].conj())
    return acc / t


def loo_scm_naive(y, t):
    """Sample covariance with column t removed, recomputed from scratch."""
    return scm_naive(np.delete(y, t, axis=1))


def scm_leave_one_out(r, y, t):
    """Sample covariance with column ``t`` removed, by the rank-one downdate
    R_t = (T R - y_t y_t^H) / (T - 1) of the sample covariance ``r`` of the
    N x T block ``y`` (T >= 2), the identity the package's SCM moments use.
    """
    y = np.asarray(y)
    if y.ndim != 2 or y.shape[1] < 2:
        raise ValueError(f"need an N x T block with T >= 2, got {y.shape}")
    count = y.shape[1]
    if not 0 <= t < count:
        raise ValueError(f"hold-out index {t} outside 0..{count - 1}")
    yt = y[:, t]
    return (count * r - np.outer(yt, yt.conj())) / (count - 1)


def ols_refit(x, y):
    """Least-squares coefficient/noise/covariance via numpy.linalg.lstsq."""
    t = x.shape[1]
    n = y.shape[0]
    h = np.linalg.lstsq(x.T, y.T, rcond=None)[0].T
    resid = y - h @ x
    sigma2 = float(np.vdot(resid, resid).real) / (t * n)
    cov = h @ h.conj().T + sigma2 * np.eye(n)
    return h, sigma2, (cov + cov.conj().T) / 2


def ols_loo_cov_refit(x, y, t):
    """Covariance model refit with sample t deleted from both X and Y."""
    xr = np.delete(x, t, axis=1)
    yr = np.delete(y, t, axis=1)
    return ols_refit(xr, yr)[2]


def ols_loo_moments_loop(x, y, target):
    """Least-squares LOOCV moments by a per-sample loop over rank-one terms.

    The same update algebra as the package's column-block path, one
    sample at a time with scalar products of vectors, as the package
    computed it before the blocks.  Returns the six moments by name.
    """
    n, t = y.shape
    gram_dirs = np.linalg.solve(x @ x.conj().T, x)
    coef = y @ gram_dirs.conj().T
    resid = y - coef @ x
    noise_var = float(np.vdot(resid, resid).real) / (t * n)
    leverage = np.sum(x.conj() * gram_dirs, axis=0).real
    r = coef @ coef.conj().T + noise_var * np.eye(n)
    tr_r = float(np.trace(r).real)
    tr_r2 = trace_product_dense(r, r)
    tr_t0 = float(np.trace(target).real)
    rt_cross = trace_product_dense(r, target)
    acc = {f: [] for f in ("a_rr", "a_rt", "b_r", "b_t", "const")}
    for i in range(t):
        y_i = y[:, i]
        e = resid[:, i]
        slack = 1.0 - leverage[i]
        f = gram_dirs[:, i] / slack
        delta = (float(np.vdot(e, e).real) / (n * (t - 1) * slack)
                 - noise_var / (t - 1))
        phi = coef @ f
        psi = phi - float(np.vdot(f, f).real) * e

        re_ = r @ e
        tr_rd = (delta * tr_r + float(np.vdot(phi, re_).real)
                 + float(np.vdot(re_, psi).real))
        pe = complex(np.vdot(phi, e))
        ep = complex(np.vdot(e, psi))
        ee = float(np.vdot(e, e).real)
        pp = complex(np.vdot(phi, psi))
        tr_d2 = (n * delta * delta + 2.0 * delta * (pe + ep).real
                 + (pe * pe + ep * ep + 2.0 * ee * pp).real)
        acc["a_rr"].append(tr_r2 - 2.0 * tr_rd + tr_d2)

        t0e = target @ e
        acc["a_rt"].append(rt_cross - (delta * tr_t0
                                       + float(np.vdot(phi, t0e).real)
                                       + float(np.vdot(t0e, psi).real)))

        ny2 = float(np.vdot(y_i, y_i).real)
        ye = complex(np.vdot(y_i, e))
        py = complex(np.vdot(phi, y_i))
        ys = complex(np.vdot(y_i, psi))
        ey = complex(np.vdot(e, y_i))
        quad_full = float(np.vdot(y_i, r @ y_i).real)
        acc["b_r"].append(quad_full - (delta * ny2 + (ye * py).real
                                       + (ys * ey).real))
        acc["b_t"].append(float(np.vdot(y_i, target @ y_i).real))
        acc["const"].append(ny2 ** 2)
    out = {f: math.fsum(v) / t for f, v in acc.items()}
    out["a_tt"] = trace_product_dense(target, target)
    return out


def mt_moments_dense(covs, holdouts, targets):
    """Mean over folds f of the quadratic in (rho, tau_1..tau_K) of
    || rho covs[f] + sum_k tau_k T_k - holdouts[f] ||_F^2, from dense
    Frobenius products of the explicit matrices: the leave-one-out
    quadratic with covs[f] = R_f and holdouts[f] = y_f y_f^H, the oracle
    one with a single fold (R, Sigma)."""
    def dot(p, q):
        return float(np.vdot(p, q).real)
    a, b, const = [], [], []
    for cov, held in zip(covs, holdouts):
        mats = [cov, *targets]
        a.append([[dot(p, q) for q in mats] for p in mats])
        b.append([dot(p, held) for p in mats])
        const.append(dot(held, held))
    return MultiMoments(a=np.mean(a, axis=0), b=np.mean(b, axis=0),
                        const=math.fsum(const) / len(const))


def cv_cost_direct(rho, tau, loo_covs, samples, target):
    """(1/T) sum_t || rho R_t + tau T0 - y_t y_t^H ||_F^2, no shortcuts."""
    t = samples.shape[1]
    acc = 0.0
    for i in range(t):
        s_i = np.outer(samples[:, i], samples[:, i].conj())
        d = rho * loo_covs[i] + tau * target - s_i
        acc += float(np.vdot(d, d).real)
    return acc / t


def mt_cv_cost_direct(coeffs, loo_covs, samples, targets):
    """Direct multi-target LOOCV cost; coeffs = (rho, tau_1, ..., tau_K)."""
    t = samples.shape[1]
    acc = 0.0
    for i in range(t):
        s_i = np.outer(samples[:, i], samples[:, i].conj())
        d = coeffs[0] * loo_covs[i] - s_i
        for k, tk in enumerate(targets):
            d = d + coeffs[1 + k] * tk
        acc += float(np.vdot(d, d).real)
    return acc / t


def mt_constrained_cost_direct(taus, loo_covs, samples, targets):
    """Direct cost of || sum_k tau_k (T_k - R_t) + (R_t - S_t) ||_F^2 averaged."""
    t = samples.shape[1]
    acc = 0.0
    for i in range(t):
        s_i = np.outer(samples[:, i], samples[:, i].conj())
        d = loo_covs[i] - s_i
        for k, tk in enumerate(targets):
            d = d + taus[k] * (tk - loo_covs[i])
        acc += float(np.vdot(d, d).real)
    return acc / t


def mt_constrained_oracle_cost_direct(taus, base, targets, truth):
    """Direct || sum_k tau_k (T_k - R) + (R - Sigma) ||_F^2, no expansion."""
    d = base - truth
    for k, tk in enumerate(targets):
        d = d + taus[k] * (tk - base)
    return float(np.vdot(d, d).real)


def quad_objective(a, b, c, x):
    x = np.asarray(x, dtype=float)
    return float(x @ a @ x - 2.0 * x @ b + c)


def grid_min_2d_full(a11, a12, a22, b1, b2, c, lo=0.0, hi=3.0, step=1e-3,
                     chunk=256):
    """Exhaustive scan of the quadratic over a square grid (chunked rows)."""
    g = np.arange(int(round((hi - lo) / step)) + 1) * step + lo
    best = np.inf
    for start in range(0, g.size, chunk):
        rho = g[start:start + chunk, None]
        tau = g[None, :]
        j = (a11 * rho ** 2 + 2 * a12 * rho * tau + a22 * tau ** 2
             - 2 * b1 * rho - 2 * b2 * tau + c)
        m = float(j.min())
        if m < best:
            best = m
    return best


def grid_min_2d_fast(a11, a12, a22, b1, b2, c, lo=0.0, hi=3.0, step=1e-3):
    """Exact same minimum as grid_min_2d_full, computed per tau-column.

    For each tau gridline the cost is a 1-D quadratic in rho; its minimum
    over the rho grid is attained at one of the two gridpoints bracketing
    the (clipped) vertex, so scanning those two per column reproduces the
    full-grid minimum exactly.
    """
    g = np.arange(int(round((hi - lo) / step)) + 1) * step + lo
    tau = g
    if a11 <= 0:
        # cost linear (or concave) in rho: extremes of the grid only
        cand_rho = np.array([lo, hi])
        best = np.inf
        for r in cand_rho:
            j = (a11 * r ** 2 + 2 * a12 * r * tau + a22 * tau ** 2
                 - 2 * b1 * r - 2 * b2 * tau + c)
            best = min(best, float(j.min()))
        return best
    vertex = (b1 - a12 * tau) / a11
    vertex = np.clip(vertex, lo, hi)
    idx = (vertex - lo) / step
    lo_idx = np.clip(np.floor(idx).astype(int), 0, g.size - 1)
    hi_idx = np.clip(lo_idx + 1, 0, g.size - 1)
    best = np.inf
    for rho in (g[lo_idx], g[hi_idx]):
        j = (a11 * rho ** 2 + 2 * a12 * rho * tau + a22 * tau ** 2
             - 2 * b1 * rho - 2 * b2 * tau + c)
        best = min(best, float(j.min()))
    return best


def grid_min_constrained(a11, a12, a22, b1, b2, c, step=1e-3):
    """Scan of the cost along the rho + tau = 1 segment, rho in [0, 1]."""
    rho = np.arange(int(round(1.0 / step)) + 1) * step
    tau = 1.0 - rho
    j = (a11 * rho ** 2 + 2 * a12 * rho * tau + a22 * tau ** 2
         - 2 * b1 * rho - 2 * b2 * tau + c)
    return float(j.min())


def closed_form_2d(a_rr, a_rt, a_tt, b_r, b_t, const, constrained=False):
    """Minimizer of the single-target quadratic by case analysis.

    J(rho, tau) = a_rr rho^2 + 2 a_rt rho tau + a_tt tau^2 - 2 b_r rho
    - 2 b_t tau + const, over rho, tau >= 0 or, ``constrained``, over the
    segment rho + tau = 1.  Returns (rho, tau, clip, tie): clip names the
    boundary met ("none", "rho_zero", "tau_zero", "convex_boundary"), and
    tie says that an edge solution had the same objective on both edges
    to 1e-12 relative (collinear moments), where this reference takes
    tau = 0 unless rounding favours the other edge.  Assumes PSD, finite
    moments.
    """
    def j(rho, tau):
        return (a_rr * rho * rho + 2.0 * a_rt * rho * tau + a_tt * tau * tau
                - 2.0 * b_r * rho - 2.0 * b_t * tau + const)
    scale = max(a_rr, a_tt)
    if constrained:
        curv = a_rr - 2.0 * a_rt + a_tt
        if curv <= 1e-14 * scale:  # every point gives the same estimate
            return 1.0, 0.0, "convex_boundary", False
        rho = (a_tt - a_rt + b_r - b_t) / curv
        clipped = min(max(rho, 0.0), 1.0)
        clip = "none" if clipped == rho else "convex_boundary"
        return clipped, 1.0 - clipped, clip, False
    det = a_rr * a_tt - a_rt * a_rt
    if det > 1e-14 * scale * scale:
        rho = (a_tt * b_r - a_rt * b_t) / det
        tau = (a_rr * b_t - a_rt * b_r) / det
        if rho >= 0.0 and tau >= 0.0:
            return rho, tau, "none", False
    rho_edge = max(b_r, 0.0) / a_rr if a_rr > 0.0 else 0.0
    tau_edge = max(b_t, 0.0) / a_tt if a_tt > 0.0 else 0.0
    obj_tau0, obj_rho0 = j(rho_edge, 0.0), j(0.0, tau_edge)
    tie = abs(obj_tau0 - obj_rho0) <= 1e-12 * max(abs(obj_tau0), abs(const))
    if obj_tau0 <= obj_rho0:
        return rho_edge, 0.0, "tau_zero", tie
    return 0.0, tau_edge, "rho_zero", tie


def projected_gradient_nonneg(a, b, iters=20000):
    """Projected gradient for min x'Ax - 2x'b s.t. x >= 0 (slow, reliable)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lip = 2 * np.linalg.eigvalsh(a)[-1]
    step = 1.0 / max(lip, 1e-12)
    x = np.maximum(np.linalg.lstsq(a, b, rcond=None)[0], 0.0)
    for _ in range(iters):
        grad = 2 * (a @ x - b)
        x = np.maximum(x - step * grad, 0.0)
    return x



def _faces(dim):
    """All index subsets, largest first, in a fixed deterministic order."""
    masks = sorted(range(1 << dim),
                   key=lambda msk: (bin(msk).count("1"), msk), reverse=True)
    for mask in masks:
        yield [i for i in range(dim) if mask >> i & 1]


def enumerate_nonneg_qp(m):
    """Minimize x^T a x - 2 b . x over x >= 0 by exact face enumeration.

    On each face the free block is solved with a minimum-norm least
    squares solve, so singular but consistent moment systems still get
    a deterministic answer.  Returns the minimizer and the attained
    objective.  Reference for the package's active-set solver: 2^dim solves.
    """
    a = np.asarray(m.a, dtype=float)
    b = np.asarray(m.b, dtype=float)
    dim = a.shape[0]
    best_x = None
    best_obj = math.inf
    for idx in _faces(dim):
        x = np.zeros(dim)
        if idx:
            sub_a = a[np.ix_(idx, idx)]
            sub_b = b[idx]
            sol = np.linalg.lstsq(sub_a, sub_b, rcond=None)[0]
            scale = max(1.0, float(np.max(np.abs(sub_b))))
            if np.max(np.abs(sub_a @ sol - sub_b)) > 1e-9 * scale:
                continue  # face minimum not attained (b outside the range)
            if np.min(sol) < -1e-12:
                continue
            x[idx] = np.maximum(sol, 0.0)
        obj = m.objective(x)
        if best_x is None or obj < best_obj - 1e-15 * max(1.0, abs(best_obj)):
            best_x, best_obj = x, obj
    return best_x, best_obj


def enumerate_nonneg_qp_simplex(m):
    """Minimize the quadratic over the simplex x >= 0, sum x <= 1.

    If the nonnegative minimizer already satisfies the sum constraint it
    is returned unchanged; otherwise the optimum lies on sum x = 1 and
    is found by enumerating the equality-constrained faces.
    """
    a = np.asarray(m.a, dtype=float)
    b = np.asarray(m.b, dtype=float)
    x, obj = enumerate_nonneg_qp(m)
    if float(np.sum(x)) <= 1.0 + 1e-12:
        return x, obj
    dim = a.shape[0]
    best_x = None
    best_obj = math.inf
    for idx in _faces(dim):
        if not idx:
            continue
        k = len(idx)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = a[np.ix_(idx, idx)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.concatenate([b[idx], [1.0]])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        scale = max(1.0, float(np.max(np.abs(rhs))))
        if np.max(np.abs(kkt @ sol - rhs)) > 1e-9 * scale:
            continue
        x_face, lam = sol[:k], sol[k]
        if np.min(x_face) < -1e-12:
            continue
        x_full = np.zeros(dim)
        x_full[idx] = np.maximum(x_face, 0.0)
        grad = a @ x_full - b
        off = [i for i in range(dim) if i not in idx]
        if off and np.min(grad[off] + lam) < -1e-9:
            continue  # releasing a clamped coordinate would descend
        obj = m.objective(x_full)
        if best_x is None or obj < best_obj - 1e-15 * max(1.0, abs(best_obj)):
            best_x, best_obj = x_full, obj
    return best_x, best_obj

# ---------------------------------------------------------------------------
# The convex design in tau alone.
#
# The package minimizes the (rho, tau) quadratic on the simplex
# rho + sum_k tau_k = 1.  Substituting rho = 1 - sum_k tau_k instead leaves
# a quadratic in tau over x >= 0, sum x <= 1, which solve_nonneg_qp_simplex
# minimizes: a second route to the same optimum.


def convex_design(m):
    """The (rho, tau) quadratic under rho = 1 - sum_k tau_k, in tau alone:
    a'_kl = a_kl - a_k0 - a_0l + a_00, b'_k = b_k - a_0k + a_00 - b_0 and
    c' = a_00 - 2 b_0 + c."""
    a = np.asarray(m.a, dtype=float)
    b = np.asarray(m.b, dtype=float)
    a00 = a[0, 0]
    return MultiMoments(a=a[1:, 1:] - a[1:, :1] - a[:1, 1:] + a00,
                        b=b[1:] - a[0, 1:] + a00 - b[0],
                        const=float(a00 - 2.0 * b[0] + m.const))


def constrained_moments(samples, targets):
    """Cross-validation cost of the convex design in tau on the SCM path,
    (1/T) sum_t || sum_k tau_k (T_k - R_t) + (R_t - y_t y_t^H) ||_F^2."""
    return convex_design(mt_scm_loocv_moments(samples, targets))


def constrained_oracle_moments(base, targets, truth):
    """Oracle cost || sum_k tau_k (T_k - R) + (R - Sigma) ||_F^2 in tau."""
    return convex_design(mt_oracle_moments(base, targets, truth))


# ---------------------------------------------------------------------------
# Paired reference for the MultiTargetAr experiment.
#
# Unlike the helpers above, these reuse the package: the reference has to
# see exactly the harness's draws and targets and be solved exactly.  The
# parts reused are each checked on their own (acceptance criteria 01-03 and
# the unit tests); acceptance criterion 08 checks that the recreated draws
# are the harness's.

# stream offsets the harness reserves per replication
HARNESS_STREAMS_PER_REP = 8


def multi_target_ar_draws(seed, reps, t_index, t, n, r):
    """Recreate the MultiTargetAr harness draws at one sample count.

    Replication ``rep`` at position ``t_index`` of the sample-count grid
    draws from stream offset (t_index * reps + rep) * 8, sub-stream 0.
    Returns the true covariance and, per replication, the tuple
    (samples, sample covariance, [scaled identity, diagonal, Toeplitz]).
    """
    sigma = ar_covariance(n, r)
    draws = []
    for rep in range(reps):
        stream = RngStream(seed, (t_index * reps + rep) * HARNESS_STREAMS_PER_REP)
        y = gaussian_samples(sigma, t, stream.generator(0))
        r_hat = scm(y)
        targets = [scaled_identity_target(r_hat), diagonal_target(r_hat),
                   toeplitz_average_target(r_hat)]
        draws.append((y, r_hat, targets))
    return sigma, draws


def best_fixed_constrained(sigma, draws):
    """NMSE of the best fixed convex-combination weights in hindsight.

    For a fixed tau the squared error of each draw is that draw's
    constrained oracle quadratic, so the mean error is the quadratic with
    averaged moments; one exact simplex solve then minimizes over every
    fixed tau, with no grid.  The NMSE is normalized as the harness does:
    mean error over ||Sigma||_F^2.
    """
    moments = [constrained_oracle_moments(r_hat, targets, sigma)
               for _, r_hat, targets in draws]
    mean = MultiMoments(a=np.mean([m.a for m in moments], axis=0),
                        b=np.mean([m.b for m in moments], axis=0),
                        const=float(np.mean([m.const for m in moments])))
    _, objective = solve_nonneg_qp_simplex(mean)
    return objective / float(np.vdot(sigma, sigma).real)


def best_fixed_single(sigma, draws):
    """NMSE of the best fixed single-target (rho, tau) >= 0 in hindsight.

    The target is each draw's first, the scaled identity, as for the
    harness's ``cv_single``.  The mean squared error of a fixed (rho, tau)
    is the quadratic with the draws' oracle moments averaged, so one 2 x 2
    solve minimizes it; normalized by ||Sigma||_F^2 as the harness does.
    """
    moments = [oracle_moments(r_hat, targets[0], sigma)
               for _, r_hat, targets in draws]
    mean = QuadMoments(*np.mean([[m.a_rr, m.a_rt, m.a_tt, m.b_r, m.b_t,
                                  m.const] for m in moments], axis=0).tolist())
    return (solve_quadratic_2d(mean).objective
            / float(np.vdot(sigma, sigma).real))


# ---------------------------------------------------------------------------
# dense MMSE channel estimate of a shrunk LS covariance


def dense_channel_estimate(ls_cov, pilot_power, observation):
    """MMSE channel estimate for the pilot sqrt(p) I, through dense matrices.

    The composition mmse_channel_estimate(ls_to_channel_cov(C, p),
    sqrt(p) I, y): one N x N eigendecomposition, the dense pilot products
    and a solve.  With C = rho R + tau mu I it is the estimate the
    MimoChannelMmse scene computes in the eigenbasis of its samples.
    """
    n = ls_cov.shape[0]
    channel_cov = ls_to_channel_cov(ls_cov, pilot_power)
    return mmse_channel_estimate(channel_cov, math.sqrt(pilot_power) * np.eye(n),
                                 observation)


# ---------------------------------------------------------------------------
# Monte-Carlo aggregation


def aggregate_numpy(metric, per_rep):
    """(mean, stderr) of per-replication results by np.mean and np.std.

    For ``nmse*`` metrics each result is (error, reference) and the values
    are the errors over the mean reference; otherwise each is a float.
    """
    reps = len(per_rep)
    if metric.startswith("nmse"):
        values = (np.array([v[0] for v in per_rep])
                  / float(np.mean(np.array([v[1] for v in per_rep]))))
    else:
        values = np.array(per_rep, dtype=float)
    mean = float(np.mean(values))
    stderr = 0.0 if reps < 2 else float(np.std(values, ddof=1)
                                        / math.sqrt(reps))
    return mean, stderr
