"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: dense products, explicit refits,
grid scans, projected gradient, face enumeration. Apart from the paired
MultiTargetAr reference and the dense MMSE channel composition at the end,
nothing imports from shrinkcov, so the package and these oracles can only
agree by computing the same mathematics.
"""
import math

import numpy as np

from shrinkcov.applications import ls_to_channel_cov, mmse_channel_estimate
from shrinkcov.datagen import RngStream, ar_covariance, gaussian_samples
from shrinkcov.estimators import scm
from shrinkcov.multi_target import (
    MultiMoments,
    mt_constrained_oracle_moments,
    solve_nonneg_qp_simplex,
)
from shrinkcov.targets import (
    diagonal_target,
    scaled_identity_target,
    toeplitz_average_target,
)


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
    moments = [mt_constrained_oracle_moments(r_hat, targets, sigma)
               for _, r_hat, targets in draws]
    mean = MultiMoments(a=np.mean([m.a for m in moments], axis=0),
                        b=np.mean([m.b for m in moments], axis=0),
                        const=float(np.mean([m.const for m in moments])))
    _, objective = solve_nonneg_qp_simplex(mean)
    return objective / float(np.vdot(sigma, sigma).real)


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
