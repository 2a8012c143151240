from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcov import multi_target
from shrinkcov.datagen import ar_covariance, gaussian_samples
from shrinkcov.estimators import (
    _SampleFactor,
    ols_fit,
    ols_loo_covariances,
    sample_block,
    scm,
)
from shrinkcov.hermitian import (
    _tiles,
    _trace_products,
    frobenius_norm_sq,
    real_trace_product,
)
from shrinkcov.multi_target import (
    MultiMoments,
    _solve_face,
    mt_loocv_moments,
    mt_ols_loocv_moments,
    mt_oracle_moments,
    mt_scm_loocv_moments,
    mt_select,
    solve_nonneg_qp,
    solve_nonneg_qp_simplex,
)
from shrinkcov.single_target import (
    Clip,
    QuadMoments,
    _quad,
    scm_fast_moments,
    scm_solution_constrained,
    select_single_target,
    solve_quadratic_2d,
)
from shrinkcov.targets import (
    diagonal_target,
    scaled_identity_target,
    toeplitz_average_target,
)

from oracles import (
    constrained_moments,
    constrained_oracle_moments,
    convex_design,
    enumerate_nonneg_qp,
    enumerate_nonneg_qp_simplex,
    mt_constrained_cost_direct,
    mt_constrained_oracle_cost_direct,
    mt_cv_cost_direct,
    ols_loo_cov_refit,
    projected_gradient_nonneg,
    random_psd,
    random_samples,
    scm_leave_one_out,
)


def scm_loo_covs(y):
    r = scm(y)
    return [scm_leave_one_out(r, y, t) for t in range(y.shape[1])]


def kkt_residuals(a, b, x):
    g = a @ x - b
    worst_zero = min((g[i] for i in range(len(x)) if x[i] <= 1e-12),
                     default=0.0)
    worst_free = max((abs(g[i]) for i in range(len(x)) if x[i] > 1e-12),
                     default=0.0)
    return worst_zero, worst_free


def make_targets(r):
    return [scaled_identity_target(r), diagonal_target(r),
            toeplitz_average_target(r)]


# ----------------------------------------------------------------- QP solver

def test_qp_frozen_diagonal():
    m = MultiMoments(a=np.diag([1.0, 2.0, 4.0]),
                     b=np.array([1.0, -2.0, 8.0]), const=0.0)
    x, obj = solve_nonneg_qp(m)
    assert np.allclose(x, [1.0, 0.0, 2.0], atol=1e-13)
    assert obj == pytest.approx(-17.0, abs=1e-12)


def test_qp_frozen_singular_min_norm():
    # rank-2 moment matrix; the minimum-norm exact solution (1, 1, 0)
    # is the deterministic pick along the degenerate direction
    a = np.array([[2.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    b = np.array([3.0, 2.0, 1.0])
    x, obj = solve_nonneg_qp(MultiMoments(a=a, b=b, const=5.0))
    assert np.allclose(x, [1.0, 1.0, 0.0], atol=1e-8)
    assert obj == pytest.approx(0.0, abs=1e-10)


def test_qp_unbounded_cone_and_its_simplex():
    # b outside the range of a singular a: along d = 1 the objective falls
    # without bound, so the cone has no minimizer and the simplex's lies on
    # sum x = 1
    m = MultiMoments(a=np.array([[0.0]]), b=np.array([1.0]), const=0.0)
    x, obj = solve_nonneg_qp_simplex(m)
    assert x.tolist() == [1.0] and obj == -2.0
    with pytest.raises(ValueError, match="unbounded below"):
        solve_nonneg_qp(m)
    with pytest.raises(ValueError, match="unbounded below"):
        solve_quadratic_2d(QuadMoments(0.0, 0.0, 0.0, 1.0, 1.0, 0.0))
    # the ray leaves a free face: a (1, 1, 0) = 0 and b . (1, 1, 0) = 2
    a = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    m = MultiMoments(a=a, b=np.array([1.0, 1.0, 0.0]), const=0.0)
    with pytest.raises(ValueError, match="unbounded below"):
        solve_nonneg_qp(m)
    assert solve_nonneg_qp_simplex(m)[1] == pytest.approx(-2.0, abs=1e-12)


def test_qp_far_minimizer_of_singular_moments_is_not_a_ray():
    # a = F^T F of rank 2 and b = F^T d in its range: the minimum is
    # attained, far along a's null direction, about (4850, 2486, 1), where
    # rounding leaves a rejected multiplier above the stopping tolerance
    f = np.array([[4.9238127503941085, -9.60431871628107, -3.467059386287728],
                  [6.839088712672499, -13.31752256530401, -61.27303607176095]])
    d = np.array([-0.7513010992561888, -0.6199477755961683])
    m = MultiMoments(a=f.T @ f, b=f.T @ d, const=0.0)
    x, _ = solve_nonneg_qp(m)
    got, want = (float(np.sum((f @ v - d) ** 2) - d @ d)
                 for v in (x, enumerate_nonneg_qp(m)[0]))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_qp_matches_projected_gradient():
    rng = np.random.default_rng(51)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        l = rng.standard_normal((k, k))
        a = l @ l.T + 1e-2 * np.eye(k)
        b = rng.standard_normal(k)
        m = MultiMoments(a=a, b=b, const=0.0)
        x, obj = solve_nonneg_qp(m)
        assert np.all(x >= 0)
        ref = projected_gradient_nonneg(a, b)
        ref_obj = float(ref @ a @ ref - 2 * ref @ b)
        assert obj <= ref_obj + 1e-7
        worst_zero, worst_free = kkt_residuals(a, b, x)
        assert worst_zero >= -1e-9
        assert worst_free <= 1e-9


def test_qp_dimension_guard():
    with pytest.raises(ValueError):
        solve_nonneg_qp(MultiMoments(a=np.eye(17), b=np.ones(17), const=0.0))


def test_qp_nonpsd_guard():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        solve_nonneg_qp(MultiMoments(a=a, b=np.zeros(2), const=0.0))


def test_qp_zero_dimension():
    m = MultiMoments(a=np.zeros((0, 0)), b=np.zeros(0), const=2.0)
    for solve in (solve_nonneg_qp, solve_nonneg_qp_simplex):
        x, obj = solve(m)
        assert x.shape == (0,) and obj == 2.0


def test_qp_simplex_frozen():
    m = MultiMoments(a=np.eye(2), b=np.array([2.0, 2.0]), const=0.0)
    x, _ = solve_nonneg_qp(m)
    assert np.allclose(x, [2.0, 2.0], atol=1e-13)  # violates sum <= 1
    xs, obj = solve_nonneg_qp_simplex(m)
    assert np.allclose(xs, [0.5, 0.5], atol=1e-12)
    assert obj == pytest.approx(-3.5, abs=1e-12)


def test_qp_simplex_inactive_when_interior():
    m = MultiMoments(a=np.eye(2), b=np.array([0.2, 0.3]), const=0.0)
    xs, _ = solve_nonneg_qp_simplex(m)
    assert np.allclose(xs, [0.2, 0.3], atol=1e-13)


def test_qp_simplex_matches_dense_scan():
    rng = np.random.default_rng(52)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        l = rng.standard_normal((k, k))
        a = l @ l.T + 1e-2 * np.eye(k)
        b = rng.standard_normal(k) + 0.5
        m = MultiMoments(a=a, b=b, const=0.0)
        x, obj = solve_nonneg_qp_simplex(m)
        assert np.all(x >= -1e-12)
        assert np.sum(x) <= 1.0 + 1e-10
        # dense rejection scan over the simplex
        pts = rng.uniform(0, 1, size=(4000, k))
        pts = pts[pts.sum(axis=1) <= 1.0]
        vals = np.einsum("ij,jk,ik->i", pts, a, pts) - 2 * pts @ b
        assert obj <= float(vals.min()) + 1e-8


def least_squares_qp(rng, dim, rank):
    """a = F^T F, b = F^T d for a random rank x dim F, as moment matrices are.

    Returns the moments and a function evaluating the objective in the
    factored form ||F x - d||^2 - ||d||^2, which is free of the
    cancellation x^T a x - 2 b . x suffers at large x.
    """
    f = rng.standard_normal((rank, dim)) * rng.uniform(0.1, 10.0)
    d = rng.standard_normal(rank) + rng.uniform(0.0, 3.0)
    m = MultiMoments(a=f.T @ f, b=f.T @ d, const=0.0)
    return m, lambda x: float(np.sum((f @ x - d) ** 2) - d @ d)


QP_SOLVERS = {"cone": (solve_nonneg_qp, enumerate_nonneg_qp, 8),
              "simplex": (solve_nonneg_qp_simplex, enumerate_nonneg_qp_simplex, 6)}


@pytest.mark.parametrize("kind", sorted(QP_SOLVERS))
def test_qp_matches_enumeration_positive_definite(kind):
    solve, enumerate_faces, max_dim = QP_SOLVERS[kind]
    rng = np.random.default_rng(66)
    for dim in range(1, max_dim + 1):
        for _ in range(6):
            l = rng.standard_normal((dim, dim))
            a = l @ l.T + 0.1 * np.eye(dim)
            b = rng.standard_normal(dim) + rng.uniform(0.0, 2.0)
            m = MultiMoments(a=a, b=b, const=0.0)
            x, obj = solve(m)
            ref_x, ref_obj = enumerate_faces(m)
            assert abs(obj - ref_obj) <= 1e-12 * max(1.0, abs(ref_obj))
            assert np.max(np.abs(x - ref_x)) <= 1e-10
            assert np.all(x[ref_x == 0] == 0.0)


@pytest.mark.parametrize("kind", sorted(QP_SOLVERS))
def test_qp_matches_enumeration_rank_deficient(kind):
    # the minimizer is not unique here, so only the objectives are compared
    solve, enumerate_faces, max_dim = QP_SOLVERS[kind]
    rng = np.random.default_rng(67)
    for dim in range(1, max_dim + 1):
        for rank in range(dim):
            m, objective = least_squares_qp(rng, dim, rank)
            x, obj = solve(m)
            ref_x, _ = enumerate_faces(m)
            assert obj == m.objective(x)
            got, want = objective(x), objective(ref_x)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(dim=st.integers(1, 8), rank=st.integers(0, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_qp_kkt_property_on_singular_psd(dim, rank, seed):
    m, _ = least_squares_qp(np.random.default_rng(seed), dim,
                            min(rank, dim - 1))
    for solve in (solve_nonneg_qp, solve_nonneg_qp_simplex):
        x, _ = solve(m)
        grad = m.a @ x - m.b
        tol = 1e-9 * max(1.0, float(np.max(np.abs(m.b))),
                         float(np.max(np.abs(m.a))) * float(np.sum(x)))
        assert np.all(x >= 0.0)
        lam = 0.0
        if solve is solve_nonneg_qp_simplex:
            assert np.sum(x) <= 1.0 + 1e-12
            if np.sum(x) >= 1.0 - 1e-9:
                lam = max(0.0, -float(np.mean(grad[x > 0])))
        assert np.all(grad + lam >= -tol)  # dual feasibility
        assert np.all(np.abs(grad + lam)[x > 0] <= tol)  # complementarity


def test_qp_simplex_feasible_at_large_moments():
    # moments of 1e8 must not push the unit sum-to-one border of the
    # simplex solve below lstsq's relative cutoff
    rng = np.random.default_rng(68)
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        f = rng.standard_normal((int(rng.integers(1, dim + 1)), dim))
        a = f.T @ f
        a *= 1e8 / float(np.max(np.diag(a)))
        # the cone optimum is x0 >= 0, mostly with sum x0 > 1
        b = a @ rng.uniform(0.0, 1.0, size=dim)
        x, _ = solve_nonneg_qp_simplex(MultiMoments(a=a, b=b, const=0.0))
        assert np.all(x >= 0.0)
        assert np.sum(x) <= 1.0 + 1e-12


def counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def bordered_lstsq(a, b, simplex, scale):
    """Face solve by minimum-norm lstsq on the bordered KKT system
    [[a, s 1], [s 1^T, 0]] [z, lam / s] = [b, s]: the face's system with
    its border scaled like a, so that lstsq's relative cutoff keeps it.
    """
    k = len(b)
    kkt = np.full((k + simplex, k + simplex), scale)
    kkt[:k, :k] = a
    kkt[k:, k:] = 0.0
    sol = np.linalg.lstsq(kkt, np.append(b, [scale] * simplex), rcond=None)[0]
    return sol[:k], scale * sol[k] if simplex else 0.0


@pytest.mark.parametrize("simplex", [False, True])
def test_face_solves_match_bordered_lstsq(simplex, monkeypatch):
    rng = np.random.default_rng(69)
    for dim in range(1, 7):
        for scale in 10.0 ** np.arange(-8, 9, 2):
            l = rng.standard_normal((dim, dim))
            a = scale * (l @ l.T / dim + 0.1 * np.eye(dim))
            b = scale * (rng.standard_normal(dim) + rng.uniform(0.0, 2.0))
            want_z, want_lam = bordered_lstsq(a, b, simplex, scale)
            calls = counted(monkeypatch, np.linalg, "lstsq")
            z, lam = _solve_face(a.tolist(), b.tolist(), list(range(dim)),
                                 simplex)
            monkeypatch.undo()
            assert not calls  # the Cholesky path, not the fallback
            got = np.append(z, lam / scale)
            want = np.append(want_z, want_lam / scale)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# (G, d) with a = G^T G, b = G^T d: column 2 of G is twice column 0, so
# target 2 duplicates target 0 at twice its scale
SINGULAR_FACES = {
    # exact moments: the last pivot of the singular face is exactly 0
    "exact": ([[-2.0, -1.0, -4.0], [1.0, -1.0, 2.0], [0.0, 0.0, 0.0]],
              [-3.0, 0.0, -1.0]),
    # inexact moments: that pivot is a rounding residue of about 1e-16
    "rounded": ([[-0.3, -1.7, -0.6], [-0.3, 0.7, -0.6], [0.7, -1.1, 1.4]],
                [-1.3, -0.4, 0.0]),
}


@pytest.mark.parametrize("case", sorted(SINGULAR_FACES))
def test_singular_face_falls_back_to_lstsq(case, monkeypatch):
    # An exact duplicate is never freed: its multiplier equals its free
    # twin's, zero.  On the simplex this one costs half the budget: with
    # target 0 free its multiplier is 2 lam - lam = lam > 0, and the solver
    # frees it into the singular face {0, 1, 2}
    g, d = np.array(SINGULAR_FACES[case][0]), np.array(SINGULAR_FACES[case][1])
    m = MultiMoments(a=g.T @ g, b=g.T @ d, const=float(d @ d))
    ref_x, ref_obj = enumerate_nonneg_qp_simplex(m)
    calls = counted(monkeypatch, np.linalg, "lstsq")
    x, obj = solve_nonneg_qp_simplex(m)
    assert len(calls) == 1
    assert x[0] == 0.0 and abs(float(np.sum(x)) - 1.0) <= 1e-12
    assert np.max(np.abs(x - ref_x)) <= 1e-12
    assert obj == pytest.approx(ref_obj, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("solve", [solve_nonneg_qp, solve_nonneg_qp_simplex])
def test_qp_rejects_nonfinite_moments(solve):
    nan, inf = float("nan"), float("inf")
    cases = [(np.eye(3), [nan, 1.0, 1.0], 0.0),
             (np.eye(3), [inf, 1.0, 1.0], 0.0),
             (np.diag([inf, 1.0, 1.0]), [1.0, 1.0, 1.0], 0.0),
             (np.eye(3), [1.0, 1.0, 1.0], nan)]
    for a, b, const in cases:
        with pytest.raises(ValueError, match="not finite"):
            solve(MultiMoments(a=a, b=np.array(b), const=const))


def test_selection_rejects_overflowing_moments():
    # finite samples whose trace products overflow: 1e120^4 > 1.8e308
    y = 1e120 * gaussian_samples(ar_covariance(6, 0.5), 12,
                                 np.random.default_rng(70))
    targets = make_targets(scm(y))
    with np.errstate(over="ignore", invalid="ignore"):
        for method in ("cv", "cv_constrained"):
            with pytest.raises(ValueError, match="not finite"):
                mt_select(method, targets, samples=y)
        with pytest.raises(ValueError, match="not finite"):
            select_single_target("cv", targets[0], samples=y)


# ------------------------------------------------------------------- moments

def test_mt_oracle_moments_frozen():
    r = np.eye(2)
    targets = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    sigma = np.diag([2.0, 1.0])
    m = mt_oracle_moments(r, targets, sigma)
    assert np.allclose(m.a, [[2.0, 1.0, 1.0], [1.0, 1.0, 0.0],
                             [1.0, 0.0, 1.0]], atol=1e-14)
    assert np.allclose(m.b, [3.0, 2.0, 1.0], atol=1e-14)
    assert m.const == pytest.approx(5.0)
    x, obj = solve_nonneg_qp(m)
    assert obj == pytest.approx(0.0, abs=1e-10)  # exact reconstruction


def test_mt_oracle_moments_rejects_empty_raw_base():
    e = np.zeros((0, 0))
    with pytest.raises(ValueError, match="has no rows"):
        mt_oracle_moments(e, [e], e)


def _sweep_size(name, cplx):
    """N for a size named relative to the largest one-tile trace sweep."""
    rows, _ = next(_tiles(1, 16 if cplx else 8))
    tile = rows.stop
    return {"1": 1, "tile-1": tile - 1, "tile": tile, "tile+1": tile + 1,
            "300": 300, "513": 513}[name], tile


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("size", ["1", "tile-1", "tile", "tile+1", "300", "513"])
def test_gram_sweep_matches_pairwise_trace_products(size, cplx):
    n, tile = _sweep_size(size, cplx)
    rng = np.random.default_rng(n)
    y = random_samples(n, 6, rng, cplx)
    block, raw_r = sample_block(y), scm(y)
    # owned and raw targets mixed; the raw ones go through the sweep
    targets = [scaled_identity_target(block), toeplitz_average_target(raw_r),
               diagonal_target(block), random_psd(n, rng, cplx, rank=3)]
    truth = random_psd(n, rng, cplx)
    k = len(targets) + 1

    def pairwise(r):
        mats = [r, *targets, truth]
        return np.array([[real_trace_product(p, q) for q in mats] for p in mats])

    g, g_raw = pairwise(block.r), pairwise(raw_r)
    m = mt_scm_loocv_moments(block, targets)
    oracle = mt_oracle_moments(block, targets, truth)
    raw = mt_oracle_moments(raw_r, targets, truth)
    pairs = [(m.a[1:, 1:], g[1:k, 1:k]), (m.a[0, 1:], g[0, 1:k]),
             (m.b[1:], g[0, 1:k]), (oracle.a, g[:k, :k]), (oracle.b, g[:k, k]),
             (raw.a, g_raw[:k, :k]), (raw.b, g_raw[:k, k])]
    for got, want in pairs:
        if n <= tile:  # one tile: real_trace_product's einsum, bit for bit
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("t", [3, 5, 50])
@pytest.mark.parametrize("n", [1, 2, 7, 90, 91, 128, 129, 300])
def test_sample_factor_sweep_matches_products_of_the_scm(n, t, cplx):
    # R given as its sample factor: each tile formed from two row blocks
    # of y agrees with the products of scm(y); real operands mixed in
    rng = np.random.default_rng(7 * n + t)
    y = random_samples(n, t, rng, cplx)
    r = scm(y)
    mats = [_SampleFactor(sample_block(y)), random_psd(n, rng, cplx, rank=3),
            random_psd(n, rng, False), r]
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    for (i, j), got in zip(pairs, _trace_products(mats, pairs)):
        p, q = (r if k == 0 else mats[k] for k in (i, j))
        want = real_trace_product(p, q)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (i, j)
        if n <= _sweep_size("tile", cplx)[1]:  # one tile: scm's R exactly
            assert got == _trace_products([p, q], [(0, 1)])[0]


def test_sample_factor_tile_is_the_scm_product_at_one_tile():
    rng = np.random.default_rng(17)
    for cplx, n in ((False, 128), (True, 90), (False, 5), (True, 1)):
        y = random_samples(n, 4, rng, cplx)
        rows, cols = next(_tiles(n, y.itemsize))
        assert rows.stop >= n
        factor = _SampleFactor(sample_block(y))
        assert np.array_equal(factor.tile(rows, cols), scm(y))


def test_mt_loocv_fast_matches_naive():
    rng = np.random.default_rng(53)
    for cplx in (False, True):
        sigma = ar_covariance(6, 0.8 if cplx else 0.5)
        y = gaussian_samples(sigma, 14, rng, complex_field=cplx)
        targets = make_targets(scm(y))
        fast = mt_scm_loocv_moments(y, targets)
        slow = mt_loocv_moments(scm_loo_covs(y), y, targets)
        assert np.allclose(fast.a, slow.a, rtol=1e-10, atol=1e-10)
        assert np.allclose(fast.b, slow.b, rtol=1e-10, atol=1e-10)
        assert fast.const == pytest.approx(slow.const, rel=1e-12)


def assert_moments_close(fast, slow, rel):
    scale = float(np.max(np.abs(slow.a)))
    assert np.allclose(fast.a, slow.a, rtol=rel, atol=rel * scale)
    assert np.allclose(fast.b, slow.b, rtol=rel, atol=rel * scale)
    assert fast.const == pytest.approx(slow.const, rel=rel, abs=rel * scale)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(1, 6), t=st.integers(3, 12), k=st.integers(1, 3),
       cplx=st.booleans(), zero_row=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mt_scm_moments_property_match_explicit_folds(n, t, k, cplx,
                                                      zero_row, seed):
    rng = np.random.default_rng(seed)
    y = random_samples(n, t, rng, cplx)
    if zero_row:
        y[int(rng.integers(n))] = 0.0
    targets = [random_psd(n, rng, cplx) for _ in range(k)]
    assert_moments_close(mt_scm_loocv_moments(y, targets),
                         mt_loocv_moments(scm_loo_covs(y), y, targets), 1e-10)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(1, 6), m_in=st.integers(1, 4), extra=st.integers(2, 12),
       k=st.integers(1, 3), cplx=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mt_ols_moments_property_match_explicit_refits(n, m_in, extra, k,
                                                       cplx, seed):
    # at T = M + 2 the leverages average M / (M + 2), the regime where
    # the 1/(1 - h_t) updates are largest.  The fit's own scaled identity
    # takes the mu I shortcut, and a second call on the same fit, with its
    # kept terms and the targets reversed, must agree too
    rng = np.random.default_rng(seed)
    t = m_in + extra
    x = random_samples(m_in, t, rng, cplx)
    y = random_samples(n, t, rng, cplx)
    fit = ols_fit(x, y)
    targets = [scaled_identity_target(fit),
               *(random_psd(n, rng, cplx) for _ in range(k))]
    refits = [ols_loo_cov_refit(x, y, i) for i in range(t)]
    first = mt_ols_loocv_moments(fit, targets)
    again = mt_ols_loocv_moments(fit, targets[::-1])
    for got, order in ((first, targets), (again, targets[::-1])):
        assert_moments_close(got, mt_loocv_moments(refits, y, order), 1e-8)
    back = [0, *range(k + 1, 0, -1)]  # (rho, reversed taus) -> first's order
    assert np.array_equal(again.a[np.ix_(back, back)], first.a)
    assert np.array_equal(again.b[back], first.b)
    assert again.const == first.const


@pytest.mark.parametrize("cplx", [False, True])
def test_selection_facades_take_a_least_squares_fit(cplx):
    # the fit holds its outputs, so it is a selection's whole input: K = 2
    # targets through mt_select match the explicit leave-one-out refits
    rng = np.random.default_rng(71 + cplx)
    x, y = random_samples(3, 14, rng, cplx), random_samples(5, 14, rng, cplx)
    fit = ols_fit(x, y)
    targets = [scaled_identity_target(fit), diagonal_target(fit)]
    sol = mt_select("cv", targets, samples=fit)
    ref_x, ref_obj = solve_nonneg_qp(
        mt_loocv_moments(ols_loo_covariances(x, y), y, targets))
    assert np.allclose([sol.rho, *sol.taus], ref_x, rtol=1e-10, atol=0)
    assert sol.objective == pytest.approx(ref_obj, rel=1e-10)
    t0 = targets[0]
    assert (select_single_target("cv", t0, samples=fit)
            == select_single_target("cv", t0, samples=ols_fit(x, y)))
    with pytest.raises(ValueError, match="read-only"):
        fit.y[0, 0] = 1.0


def test_mt_loocv_objective_equals_direct_cost():
    rng = np.random.default_rng(54)
    sigma = ar_covariance(5, 0.6)
    y = gaussian_samples(sigma, 9, rng)
    targets = make_targets(scm(y))
    covs = scm_loo_covs(y)
    m = mt_loocv_moments(covs, y, targets)
    for _ in range(10):
        x = rng.uniform(0, 1.5, size=4)
        want = mt_cv_cost_direct(x, covs, y, targets)
        assert m.objective(x) == pytest.approx(want, rel=1e-10)


def test_mt_single_target_reduction_unconstrained():
    rng = np.random.default_rng(55)
    sigma = ar_covariance(6, 0.5)
    y = gaussian_samples(sigma, 18, rng)
    t0 = scaled_identity_target(scm(y))
    m1 = mt_scm_loocv_moments(y, [t0])
    x, obj = solve_nonneg_qp(m1)
    ref = solve_quadratic_2d(scm_fast_moments(y, t0))
    assert x[0] == pytest.approx(ref.rho, rel=1e-10, abs=1e-12)
    assert x[1] == pytest.approx(ref.tau, rel=1e-10, abs=1e-12)
    assert obj == pytest.approx(ref.objective, rel=1e-10, abs=1e-12)


# -------------------------------------------------------- constrained design

def test_mt_constrained_objective_matches_direct_cost():
    # sign witness: the quadratic form must reproduce the averaged
    # || sum_k tau_k (T_k - R_t) + (R_t - S_t) ||_F^2 cost exactly
    rng = np.random.default_rng(56)
    sigma = ar_covariance(5, 0.7)
    y = gaussian_samples(sigma, 8, rng)
    targets = make_targets(scm(y))
    covs = scm_loo_covs(y)
    m = constrained_moments(y, targets)
    for _ in range(10):
        taus = rng.uniform(0, 0.8, size=3)
        want = mt_constrained_cost_direct(taus, covs, y, targets)
        assert m.objective(taus) == pytest.approx(want, rel=1e-9)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_convex_design_substitution_is_exact(k, seed):
    # the substituted quadratic at tau is the full one at (1 - sum tau, tau)
    rng = np.random.default_rng(seed)
    m = MultiMoments(a=random_psd(k + 1, rng, complex_field=False),
                     b=rng.standard_normal(k + 1),
                     const=float(rng.standard_normal()))
    sub = convex_design(m)
    for _ in range(5):
        taus = rng.uniform(0.0, 1.0, size=k) * rng.uniform(0.0, 1.5)
        full = m.objective(np.concatenate([[1.0 - np.sum(taus)], taus]))
        assert sub.objective(taus) == pytest.approx(full, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("cplx", [False, True])
def test_mt_constrained_oracle_objective_matches_direct_cost(cplx):
    rng = np.random.default_rng(70)
    sigma = random_psd(5, rng, complex_field=cplx)
    y = gaussian_samples(sigma, 8, rng, complex_field=cplx)
    r = scm(y)
    targets = make_targets(r)
    m = constrained_oracle_moments(r, targets, sigma)
    for _ in range(10):
        taus = rng.uniform(0, 0.8, size=3)
        want = mt_constrained_oracle_cost_direct(taus, r, targets, sigma)
        assert m.objective(taus) == pytest.approx(want, rel=1e-9)


def test_mt_constrained_fast_matches_naive():
    rng = np.random.default_rng(57)
    sigma = ar_covariance(6, 0.6)
    y = gaussian_samples(sigma, 11, rng, complex_field=True)
    targets = make_targets(scm(y))
    fast = constrained_moments(y, targets)
    slow = convex_design(mt_loocv_moments(scm_loo_covs(y), y, targets))
    assert np.allclose(fast.a, slow.a, rtol=1e-9, atol=1e-9)
    assert np.allclose(fast.b, slow.b, rtol=1e-9, atol=1e-9)
    assert fast.const == pytest.approx(slow.const, rel=1e-10)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(k=st.integers(1, 6), rank=st.integers(1, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_direct_simplex_matches_tau_form(k, rank, seed):
    # mt_select minimizes the (rho, tau) quadratic on the simplex directly;
    # substituting rho = 1 - sum tau and minimizing over sum tau <= 1 is a
    # second route to the same optimum.  The moments are least-squares
    # sums, as every selection cost is; below full rank the minimizer need
    # not be unique, so only the objectives are compared there
    rank = min(rank, k + 1)
    m, objective = least_squares_qp(np.random.default_rng(seed), k + 1, rank)
    with mock.patch.object(multi_target, "_selection_moments",
                           return_value=(m, True)):
        sol = mt_select("cv_constrained", [])
    taus, obj = solve_nonneg_qp_simplex(convex_design(m))
    x = np.concatenate([[1.0 - np.sum(taus)], taus])
    assert sol.objective == m.objective([sol.rho, *sol.taus])
    got, want = objective([sol.rho, *sol.taus]), objective(x)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    if rank == k + 1:
        assert np.max(np.abs([sol.rho, *sol.taus] - x)) <= 1e-10


def test_active_targets_skip_rounding_level_weights():
    # the cone oracle on AR(0.9) draws can leave a weight of 1e-15 to
    # 3e-13 on a target; such a weight is not an active target, and no
    # weight on these draws sits near the 1e-10 relative cutoff
    sigma = ar_covariance(25, 0.9)
    for seed in range(1, 11):
        for t in (15, 25, 50):
            y = gaussian_samples(sigma, t, np.random.default_rng(seed))
            sol = mt_select("oracle", make_targets(scm(y)), samples=y,
                            truth=sigma)
            scale = max(sol.rho, *sol.taus)
            for k, tau in enumerate(sol.taus):
                assert (k in sol.active_targets) == (tau > 1e-10 * scale)
                assert tau == 0.0 or tau > 1e-10 * scale or tau < 1e-12
            if (seed, t) == (2, 25):
                assert 0.0 < sol.taus[1] < 1e-12
                assert sol.active_targets == (0, 2)


def test_mt_constrained_k1_reduces_to_single_target():
    rng = np.random.default_rng(58)
    sigma = ar_covariance(7, 0.5)
    for _ in range(10):
        y = gaussian_samples(sigma, 12, rng)
        t0 = scaled_identity_target(scm(y))
        sol = mt_select("cv_constrained", [t0], samples=y)
        ref = scm_solution_constrained(y, t0)
        assert sol.taus[0] == pytest.approx(ref.tau, rel=1e-9, abs=1e-10)
        assert sol.rho == pytest.approx(ref.rho, rel=1e-9, abs=1e-10)


def test_mt_constrained_k1_matches_single_target_when_target_equals_r():
    # R = c^2 I to rounding, so its scaled identity target equals R and
    # every point of rho + tau = 1 gives the same estimate.  Checked as the
    # 2 x 2 quadratic, the convex design is PSD, its two vertices tie
    # within the stopping tolerance and the simplex starts at rho's, so
    # both entry points take (1, 0).  The substituted 1-D quadratic
    # checked alone, at its own scale, reads as not PSD on 69 of these
    # draws and as curved on 49 more
    rng = np.random.default_rng(0)
    for _ in range(300):
        q = np.linalg.qr(rng.standard_normal((8, 4)))[0]
        y = rng.uniform(0.5, 2.0) * np.sqrt(8) * q.T
        sigma = np.diag(rng.uniform(0.5, 2.0, 4))
        t0 = scaled_identity_target(scm(y))
        ref = select_single_target("oracle_constrained", t0, samples=y,
                                   truth=sigma)
        sol = mt_select("oracle_constrained", [t0], samples=y, truth=sigma)
        assert (ref.rho, ref.tau, ref.clip) == (1.0, 0.0, Clip.CONVEX_BOUNDARY)
        assert (sol.rho, *sol.taus) == (ref.rho, ref.tau)


def test_mt_constrained_trace_guard():
    rng = np.random.default_rng(59)
    sigma = ar_covariance(4, 0.5)
    y = gaussian_samples(sigma, 10, rng)
    bad = 2.0 * scaled_identity_target(scm(y))  # wrong trace
    for method in ("cv_constrained", "oracle_constrained"):
        with pytest.raises(ValueError):
            mt_select(method, [bad], samples=y, truth=sigma)
        with pytest.raises(ValueError):
            select_single_target(method, bad, samples=y, truth=sigma)
    # the tolerance is relative to tr R, so small amplitudes are caught too
    small = 1e-6 * y
    targets = [2.0 * scaled_identity_target(scm(small)),
               diagonal_target(scm(small))]
    with pytest.raises(ValueError):
        mt_select("cv_constrained", targets, samples=small)


# -------------------------------------------------------------------- facade

def test_mt_select_unconstrained_properties():
    rng = np.random.default_rng(60)
    sigma = ar_covariance(8, 0.9)
    y = gaussian_samples(sigma, 16, rng)
    sol = mt_select("cv", make_targets(scm(y)), samples=y)
    assert sol.rho >= 0
    assert np.all(sol.taus >= 0)
    assert sol.active_targets == tuple(k for k, t in enumerate(sol.taus)
                                       if t > 0)


def test_mt_select_constrained_sums_to_one():
    rng = np.random.default_rng(61)
    sigma = ar_covariance(8, 0.9)
    y = gaussian_samples(sigma, 16, rng)
    sol = mt_select("cv_constrained", make_targets(scm(y)), samples=y)
    assert sol.rho + np.sum(sol.taus) == pytest.approx(1.0, abs=1e-12)
    assert sol.rho >= 0 and np.all(sol.taus >= 0)


@pytest.mark.parametrize("cplx", [False, True])
def test_selections_report_the_moments_own_objective(cplx):
    # every solve evaluates its objective on the lists it solved, in the
    # order of the moments' own objective, so the two agree bit for bit
    rng = np.random.default_rng(63)
    truth = random_psd(6, rng, cplx)
    y = random_samples(6, 12, rng, cplx)
    targets = make_targets(scm(y))
    for method in ("cv", "cv_constrained", "oracle", "oracle_constrained"):
        sol = mt_select(method, targets, samples=y, truth=truth)
        m, _ = multi_target._selection_moments(method, targets, y, truth)
        assert sol.objective == m.objective([sol.rho, *sol.taus])
        for solve in (solve_nonneg_qp, solve_nonneg_qp_simplex):
            x, obj = solve(m)
            assert obj == m.objective(x)
        for t0 in targets:  # the K = 1 views: their own 2 x 2 objective
            m1, convex = multi_target._selection_moments(method, [t0], y,
                                                         truth)
            q = _quad(m1)
            want = solve_quadratic_2d(q, constrained=convex)
            assert want.objective == q.objective(want.rho, want.tau)
            got = select_single_target(method, t0, samples=y, truth=truth)
            assert got == want


def test_mt_oracle_dominates_cv_per_realization():
    rng = np.random.default_rng(62)
    sigma = ar_covariance(6, 0.9)
    for _ in range(10):
        y = gaussian_samples(sigma, 12, rng)
        r = scm(y)
        targets = make_targets(r)
        orc = mt_select("oracle", targets, samples=y, truth=sigma)
        cv = mt_select("cv", targets, samples=y)

        def estimate(sol):
            est = sol.rho * r
            for k, t0 in enumerate(targets):
                est = est + sol.taus[k] * t0
            return est

        assert (frobenius_norm_sq(estimate(orc) - sigma)
                <= frobenius_norm_sq(estimate(cv) - sigma) + 1e-9)


def test_mt_select_guards():
    rng = np.random.default_rng(63)
    y = gaussian_samples(ar_covariance(4, 0.5), 8, rng)
    targets = [scaled_identity_target(scm(y))]
    with pytest.raises(ValueError):
        mt_select("oracle", targets, samples=y)  # truth missing
    with pytest.raises(ValueError):
        mt_select("bogus", targets, samples=y)


def test_mt_select_rejects_a_target_of_another_size():
    rng = np.random.default_rng(64)
    sigma = ar_covariance(5, 0.5)
    y = gaussian_samples(sigma, 10, rng)
    targets = [scaled_identity_target(scm(y)), np.array([[2.0]])]
    for method in ("cv", "oracle"):
        with pytest.raises(ValueError, match=r"\(5, 5\).*\(1, 1\)"):
            mt_select(method, targets, samples=y, truth=sigma)


def test_mt_select_rejects_a_non_finite_target():
    rng = np.random.default_rng(65)
    sigma = ar_covariance(5, 0.5)
    y = gaussian_samples(sigma, 10, rng)
    targets = make_targets(scm(y))
    targets[1] = targets[1].copy()
    targets[1][3, 1] = np.nan
    for method in ("cv", "cv_constrained", "oracle", "oracle_constrained"):
        with pytest.raises(ValueError, match="non-finite"):
            mt_select(method, targets, samples=y, truth=sigma)


SELECTION_METHODS = ("cv", "cv_constrained", "oracle", "oracle_constrained")


def all_selections(y, sigma):
    """Single- and three-target coefficients of every method, in one vector."""
    r = scm(y)
    targets = make_targets(r)
    out = []
    for method in SELECTION_METHODS:
        st_sol = select_single_target(method, targets[0], samples=y,
                                      truth=sigma)
        mt_sol = mt_select(method, targets, samples=y, truth=sigma)
        out += [st_sol.rho, st_sol.tau, mt_sol.rho, *mt_sol.taus]
    return np.array(out)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(log_c=st.floats(-8.0, 8.0), seed=st.integers(0, 2 ** 32 - 1),
       cplx=st.booleans())
def test_selection_does_not_depend_on_units(log_c, seed, cplx):
    # y -> c y scales every moment by c^4 and leaves the minimizers alone
    c = 10.0 ** log_c
    sigma = ar_covariance(10, 0.9)
    y = gaussian_samples(sigma, 12, np.random.default_rng(seed),
                         complex_field=cplx)
    want = all_selections(y, sigma)
    got = all_selections(c * y, c * c * sigma)
    assert np.max(np.abs(got - want)) <= 1e-9
