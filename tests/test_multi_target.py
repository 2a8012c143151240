import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcov.datagen import ar_covariance, gaussian_samples
from shrinkcov.estimators import scm, scm_leave_one_out
from shrinkcov.hermitian import frobenius_norm_sq
from shrinkcov.multi_target import (
    MultiMoments,
    _convex_design,
    mt_constrained_moments,
    mt_constrained_oracle_moments,
    mt_loocv_moments,
    mt_oracle_moments,
    mt_scm_loocv_moments,
    mt_select,
    solve_nonneg_qp,
    solve_nonneg_qp_simplex,
)
from shrinkcov.single_target import (
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
    enumerate_nonneg_qp,
    enumerate_nonneg_qp_simplex,
    mt_constrained_cost_direct,
    mt_constrained_oracle_cost_direct,
    mt_cv_cost_direct,
    projected_gradient_nonneg,
    random_psd,
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
    m = mt_constrained_moments(y, targets)
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
    sub = _convex_design(m)
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
    m = mt_constrained_oracle_moments(r, targets, sigma)
    for _ in range(10):
        taus = rng.uniform(0, 0.8, size=3)
        want = mt_constrained_oracle_cost_direct(taus, r, targets, sigma)
        assert m.objective(taus) == pytest.approx(want, rel=1e-9)


def test_mt_constrained_fast_matches_naive():
    rng = np.random.default_rng(57)
    sigma = ar_covariance(6, 0.6)
    y = gaussian_samples(sigma, 11, rng, complex_field=True)
    targets = make_targets(scm(y))
    fast = mt_constrained_moments(y, targets)
    slow = mt_constrained_moments(y, targets, loo_covs=scm_loo_covs(y))
    assert np.allclose(fast.a, slow.a, rtol=1e-9, atol=1e-9)
    assert np.allclose(fast.b, slow.b, rtol=1e-9, atol=1e-9)
    assert fast.const == pytest.approx(slow.const, rel=1e-10)


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


def test_mt_constrained_trace_guard():
    rng = np.random.default_rng(59)
    y = gaussian_samples(ar_covariance(4, 0.5), 10, rng)
    bad = 2.0 * scaled_identity_target(scm(y))  # wrong trace
    with pytest.raises(ValueError):
        mt_constrained_moments(y, [bad])
    with pytest.raises(ValueError):
        mt_constrained_oracle_moments(scm(y), [bad], ar_covariance(4, 0.5))
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
