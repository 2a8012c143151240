import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcov.datagen import ar_covariance, gaussian_samples
from shrinkcov.estimators import ols_covariance, ols_fit, scm
from shrinkcov.hermitian import frobenius_norm_sq, is_psd
from shrinkcov.multi_target import MultiMoments, solve_nonneg_qp
from shrinkcov.single_target import (
    Clip,
    QuadMoments,
    loocv_moments_general,
    ols_fast_moments,
    oracle_moments,
    scm_fast_moments,
    scm_solution_constrained,
    scm_solution_unconstrained,
    select_single_target,
    shrink,
    solve_quadratic_2d,
)
from shrinkcov.targets import (
    diagonal_target,
    scaled_identity_target,
    toeplitz_average_target,
)

from oracles import (
    closed_form_2d,
    cv_cost_direct,
    grid_min_2d_fast,
    grid_min_2d_full,
    grid_min_constrained,
    ols_loo_cov_refit,
    ols_loo_moments_loop,
    random_psd,
    random_samples,
    scm_leave_one_out,
)

MOMENT_FIELDS = ("a_rr", "a_rt", "a_tt", "b_r", "b_t", "const")


def scm_loo_covs(y):
    r = scm(y)
    return [scm_leave_one_out(r, y, t) for t in range(y.shape[1])]


def kkt_ok(m: QuadMoments, rho, tau, tol=1e-9):
    """First-order optimality over the nonnegative quadrant."""
    g_r = m.a_rr * rho + m.a_rt * tau - m.b_r
    g_t = m.a_rt * rho + m.a_tt * tau - m.b_t
    ok_r = abs(g_r) <= tol if rho > tol else g_r >= -tol
    ok_t = abs(g_t) <= tol if tau > tol else g_t >= -tol
    return ok_r and ok_t


def random_moments(rng):
    l = rng.standard_normal((2, 2))
    a = l @ l.T + 1e-3 * np.eye(2)
    b = rng.standard_normal(2)
    return QuadMoments(a_rr=a[0, 0], a_rt=a[0, 1], a_tt=a[1, 1],
                       b_r=b[0], b_t=b[1], const=float(rng.standard_normal()))


# ------------------------------------------------------------------- moments

def test_oracle_moments_frozen_perfect_fit():
    r = np.eye(2)
    t0 = np.diag([1.0, 0.0])
    sigma = np.diag([2.0, 1.0])
    m = oracle_moments(r, t0, sigma)
    assert (m.a_rr, m.a_rt, m.a_tt) == pytest.approx((2.0, 1.0, 1.0))
    assert (m.b_r, m.b_t, m.const) == pytest.approx((3.0, 2.0, 5.0))
    sol = solve_quadratic_2d(m)
    # rho R + tau T0 = I + diag(1,0) reproduces Sigma exactly
    assert (sol.rho, sol.tau) == pytest.approx((1.0, 1.0), abs=1e-12)
    assert sol.clip is Clip.NONE
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_loocv_moments_general_frozen_two_samples():
    y = np.eye(2)
    m = loocv_moments_general(scm_loo_covs(y), y, np.eye(2))
    assert m.a_rr == pytest.approx(1.0, abs=1e-14)
    assert m.a_rt == pytest.approx(1.0, abs=1e-14)
    assert m.a_tt == pytest.approx(2.0, abs=1e-14)
    assert m.b_r == pytest.approx(0.0, abs=1e-14)
    assert m.b_t == pytest.approx(1.0, abs=1e-14)
    assert m.const == pytest.approx(1.0, abs=1e-14)


def test_loocv_objective_equals_direct_cost():
    rng = np.random.default_rng(31)
    for cplx in (False, True):
        y = random_samples(4, 8, rng, cplx)
        t0 = random_psd(4, rng, cplx)
        covs = scm_loo_covs(y)
        m = loocv_moments_general(covs, y, t0)
        for _ in range(20):
            rho, tau = rng.uniform(-1, 2, size=2)
            want = cv_cost_direct(rho, tau, covs, y, t0)
            assert m.objective(rho, tau) == pytest.approx(want, rel=1e-10,
                                                          abs=1e-10)


def test_scm_fast_moments_frozen_three_samples():
    y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    m = scm_fast_moments(y, np.eye(2))
    assert m.a_rr == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert m.a_rt == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert m.a_tt == pytest.approx(2.0, rel=1e-14)
    assert m.b_r == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert m.b_t == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert m.const == pytest.approx(2.0, rel=1e-14)


def test_scm_fast_matches_general_random():
    rng = np.random.default_rng(32)
    for cplx in (False, True):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            t = int(rng.integers(3, 20))
            y = random_samples(n, t, rng, cplx)
            t0 = random_psd(n, rng, cplx)
            fast = scm_fast_moments(y, t0)
            slow = loocv_moments_general(scm_loo_covs(y), y, t0)
            for f in ("a_rr", "a_rt", "a_tt", "b_r", "b_t", "const"):
                assert getattr(fast, f) == pytest.approx(
                    getattr(slow, f), rel=1e-10, abs=1e-12), f


def test_scm_fast_requires_three_samples():
    y = np.eye(2)
    with pytest.raises(ValueError):
        scm_fast_moments(y, np.eye(2))
    with pytest.raises(ValueError):
        scm_solution_unconstrained(y, np.eye(2))
    with pytest.raises(ValueError):
        scm_solution_constrained(y, np.eye(2))


# -------------------------------------------------------------------- solver

def test_solve2d_interior_frozen():
    m = QuadMoments(1.0, 0.0, 1.0, 0.3, 0.7, 1.0)
    sol = solve_quadratic_2d(m)
    assert (sol.rho, sol.tau) == pytest.approx((0.3, 0.7), abs=1e-14)
    assert sol.clip is Clip.NONE
    assert sol.objective == pytest.approx(0.42, abs=1e-14)


def test_solve2d_boundary_frozen():
    sol = solve_quadratic_2d(QuadMoments(1.0, 0.0, 1.0, -1.0, 0.5, 1.0))
    assert (sol.rho, sol.tau) == pytest.approx((0.0, 0.5), abs=1e-14)
    assert sol.clip is Clip.RHO_ZERO
    assert sol.objective == pytest.approx(0.75, abs=1e-14)

    sol = solve_quadratic_2d(QuadMoments(1.0, 0.0, 1.0, 0.5, -1.0, 1.0))
    assert (sol.rho, sol.tau) == pytest.approx((0.5, 0.0), abs=1e-14)
    assert sol.clip is Clip.TAU_ZERO

    # exact tie between the two boundary candidates prefers tau = 0
    sol = solve_quadratic_2d(QuadMoments(1.0, 0.0, 1.0, -1.0, -1.0, 1.0))
    assert (sol.rho, sol.tau) == pytest.approx((0.0, 0.0), abs=1e-14)
    assert sol.clip is Clip.TAU_ZERO
    assert sol.objective == pytest.approx(1.0, abs=1e-14)


def test_solve2d_collinear_prefers_tau_zero():
    # singular moment matrix (target collinear with the estimate)
    m = QuadMoments(1.0, 2.0, 4.0, 1.0, 2.0, 0.0)
    sol = solve_quadratic_2d(m)
    assert sol.clip is Clip.TAU_ZERO
    assert (sol.rho, sol.tau) == pytest.approx((1.0, 0.0), abs=1e-14)
    assert sol.objective == pytest.approx(-1.0, abs=1e-14)


def test_solve2d_zero_target_block():
    m = QuadMoments(2.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    sol = solve_quadratic_2d(m)
    assert (sol.rho, sol.tau) == pytest.approx((0.5, 0.0), abs=1e-14)
    assert sol.tau == 0.0


def test_solve2d_nonpsd_raises():
    with pytest.raises(ValueError):
        solve_quadratic_2d(QuadMoments(1.0, 2.0, 1.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("field", MOMENT_FIELDS)
def test_solve2d_rejects_nonfinite_moments(field):
    good = dict(zip(MOMENT_FIELDS, (2.0, 0.5, 1.0, 1.0, 0.5, 3.0)))
    for bad in (float("nan"), float("inf"), -float("inf")):
        m = QuadMoments(**{**good, field: bad})
        for constrained in (False, True):
            with pytest.raises(ValueError, match="not finite"):
                solve_quadratic_2d(m, constrained)


def _raises(solve, m) -> bool:
    try:
        solve(m)
    except ValueError as exc:
        assert "not positive semidefinite" in str(exc)
        return True
    return False


@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-8, 9, 2)])
def test_solve2d_psd_rule_is_the_cone_solver_rule(scale):
    # (a_rr, a_rt, a_tt, rejected); lambda_min >= -1e-8 lambda_max passes
    cases = [
        (1.0, 1.0, 1.0 - 2e-9, False),  # det -2e-9, lambda_min ~ -1e-9
        (1.0, 0.0, -1e-10, False),
        (4.0, 2.0, 1.0, False),         # singular PSD
        (2.0, 0.5, 1.0, False),
        (0.0, 0.0, 0.0, False),
        (1.0, 0.0, 0.0, False),
        (1.0, 2.0, 1.0, True),
        (1.0, 1.0 + 1e-6, 1.0, True),   # lambda_min = -1e-6
        (1.0, 0.0, -1e-3, True),
        (-1.0, 0.0, 1.0, True),
        (-1.0, 0.0, -1.0, True),
        (0.0, 1.0, 0.0, True),
    ]
    for a_rr, a_rt, a_tt, rejected in cases:
        a = scale * np.array([[a_rr, a_rt], [a_rt, a_tt]])
        b = a @ np.ones(2)  # in a's range: only the PSD rule may reject
        quad = QuadMoments(*a.ravel()[[0, 1, 3]].tolist(), *b.tolist(), 0.0)
        multi = MultiMoments(a=a, b=b, const=0.0)
        assert _raises(solve_nonneg_qp, multi) == rejected, (a_rr, a_rt, a_tt)
        for constrained in (False, True):
            assert _raises(lambda m: solve_quadratic_2d(m, constrained), quad) \
                == rejected, (a_rr, a_rt, a_tt, constrained)


def test_solve2d_random_kkt_and_grid():
    rng = np.random.default_rng(33)
    for _ in range(50):
        m = random_moments(rng)
        sol = solve_quadratic_2d(m)
        assert sol.rho >= 0 and sol.tau >= 0
        assert kkt_ok(m, sol.rho, sol.tau)
        grid = grid_min_2d_fast(m.a_rr, m.a_rt, m.a_tt, m.b_r, m.b_t, m.const)
        assert sol.objective <= grid + 1e-9


def test_solve2d_constrained_frozen():
    sol = solve_quadratic_2d(QuadMoments(1.0, 0.0, 1.0, 0.5, 0.0, 0.0),
                             constrained=True)
    assert (sol.rho, sol.tau) == pytest.approx((0.75, 0.25), abs=1e-14)
    assert sol.clip is Clip.NONE
    assert sol.objective == pytest.approx(-0.125, abs=1e-14)

    sol = solve_quadratic_2d(QuadMoments(1.0, 0.0, 1.0, 3.0, 0.0, 1.0),
                             constrained=True)
    assert (sol.rho, sol.tau) == pytest.approx((1.0, 0.0), abs=1e-14)
    assert sol.clip is Clip.CONVEX_BOUNDARY
    # J(1, 0) = a_rr - 2 b_r + const = 1 - 6 + 1
    assert sol.objective == pytest.approx(-4.0, abs=1e-14)

    sol = solve_quadratic_2d(QuadMoments(1.0, 0.0, 1.0, 0.0, 3.0, 1.0),
                             constrained=True)
    assert (sol.rho, sol.tau) == pytest.approx((0.0, 1.0), abs=1e-14)
    assert sol.clip is Clip.CONVEX_BOUNDARY


def test_solve2d_constrained_degenerate_same_estimate():
    # R_t == T0 throughout: every rho gives the same estimate
    m = QuadMoments(1.0, 1.0, 1.0, 0.5, 0.5, 0.0)
    sol = solve_quadratic_2d(m, constrained=True)
    assert sol.rho + sol.tau == pytest.approx(1.0, abs=1e-14)
    assert (sol.rho, sol.tau) == (1.0, 0.0)


def test_solve2d_constrained_matches_grid():
    rng = np.random.default_rng(34)
    for _ in range(50):
        m = random_moments(rng)
        sol = solve_quadratic_2d(m, constrained=True)
        assert sol.rho + sol.tau == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= sol.rho <= 1.0
        grid = grid_min_constrained(m.a_rr, m.a_rt, m.a_tt, m.b_r, m.b_t,
                                    m.const, step=1e-4)
        assert sol.objective <= grid + 1e-9


def _sweep_moments():
    """Random PSD moments a = F^T F, b = F^T d (F of rank 1 to 3, so b lies
    in the range of a, as for data), then the SCM moments of identity,
    diagonal and Toeplitz targets on AR draws at n = 30."""
    rng = np.random.default_rng(90)
    for _ in range(400):
        f = rng.standard_normal((int(rng.integers(1, 4)), 2))
        f *= rng.uniform(0.1, 3.0)
        d = rng.standard_normal(f.shape[0]) + rng.uniform(0.0, 2.0)
        a, b = f.T @ f, f.T @ d
        yield QuadMoments(a[0, 0], a[0, 1], a[1, 1], b[0], b[1],
                          float(rng.uniform(0.0, 5.0)))
    for r in (0.3, 0.5, 0.9):
        for t in (3, 4, 5, 8, 10, 15, 20, 40, 80):
            for cplx in (False, True):
                y = gaussian_samples(ar_covariance(30, r), t, rng, cplx)
                for make in (scaled_identity_target, diagonal_target,
                             toeplitz_average_target):
                    yield scm_fast_moments(y, make(scm(y)))


@pytest.mark.parametrize("constrained", [False, True])
def test_solve2d_matches_closed_form_reference(constrained):
    # the K = 1 active-set call against the former closed-form solver.
    # Exact ties, where the objective is equal on both quadrant edges to
    # rounding (collinear moments: the target equals R), are excluded:
    # the reference then takes whichever edge rounding favours, while the
    # active set frees rho first and lands on tau = 0
    compared = ties = 0
    for m in _sweep_moments():
        rho, tau, clip, tie = closed_form_2d(*vars(m).values(),
                                             constrained=constrained)
        if tie:
            ties += 1
            continue
        sol = solve_quadratic_2d(m, constrained)
        assert sol.clip.value == clip, (vars(m), sol)
        scale = max(rho, tau)
        assert abs(sol.rho - rho) <= 1e-12 * scale, (vars(m), sol)
        assert abs(sol.tau - tau) <= 1e-12 * scale, (vars(m), sol)
        compared += 1
    assert compared >= 400 and ties <= 200


def test_grid_fast_equals_grid_full():
    rng = np.random.default_rng(35)
    for _ in range(3):
        m = random_moments(rng)
        fast = grid_min_2d_fast(m.a_rr, m.a_rt, m.a_tt, m.b_r, m.b_t, m.const)
        full = grid_min_2d_full(m.a_rr, m.a_rt, m.a_tt, m.b_r, m.b_t, m.const)
        assert fast == pytest.approx(full, rel=1e-12, abs=1e-12)


# -------------------------------------------------------- closed-form (SCM)

def test_scm_unconstrained_frozen_three_samples():
    y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    sol = scm_solution_unconstrained(y, np.eye(2))
    assert sol.clip is Clip.RHO_ZERO
    assert sol.rho == 0.0
    assert sol.tau == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_scm_constrained_frozen_three_samples():
    y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    sol = scm_solution_constrained(y, scaled_identity_target(scm(y)))
    assert sol.rho == pytest.approx(0.0, abs=1e-12)
    assert sol.tau == pytest.approx(1.0, abs=1e-12)


def test_scm_unconstrained_matches_grid_search():
    rng = np.random.default_rng(36)
    sigma = ar_covariance(5, 0.5)
    y = gaussian_samples(sigma, 20, rng)
    t0 = scaled_identity_target(scm(y))
    sol = scm_solution_unconstrained(y, t0)
    m = scm_fast_moments(y, t0)
    grid = grid_min_2d_fast(m.a_rr, m.a_rt, m.a_tt, m.b_r, m.b_t, m.const,
                            step=1e-4)
    assert m.objective(sol.rho, sol.tau) <= grid + 1e-12
    assert grid - m.objective(sol.rho, sol.tau) <= 1e-6


def test_scm_constrained_matches_grid_search():
    rng = np.random.default_rng(37)
    sigma = ar_covariance(6, 0.7)
    for _ in range(5):
        y = gaussian_samples(sigma, 12, rng)
        t0 = scaled_identity_target(scm(y))
        sol = scm_solution_constrained(y, t0)
        m = scm_fast_moments(y, t0)
        grid = grid_min_constrained(m.a_rr, m.a_rt, m.a_tt, m.b_r, m.b_t,
                                    m.const, step=1e-5)
        assert m.objective(sol.rho, sol.tau) <= grid + 1e-12


def test_scm_identity_target_collapse():
    # with the scaled identity target the unconstrained solution already
    # satisfies rho + tau = 1, so both variants coincide
    rng = np.random.default_rng(38)
    sigma = ar_covariance(8, 0.5)
    for _ in range(10):
        y = gaussian_samples(sigma, 25, rng)
        t0 = scaled_identity_target(scm(y))
        unc = scm_solution_unconstrained(y, t0)
        con = scm_solution_constrained(y, t0)
        assert unc.rho + unc.tau == pytest.approx(1.0, abs=1e-10)
        assert abs(unc.rho - con.rho) <= 1e-10


def test_scm_solution_scaling_covariance():
    rng = np.random.default_rng(39)
    sigma = ar_covariance(6, 0.5)
    y = gaussian_samples(sigma, 60, rng)
    t0 = np.eye(6)
    base = scm_solution_unconstrained(y, t0)
    scaled = scm_solution_unconstrained(3.0 * y, t0)
    assert base.clip is Clip.NONE and scaled.clip is Clip.NONE
    assert scaled.rho == pytest.approx(base.rho, rel=1e-8)
    assert scaled.tau == pytest.approx(9.0 * base.tau, rel=1e-8)


# ---------------------------------------------------------------- OLS+LOOCV

def test_ols_fast_moments_match_explicit_refits():
    rng = np.random.default_rng(40)
    for cplx in (False, True):
        for _ in range(6):
            m_in = int(rng.integers(1, 4))
            t = int(rng.integers(m_in + 3, m_in + 10))
            n = int(rng.integers(2, 6))
            x = random_samples(m_in, t, rng, cplx)
            y = random_samples(n, t, rng, cplx)
            t0 = random_psd(n, rng, cplx)
            fast = ols_fast_moments(x, y, t0)
            covs = [ols_loo_cov_refit(x, y, i) for i in range(t)]
            slow = loocv_moments_general(covs, y, t0)
            for f in MOMENT_FIELDS:
                assert getattr(fast, f) == pytest.approx(
                    getattr(slow, f), rel=1e-8, abs=1e-8), f
    # N = M = 50 at T = 60: the leverages average 5/6
    x = random_samples(50, 60, rng, False)
    y = random_samples(50, 60, rng, False)
    t0 = random_psd(50, rng, False)
    fast = ols_fast_moments(x, y, t0)
    slow = loocv_moments_general(
        [ols_loo_cov_refit(x, y, i) for i in range(60)], y, t0)
    for f in MOMENT_FIELDS:
        assert getattr(fast, f) == pytest.approx(
            getattr(slow, f), rel=1e-8, abs=1e-8), f


@pytest.mark.parametrize("cplx", [False, True])
@pytest.mark.parametrize("n, m_in, t", [(50, 50, 51), (50, 50, 60),
                                        (50, 50, 200), (5, 2, 9)])
def test_ols_block_moments_match_per_sample_loop(cplx, n, m_in, t):
    # T = 51 puts every leverage near one, where the 1/(1 - h_t) updates
    # are largest; the bound is float64 headroom over the 2.2e-15 measured
    # on 40 seeds of these shapes
    rng = np.random.default_rng(1000 * n + t + cplx)
    x = random_samples(m_in, t, rng, cplx)
    y = random_samples(n, t, rng, cplx)
    t0 = random_psd(n, rng, cplx)
    fast = ols_fast_moments(x, y, t0)
    loop = ols_loo_moments_loop(x, y, t0)
    for f in MOMENT_FIELDS:
        assert getattr(fast, f) == pytest.approx(loop[f], rel=1e-12, abs=0), f


def test_ols_loo_moments_reuses_a_fit():
    # the fit holds the outputs it was fitted to, so a selection handed
    # the fit cannot pair it with other outputs, and gives the numbers of
    # a fresh fit of the same arrays
    rng = np.random.default_rng(45)
    x = random_samples(3, 12, rng, True)
    y = random_samples(4, 12, rng, True)
    t0 = random_psd(4, rng, True)
    fit = ols_fit(x, y)
    assert np.array_equal(fit.y, y) and not fit.y.flags.writeable
    want = solve_quadratic_2d(ols_fast_moments(x, y, t0))
    for _ in range(2):  # the second selection reads the fit's memo
        assert select_single_target("cv", t0, samples=fit) == want
    with pytest.raises(ValueError, match="non-finite"):
        ols_fit(x, np.full_like(y, np.nan))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(n=st.integers(1, 6), m_in=st.integers(1, 4), extra=st.integers(2, 12),
       cplx=st.booleans(), zero_row=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ols_fast_moments_property_matches_refits(n, m_in, extra, cplx,
                                                  zero_row, seed):
    rng = np.random.default_rng(seed)
    t = m_in + extra
    x = random_samples(m_in, t, rng, cplx)
    y = random_samples(n, t, rng, cplx)
    if zero_row:
        y[int(rng.integers(n))] = 0.0
    t0 = random_psd(n, rng, cplx)
    fast = ols_fast_moments(x, y, t0)
    slow = loocv_moments_general(
        [ols_loo_cov_refit(x, y, i) for i in range(t)], y, t0)
    for f in MOMENT_FIELDS:
        assert getattr(fast, f) == pytest.approx(
            getattr(slow, f), rel=1e-8, abs=1e-8), f


def test_moments_reject_a_target_of_another_size():
    rng = np.random.default_rng(46)
    y = random_samples(5, 10, rng, False)
    small = [[2.0]]
    with pytest.raises(ValueError, match=r"\(5, 5\).*\(1, 1\)"):
        scm_fast_moments(y, small)
    with pytest.raises(ValueError, match=r"\(5, 5\).*\(1, 1\)"):
        oracle_moments(scm(y), small, np.eye(5))
    with pytest.raises(ValueError, match=r"\(5, 5\).*\(1, 1\)"):
        ols_fast_moments(random_samples(2, 10, rng, False), y, small)


def test_ols_fast_moments_zero_target():
    rng = np.random.default_rng(41)
    x = random_samples(2, 9, rng, True)
    y = random_samples(3, 9, rng, True)
    m = ols_fast_moments(x, y, np.zeros((3, 3)))
    assert m.a_rt == 0.0 and m.b_t == 0.0 and m.a_tt == 0.0
    sol = solve_quadratic_2d(m)
    assert sol.tau == 0.0
    assert sol.clip is Clip.TAU_ZERO


# ------------------------------------------------------------------- facade

def test_select_dispatch_matches_components():
    rng = np.random.default_rng(42)
    sigma = ar_covariance(5, 0.6)
    y = gaussian_samples(sigma, 15, rng)
    t0 = scaled_identity_target(scm(y))

    cv = select_single_target("cv", t0, samples=y)
    ref = scm_solution_unconstrained(y, t0)
    assert (cv.rho, cv.tau, cv.clip) == (ref.rho, ref.tau, ref.clip)

    cvc = select_single_target("cv_constrained", t0, samples=y)
    refc = scm_solution_constrained(y, t0)
    assert (cvc.rho, cvc.tau) == (refc.rho, refc.tau)

    orc = select_single_target("oracle", t0, samples=y, truth=sigma)
    refo = solve_quadratic_2d(oracle_moments(scm(y), t0, sigma))
    assert (orc.rho, orc.tau) == (refo.rho, refo.tau)

    # the least-squares base, every method against its components; the
    # convex design needs a target that keeps tr R
    x = random_samples(2, 12, rng, False)
    yo = random_samples(4, 12, rng, False)
    d0, s0 = np.eye(4), scaled_identity_target(ols_fit(x, yo))
    sigma_o = ar_covariance(4, 0.3)
    for method, tk in (("cv", d0), ("cv_constrained", s0),
                       ("oracle", d0), ("oracle_constrained", s0)):
        m = (oracle_moments(ols_covariance(ols_fit(x, yo)), tk, sigma_o)
             if method.startswith("oracle") else ols_fast_moments(x, yo, tk))
        got = select_single_target(method, tk, samples=ols_fit(x, yo),
                                   truth=sigma_o)
        want = solve_quadratic_2d(m, constrained=method.endswith("constrained"))
        assert got == want, method


def test_select_constrained_requires_trace_preserving_target():
    # both selection facades apply the convex design's trace guard, on
    # either base
    rng = np.random.default_rng(42)
    x = random_samples(2, 12, rng, False)
    yo = random_samples(4, 12, rng, False)
    y = gaussian_samples(ar_covariance(4, 0.6), 12, rng)
    truth = ar_covariance(4, 0.3)
    for data in (ols_fit(x, yo), y):
        for method in ("cv_constrained", "oracle_constrained"):
            with pytest.raises(ValueError, match="trace-preserving"):
                select_single_target(method, np.eye(4), samples=data,
                                     truth=truth)


def test_select_argument_guards():
    y = np.eye(3)
    with pytest.raises(ValueError):
        select_single_target("cv", np.eye(3))  # no data at all
    with pytest.raises(ValueError):
        select_single_target("oracle", np.eye(3), samples=y)  # no truth
    with pytest.raises(ValueError):
        select_single_target("nope", np.eye(3), samples=y)


def test_oracle_solution_dominates_random_candidates():
    rng = np.random.default_rng(43)
    sigma = ar_covariance(6, 0.5)
    y = gaussian_samples(sigma, 10, rng)
    r = scm(y)
    t0 = scaled_identity_target(r)
    sol = solve_quadratic_2d(oracle_moments(r, t0, sigma))
    best = frobenius_norm_sq(shrink(r, t0, sol) - sigma)
    for _ in range(100):
        rho, tau = rng.uniform(0, 2, size=2)
        other = frobenius_norm_sq(rho * r + tau * t0 - sigma)
        assert best <= other + 1e-10


def test_shrink_nonneg_guard_and_psd():
    rng = np.random.default_rng(44)
    r = random_psd(4, rng)
    t0 = np.eye(4)
    from shrinkcov.single_target import ShrinkageSolution
    est = shrink(r, t0, ShrinkageSolution(rho=0.5, tau=0.25))
    assert is_psd(est)
    assert np.allclose(est, 0.5 * r + 0.25 * t0)
    with pytest.raises(ValueError):
        shrink(r, t0, ShrinkageSolution(rho=-0.1, tau=0.5))


@pytest.mark.parametrize("rho, tau", [(np.nan, 0.5), (0.5, np.nan),
                                      (np.inf, 0.5), (0.5, np.inf)])
def test_shrink_rejects_non_finite_coefficients(rho, tau):
    from shrinkcov.single_target import ShrinkageSolution
    with pytest.raises(ValueError, match="finite and nonnegative"):
        shrink(np.eye(2), np.eye(2), ShrinkageSolution(rho=rho, tau=tau))


def test_shrink_dtype_values_and_inputs_unmodified():
    from shrinkcov.single_target import ShrinkageSolution
    rng = np.random.default_rng(45)
    sol = ShrinkageSolution(rho=0.7, tau=0.3)
    real = random_psd(5, rng, complex_field=False)
    cplx = random_psd(5, rng)
    for base, target in ((real, cplx), (cplx, real), (real, real.T.copy()),
                         (cplx, cplx.conj())):
        saved = base.copy(), target.copy()
        est = shrink(base, target, sol)
        want = sol.rho * base + sol.tau * target
        assert est.dtype == want.dtype
        assert np.array_equal(est, want)
        assert np.array_equal(base, saved[0]) and np.array_equal(target, saved[1])


def test_scm_constrained_applies_the_trace_guard():
    # tr R = 4/3 but tr I = 2, so a convex combination of R and I cannot
    # keep tr R; the SCM selector applies the facade's guard
    y = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="trace-preserving"):
        scm_solution_constrained(y, np.eye(2))
