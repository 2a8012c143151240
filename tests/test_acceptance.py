"""Acceptance gate: ten release criteria checked at their stated tolerances.

Each criterion is one test; a PASS/FAIL line per criterion is written
straight to the terminal (bypassing capture) so the run log always shows
the verdict.  The module is also runnable standalone:

    python tests/test_acceptance.py
"""

import sys

import numpy as np

from shrinkcov import selfcheck
from shrinkcov.baselines import glc_coefficients, lw_coefficients, oas_coefficient
from shrinkcov.estimators import ols_loo_covariances, scm
from shrinkcov.experiments import ExperimentConfig, run_experiment
from shrinkcov.multi_target import (
    MultiMoments,
    mt_scm_loocv_moments,
    mt_select,
    solve_nonneg_qp,
    solve_nonneg_qp_simplex,
)
from shrinkcov.single_target import (
    QuadMoments,
    loocv_moments_general,
    ols_fast_moments,
    scm_fast_moments,
    scm_solution_constrained,
    scm_solution_unconstrained,
    solve_quadratic_2d,
)
from shrinkcov.targets import scaled_identity_target

from oracles import (
    best_fixed_constrained,
    best_fixed_single,
    grid_min_2d_fast,
    grid_min_2d_full,
    grid_min_constrained,
    loo_scm_naive,
    multi_target_ar_draws,
    ols_loo_cov_refit,
    random_psd,
    random_samples,
    scm_naive,
)

MOMENT_FIELDS = ("a_rr", "a_rt", "a_tt", "b_r", "b_t", "const")

# verdict lines collected here; conftest's terminal-summary hook replays
# them after the run, outside pytest's output capture
CRITERION_LINES: list = []


def _check(criterion: int, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE CRITERION {criterion:02d}: {status}"
    if detail:
        line += f"  [{detail}]"
    for f in failures:
        line += f"\n    - {f}"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert not failures, line


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-12)


def _moment_gap(fast, slow) -> float:
    return max(_rel(getattr(fast, f), getattr(slow, f))
               for f in MOMENT_FIELDS)


def _random_moments(rng):
    l = rng.standard_normal((2, 2))
    a = l @ l.T + 1e-3 * np.eye(2)
    b = rng.standard_normal(2)
    return QuadMoments(a_rr=a[0, 0], a_rt=a[0, 1], a_tt=a[1, 1],
                       b_r=b[0], b_t=b[1], const=float(rng.standard_normal()))


def _nmse_table(name, sample_counts, reps, seed, methods, params):
    cfg = ExperimentConfig(name, sample_counts=tuple(sample_counts),
                           reps=reps, seed=seed, methods=tuple(methods),
                           params=dict(params))
    rows = run_experiment(cfg)
    return {(row.method, row.t): row.mean for row in rows}


# ---------------------------------------------------------------------------


def test_criterion_01_scm_fast_path():
    # 100 random instances, N in 3..20, T in 3..50, both fields: the
    # closed-form moment accumulation must match moments computed from
    # explicitly constructed leave-one-out sample covariances to 1e-10.
    rng = np.random.default_rng(1001)
    worst = 0.0
    failures = []
    for i in range(100):
        n = int(rng.integers(3, 21))
        t = int(rng.integers(3, 51))
        cplx = bool(i % 2)
        y = random_samples(n, t, rng, cplx)
        t0 = random_psd(n, rng, cplx)
        fast = scm_fast_moments(y, t0)
        covs = [loo_scm_naive(y, j) for j in range(t)]
        gap = _moment_gap(fast, loocv_moments_general(covs, y, t0))
        worst = max(worst, gap)
        if gap > 1e-10:
            failures.append(f"instance {i} (n={n}, t={t}): gap {gap:.3e}")
    _check(1, failures, f"worst relative moment error {worst:.3e}")


def test_criterion_02_ols_fast_path():
    # 100 random instances, M < T, N <= 12: fast moments and rebuilt
    # leave-one-out covariances must match naive refits to 1e-8.
    rng = np.random.default_rng(1002)
    worst_m = worst_c = 0.0
    failures = []
    for i in range(100):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 7))
        t = int(rng.integers(m + 2, m + 31))
        cplx = bool(i % 2)
        x = random_samples(m, t, rng, cplx)
        y = random_samples(n, t, rng, cplx)
        t0 = random_psd(n, rng, cplx)
        refits = [ols_loo_cov_refit(x, y, j) for j in range(t)]
        gap_m = _moment_gap(ols_fast_moments(x, y, t0),
                            loocv_moments_general(refits, y, t0))
        rebuilt = ols_loo_covariances(x, y)
        gap_c = max(
            np.linalg.norm(rebuilt[j] - refits[j]) / np.linalg.norm(refits[j])
            for j in range(t))
        worst_m = max(worst_m, gap_m)
        worst_c = max(worst_c, gap_c)
        if gap_m > 1e-8 or gap_c > 1e-8:
            failures.append(f"instance {i} (n={n}, m={m}, t={t}): "
                            f"moments {gap_m:.3e}, covs {gap_c:.3e}")
    _check(2, failures,
           f"worst moment gap {worst_m:.3e}, worst cov gap {worst_c:.3e}")


def test_criterion_03_solver_optimality():
    rng = np.random.default_rng(1003)
    failures = []

    # the reduced grid reference itself is validated against the dense grid
    for _ in range(3):
        m = _random_moments(rng)
        fast = grid_min_2d_fast(m.a_rr, m.a_rt, m.a_tt, m.b_r, m.b_t, m.const)
        full = grid_min_2d_full(m.a_rr, m.a_rt, m.a_tt, m.b_r, m.b_t, m.const)
        if _rel(fast, full) > 1e-12:
            failures.append(f"grid reduction mismatch: {fast} vs {full}")

    worst_unc = worst_con = -np.inf
    for i in range(200):
        m = _random_moments(rng)
        sol = solve_quadratic_2d(m)
        grid = grid_min_2d_fast(m.a_rr, m.a_rt, m.a_tt, m.b_r, m.b_t,
                                m.const, step=1e-3)
        worst_unc = max(worst_unc, sol.objective - grid)
        if sol.objective > grid + 1e-6:
            failures.append(f"unconstrained instance {i}: "
                            f"{sol.objective} > grid {grid}")
        solc = solve_quadratic_2d(m, constrained=True)
        gridc = grid_min_constrained(m.a_rr, m.a_rt, m.a_tt, m.b_r, m.b_t,
                                     m.const, step=1e-3)
        worst_con = max(worst_con, solc.objective - gridc)
        if solc.objective > gridc + 1e-6:
            failures.append(f"constrained instance {i}: "
                            f"{solc.objective} > grid {gridc}")

    def kkt_orthant(a, b, x, lam=0.0):
        g = a @ x - b + lam
        bad = 0.0
        for j in range(len(x)):
            if x[j] > 1e-10:
                bad = max(bad, abs(g[j]))
            else:
                bad = max(bad, max(0.0, -g[j]))
        return bad

    worst_kkt = 0.0
    for i in range(200):
        k = int(rng.integers(1, 7))
        l = rng.standard_normal((k, k))
        a = l @ l.T + 1e-2 * np.eye(k)
        b = rng.standard_normal(k)
        x, _ = solve_nonneg_qp(MultiMoments(a=a, b=b, const=0.0))
        res = kkt_orthant(a, b, x)
        worst_kkt = max(worst_kkt, res)
        if res > 1e-8:
            failures.append(f"orthant KKT instance {i}: residual {res:.3e}")
        xs, _ = solve_nonneg_qp_simplex(MultiMoments(a=a, b=b, const=0.0))
        s = float(np.sum(xs))
        if s > 1.0 + 1e-10 or np.min(xs) < -1e-12:
            failures.append(f"simplex feasibility instance {i}")
            continue
        if s < 1.0 - 1e-10:
            res = kkt_orthant(a, b, xs)
        else:
            free = a @ xs - b
            lam = max(0.0, -float(np.min(free[xs > 1e-10]))
                      if np.any(xs > 1e-10) else 0.0)
            res = kkt_orthant(a, b, xs, lam=lam)
        worst_kkt = max(worst_kkt, res)
        if res > 1e-8:
            failures.append(f"simplex KKT instance {i}: residual {res:.3e}")

    # data-driven moment instances exercise the same bounds
    for i in range(10):
        y = random_samples(5, 12, rng, bool(i % 2))
        r = scm(y)
        targets = [scaled_identity_target(r), np.diag(np.diag(r).real)]
        m = mt_scm_loocv_moments(y, targets)
        x, _ = solve_nonneg_qp(m)
        res = kkt_orthant(m.a, m.b, x)
        worst_kkt = max(worst_kkt, res)
        if res > 1e-8:
            failures.append(f"data instance {i}: KKT residual {res:.3e}")

    _check(3, failures,
           f"worst obj-grid gap unc {worst_unc:.2e} / con {worst_con:.2e}, "
           f"worst KKT residual {worst_kkt:.2e}")


def test_criterion_04_identity_target_collapse():
    rng = np.random.default_rng(1004)
    worst = 0.0
    failures = []
    for i in range(100):
        n = int(rng.integers(2, 13))
        t = int(rng.integers(3, 41))
        y = random_samples(n, t, rng, bool(i % 2))
        t0 = scaled_identity_target(scm(y))
        unc = scm_solution_unconstrained(y, t0)
        con = scm_solution_constrained(y, t0)
        gap = abs(unc.rho - con.rho)
        worst = max(worst, gap)
        if gap > 1e-10:
            failures.append(f"instance {i} (n={n}, t={t}): |drho| {gap:.3e}")
    _check(4, failures, f"worst |rho_unc - rho_con| {worst:.3e}")


def test_criterion_05_baseline_identities():
    rng = np.random.default_rng(1005)
    failures = []
    worst_lw = worst_oas = worst_b2 = 0.0
    for i in range(40):
        n = int(rng.integers(2, 10))
        t = int(rng.integers(2, 25))
        cplx = bool(i % 2)
        y = random_samples(n, t, rng, cplx)

        lw = lw_coefficients(y)
        glc = glc_coefficients(y, np.eye(n))
        gap = max(abs(glc.rho - lw.rho), abs(glc.tau - lw.tau))
        worst_lw = max(worst_lw, gap)
        if gap > 1e-12:
            failures.append(f"GLC(I) vs LW instance {i}: gap {gap:.3e}")

        # independent evaluation of the closed-form single-coefficient rule
        r = scm_naive(y)
        tr = np.trace(r).real
        tr2 = float(np.vdot(r, r).real)
        den = (t + 1 - 2.0 / n) * (tr2 - tr ** 2 / n)
        tau_ref = 1.0 if den <= 0 else min(
            1.0, ((1 - 2.0 / n) * tr2 + tr ** 2) / den)
        sol = oas_coefficient(y)
        gap = abs(sol.tau - tau_ref)
        worst_oas = max(worst_oas, gap)
        if gap > 1e-12:
            failures.append(f"OAS instance {i}: gap {gap:.3e}")

        # fast dispersion statistic identity
        direct = sum(
            float(np.vdot(np.outer(y[:, j], y[:, j].conj()) - r,
                          np.outer(y[:, j], y[:, j].conj()) - r).real)
            for j in range(t)) / t ** 2
        fast = (float(np.sum(np.sum(np.abs(y) ** 2, axis=0) ** 2)) / t ** 2
                - tr2 / t)
        gap = _rel(fast, direct)
        worst_b2 = max(worst_b2, gap)
        if gap > 1e-10:
            failures.append(f"beta2 identity instance {i}: rel {gap:.3e}")
    _check(5, failures,
           f"worst gaps: GLC-LW {worst_lw:.2e}, OAS {worst_oas:.2e}, "
           f"beta2 {worst_b2:.2e}")


def test_criterion_06_ar1_trend():
    counts = (10, 20, 40, 80)
    table = _nmse_table("Ar1Identity", counts, reps=200, seed=6001,
                        methods=("oracle", "cv", "oas", "lw", "glc", "scm"),
                        params={"n": 40, "r": 0.5})
    failures = []
    for t in counts:
        orc, cv, scm_ = table[("oracle", t)], table[("cv", t)], table[("scm", t)]
        oas = table[("oas", t)]
        if not orc <= cv <= scm_:
            failures.append(f"T={t}: ordering oracle {orc:.4g} "
                            f"<= cv {cv:.4g} <= scm {scm_:.4g} violated")
        if abs(cv - oas) / oas > 0.05:
            failures.append(f"T={t}: |cv-oas|/oas = "
                            f"{abs(cv - oas) / oas:.3f} > 0.05")
    for method in ("oracle", "cv", "oas", "lw", "glc"):
        if table[("scm", 10)] < 2.0 * table[(method, 10)]:
            failures.append(
                f"T=10: scm/{method} = "
                f"{table[('scm', 10)] / table[(method, 10)]:.2f} < 2")
    detail = ", ".join(f"T={t}: cv {table[('cv', t)]:.3g}" for t in counts)
    _check(6, failures, detail)


def test_criterion_07_past_target_trend():
    counts = (30, 40, 60)
    table = _nmse_table("LinearModelPastTarget", counts, reps=200, seed=6002,
                        methods=("scm", "cv_identity", "cv_past"),
                        params={"n": 25, "m": 25, "sigma2": 0.1,
                                "past_t": 50})
    failures = []
    for t in counts:
        past, ident, scm_ = (table[("cv_past", t)],
                             table[("cv_identity", t)],
                             table[("scm", t)])
        if not past < ident < scm_:
            failures.append(f"T={t}: want past {past:.4g} < identity "
                            f"{ident:.4g} < scm {scm_:.4g}")
    detail = ", ".join(
        f"T={t}: {table[('cv_past', t)]:.3g}/{table[('cv_identity', t)]:.3g}"
        f"/{table[('scm', t)]:.3g}" for t in counts)
    _check(7, failures, detail)


def _cv_multi_con_nmse(sigma, draws):
    """Mean NMSE of the convex multi-target LOOCV choice over the draws."""
    errs = []
    for y, r, targets in draws:
        sol = mt_select("cv_constrained", targets, samples=y)
        est = sol.rho * r + sum(tau * t0 for tau, t0 in zip(sol.taus, targets))
        errs.append(float(np.vdot(est - sigma, est - sigma).real))
    return float(np.mean(errs)) / float(np.vdot(sigma, sigma).real)


def test_criterion_08_multi_target_trend():
    # Convex multi-target LOOCV is measured against the best fixed weights
    # chosen in hindsight on the same draws.  The per-draw oracle re-picks
    # its weights for every draw knowing Sigma; no fixed weight vector gets
    # near it (1.5-2.0x on 21 seeds of this size), so cv/oracle is printed
    # but not bounded.  The 1.30 bound is measured, not from the paper: on
    # those 21 seeds cv/best-fixed spans 1.03-1.29, single-target LOOCV
    # 1.84-2.35 and equal weights 2.9-11.9.  Single-target LOOCV is also
    # bounded against its own best fixed (rho, tau): 1.03-1.14 on the
    # same 21 seeds, bound 1.20.
    counts = (15, 25, 50)
    reps, seed, params = 200, 6003, {"n": 25, "r": 0.9}
    table = _nmse_table("MultiTargetAr", counts, reps=reps, seed=seed,
                        methods=("cv_single", "cv_multi_con",
                                 "oracle_multi_con"),
                        params=params)
    failures = []
    details = []
    for t_index, t in enumerate(counts):
        cv = table[("cv_multi_con", t)]
        single = table[("cv_single", t)]
        oracle = table[("oracle_multi_con", t)]
        if t >= 25 and not table[("cv_multi_con", t)] < table[("cv_single", t)]:
            failures.append(
                f"T={t}: multi {table[('cv_multi_con', t)]:.4g} not below "
                f"single {table[('cv_single', t)]:.4g}")
        sigma, draws = multi_target_ar_draws(seed, reps, t_index, t, **params)
        best = best_fixed_constrained(sigma, draws)
        best_single = best_fixed_single(sigma, draws)
        # the reference must sit on the harness's own draws
        paired = _cv_multi_con_nmse(sigma, draws)
        if _rel(paired, cv) > 1e-12:
            failures.append(f"T={t}: recreated cv {paired:.12g} != harness "
                            f"{cv:.12g}")
        # a per-draw minimum can never exceed a fixed choice
        if oracle > best:
            failures.append(f"T={t}: oracle {oracle:.4g} above best fixed "
                            f"{best:.4g}")
        if cv / best > 1.30:
            failures.append(f"T={t}: cv/best-fixed = {cv / best:.3f} > 1.30")
        if single / best_single > 1.20:
            failures.append(f"T={t}: st/best-fixed-st = "
                            f"{single / best_single:.3f} > 1.20")
        details.append(f"T={t}: mt {cv:.3g} vs st {single:.3g}, "
                       f"cv/best-fixed {cv / best:.3f}, "
                       f"cv/oracle {cv / oracle:.3f}, "
                       f"st/best-fixed-st {single / best_single:.3f}")
    _check(8, failures, "; ".join(details))


def test_criterion_09_beamformer_sinr():
    counts = (20, 40)
    table = _nmse_table("MvdrBeam", counts, reps=200, seed=6004,
                        methods=("cv", "oas", "scm_pinv"), params={})
    failures = []
    gain = table[("cv", 20)] - table[("scm_pinv", 20)]
    if gain < 1.0:
        failures.append(f"T=20: cv - scm_pinv = {gain:.3f} dB < 1 dB")
    for t in counts:
        gap = abs(table[("cv", t)] - table[("oas", t)])
        if gap > 0.3:
            failures.append(f"T={t}: |cv - oas| = {gap:.3f} dB > 0.3 dB")
    detail = ", ".join(f"T={t}: cv {table[('cv', t)]:.2f} dB, "
                       f"pinv {table[('scm_pinv', t)]:.2f} dB"
                       for t in counts)
    _check(9, failures, detail)


def test_criterion_10_selfcheck_suites():
    results = selfcheck.run_all()
    names = {r.name for r in results}
    required = {"psd_shrink", "mvdr_distortionless", "nmse_identities",
                "csv_determinism", "parallel_serial"}
    failures = [f"suite {r.name}: {r.detail}" for r in results if not r.ok]
    missing = required - names
    if missing:
        failures.append(f"missing suites: {sorted(missing)}")
    from shrinkcov.cli import main
    if main(["selfcheck"]) != 0:
        failures.append("CLI selfcheck exit code nonzero")
    _check(10, failures, f"{len(results)} suites")


CRITERIA = (
    test_criterion_01_scm_fast_path,
    test_criterion_02_ols_fast_path,
    test_criterion_03_solver_optimality,
    test_criterion_04_identity_target_collapse,
    test_criterion_05_baseline_identities,
    test_criterion_06_ar1_trend,
    test_criterion_07_past_target_trend,
    test_criterion_08_multi_target_trend,
    test_criterion_09_beamformer_sinr,
    test_criterion_10_selfcheck_suites,
)


def main() -> int:
    bad = 0
    for fn in CRITERIA:
        try:
            fn()
        except AssertionError:
            bad += 1
    print(f"{len(CRITERIA) - bad}/{len(CRITERIA)} acceptance criteria passed",
          file=sys.__stdout__, flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
