"""Built-in installation checks, runnable as ``shrinkcov selfcheck``.

Each suite exercises an end-to-end invariant that must hold on any
machine: estimates stay positive semidefinite, beamformers stay
distortionless, the error metric satisfies its algebraic identities,
CSV emission is deterministic, and parallel experiment runs reproduce
serial ones bit for bit.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .applications import mvdr_weights, mvdr_weights_pseudo, ula_steering
from .baselines import lw_coefficients, oas_coefficient
from .datagen import RngStream, ar_covariance, gaussian_samples
from .estimators import scm
from .experiments import (
    ExperimentConfig,
    ResultRow,
    emit_csv,
    nmse,
    run_experiment,
)
from .hermitian import is_psd
from .multi_target import mt_select
from .single_target import (
    scm_solution_constrained,
    scm_solution_unconstrained,
    shrink,
)
from .targets import (
    diagonal_target,
    scaled_identity_target,
    toeplitz_average_target,
)

__all__ = ["CheckResult", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one selfcheck suite."""

    name: str
    ok: bool
    detail: str = ""


def _check_psd_shrink() -> CheckResult:
    worst = np.inf
    for seed in range(5):
        gen = RngStream(100 + seed).generator()
        n = 8
        sigma = ar_covariance(n, 0.6)
        y = gaussian_samples(sigma, 6 + 2 * seed, gen,
                             complex_field=bool(seed % 2))
        r = scm(y)
        t0 = scaled_identity_target(r)
        ests = [
            shrink(r, t0, scm_solution_unconstrained(y, t0)),
            shrink(r, t0, scm_solution_constrained(y, t0)),
            shrink(r, np.eye(n), lw_coefficients(y)),
            shrink(r, t0, oas_coefficient(y)),
        ]
        targets = [t0, diagonal_target(r), toeplitz_average_target(r)]
        sol = mt_select("cv", targets, samples=y)
        ests.append(sum((tau * tk for tau, tk in zip(sol.taus, targets)),
                        sol.rho * r))
        for est in ests:
            w = np.linalg.eigvalsh(0.5 * (est + est.conj().T))
            worst = min(worst, float(w[0] / max(w[-1], 1e-300)))
            if not is_psd(est, tol=1e-10):
                return CheckResult("psd_shrink", False,
                                   f"estimate lost PSD at seed {seed}")
    return CheckResult("psd_shrink", True,
                       f"min relative eigenvalue {worst:.2e}")


def _check_mvdr_distortionless() -> CheckResult:
    worst = 0.0
    for seed in range(5):
        gen = RngStream(200 + seed).generator()
        n = 10
        sigma = ar_covariance(n, 0.5)
        y = gaussian_samples(sigma, 6, gen, complex_field=True)
        s = ula_steering(0.1 * seed, n)
        for w in (mvdr_weights(np.asarray(sigma, dtype=complex)
                               + 0.1 * np.eye(n), s),
                  mvdr_weights_pseudo(scm(y), s)):
            gap = abs(np.vdot(s, w) - 1.0)
            worst = max(worst, gap)
            if gap > 1e-10:
                return CheckResult("mvdr_distortionless", False,
                                   f"constraint violated by {gap:.2e}")
    return CheckResult("mvdr_distortionless", True,
                       f"worst constraint gap {worst:.2e}")


def _check_nmse_identities() -> CheckResult:
    truths = [np.eye(3), 2.0 * np.eye(3)]
    zero_gap = abs(nmse(truths, truths))
    one_gap = abs(nmse([np.zeros((3, 3)) for _ in truths], truths) - 1.0)
    scale_gap = abs(nmse([2.0 * t for t in truths], truths) - 1.0)
    ok = max(zero_gap, one_gap, scale_gap) < 1e-14
    return CheckResult("nmse_identities", ok,
                       f"gaps {zero_gap:.1e}/{one_gap:.1e}/{scale_gap:.1e}")


def _check_csv_determinism() -> CheckResult:
    rows = [
        ResultRow("MvdrBeam", "cv", 10, "sinr_db", 12.5, 0.25, 50),
        ResultRow("Ar1Identity", "scm", 10, "nmse_cov", 1.0 / 3.0, 0.01, 200),
        ResultRow("Ar1Identity", "cv", 20, "nmse_cov", 0.0625, 0.001, 200),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        a = os.path.join(tmp, "a.csv")
        b = os.path.join(tmp, "b.csv")
        emit_csv(rows, a)
        emit_csv(list(reversed(rows)), b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            same = fa.read() == fb.read()
    return CheckResult("csv_determinism", same,
                       "" if same else "emission depends on row order")


def _check_parallel_serial() -> CheckResult:
    # the array scenes share samplers and steering across worker threads
    configs = [
        ExperimentConfig("Ar1Identity", sample_counts=(6,), reps=4,
                         seed=3, params={"n": 5},
                         methods=("scm", "cv", "oas")),
        ExperimentConfig("MimoChannelMmse", sample_counts=(6,), reps=4,
                         seed=3, params={"nt": 2, "nr": 3}),
        ExperimentConfig("MvdrBeam", sample_counts=(10,), reps=4,
                         seed=3, params={"n": 6}),
    ]
    diverged = [cfg.experiment for cfg in configs
                if run_experiment(cfg, workers=1)
                != run_experiment(cfg, workers=3)]
    return CheckResult("parallel_serial", not diverged,
                       "parallel run diverged from serial: "
                       + ", ".join(diverged) if diverged else "")


def run_all() -> list:
    """Run every selfcheck suite; returns their :class:`CheckResult` list."""
    return [
        _check_psd_shrink(),
        _check_mvdr_distortionless(),
        _check_nmse_identities(),
        _check_csv_determinism(),
        _check_parallel_serial(),
    ]
