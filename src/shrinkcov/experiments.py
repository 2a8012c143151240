"""Monte-Carlo experiment harness for the shrinkage estimators.

Six named experiments compare selection methods over a grid of sample
counts.  Each replication draws one shared dataset per (experiment, T,
rep) address and evaluates every requested method on it, so method
curves are paired; the per-replication random streams are keyed by
(seed, T-index, rep) and independent of execution order, which makes
parallel runs bit-identical to serial ones.

Results are rows of (experiment, method, T, metric, mean, stderr, reps)
emitted as deterministic CSV.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .applications import (
    lmmse_detect,
    ls_to_channel_cov,
    mmse_channel_estimate,
    mvdr_weights,
    mvdr_weights_pseudo,
    output_sinr,
)
from .baselines import glc_coefficients, lw_coefficients, oas_coefficient
from .datagen import (
    RngStream,
    ar_covariance,
    gaussian_samples,
    interference_scene,
    kronecker_channel_cov,
    linear_model_scene,
)
from .estimators import ols_covariance, ols_fit, scm
from .hermitian import frobenius_norm_sq, hermitize
from .multi_target import mt_select
from .single_target import (
    ols_loo_moments,
    oracle_moments,
    scm_solution_unconstrained,
    shrink,
    solve_quadratic_2d,
)
from .targets import (
    diagonal_target,
    knowledge_aided_target,
    scaled_identity_target,
    toeplitz_average_target,
)

__all__ = [
    "ConfigError",
    "NumericError",
    "ResultRow",
    "ExperimentConfig",
    "RunPlan",
    "ExperimentSpec",
    "EXPERIMENTS",
    "nmse",
    "parse_config",
    "run_experiment",
    "format_csv",
    "emit_csv",
    "read_csv",
]


class ConfigError(Exception):
    """Invalid experiment configuration."""


class NumericError(Exception):
    """A replication produced non-finite results."""


@dataclass(frozen=True)
class ResultRow:
    """One aggregated table row of an experiment run."""

    experiment: str
    method: str
    t: int
    metric: str
    mean: float
    stderr: float
    reps: int


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment request: grid of sample counts times methods."""

    experiment: str
    sample_counts: tuple
    reps: int = 200
    seed: int = 0
    methods: tuple = ()
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunPlan:
    """Validated configs plus the worker count for the whole run."""

    configs: tuple
    workers: int = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: metric, available methods, published defaults."""

    metric: str
    methods: tuple
    defaults: dict
    sample_counts: tuple
    replicate: Callable


def nmse(estimates, truths) -> float:
    """Normalized MSE: sum ||est - truth||_F^2 / sum ||truth||_F^2."""
    if len(estimates) == 0 or len(estimates) != len(truths):
        raise ValueError("need matching, nonempty estimate and truth lists")
    num = math.fsum(frobenius_norm_sq(np.asarray(e) - np.asarray(t))
                    for e, t in zip(estimates, truths))
    den = math.fsum(frobenius_norm_sq(np.asarray(t)) for t in truths)
    if den <= 0.0:
        raise ValueError("truths have zero total energy")
    return num / den


# ---------------------------------------------------------------------------
# per-experiment replication functions
#
# Each takes (params, t, methods, stream) and returns, per method, either
# an (error, reference) pair for normalized-error metrics or a plain
# float for dB metrics.  All draws come from addressed sub-streams so a
# method subset never changes another method's data.


def _cov_error(est: np.ndarray, sigma: np.ndarray,
               den: float) -> tuple[float, float]:
    return frobenius_norm_sq(est - sigma), den


def _replicate_ar1(params, t, methods, stream: RngStream):
    sigma = ar_covariance(params["n"], params["r"])
    y = gaussian_samples(sigma, t, stream.generator(0))
    r = scm(y)
    t0 = scaled_identity_target(r)
    den = frobenius_norm_sq(sigma)
    out = {}
    for method in methods:
        if method == "scm":
            est = r
        elif method == "cv":
            est = shrink(r, t0, scm_solution_unconstrained(y, t0))
        elif method == "oracle":
            est = shrink(r, t0, solve_quadratic_2d(oracle_moments(r, t0, sigma)))
        elif method == "lw":
            est = shrink(r, np.eye(r.shape[0]), lw_coefficients(y))
        elif method == "glc":
            est = shrink(r, t0, glc_coefficients(y, t0))
        else:  # oas
            est = shrink(r, t0, oas_coefficient(y))
        out[method] = _cov_error(est, sigma, den)
    return out


def _replicate_linear_model(params, t, methods, stream: RngStream):
    scene = linear_model_scene(params["n"], params["m"], params["sigma2"],
                               stream.generator(0))
    x, y = scene.generator(t, stream.generator(1))
    sigma = scene.true_covariance
    den = frobenius_norm_sq(sigma)
    fit = ols_fit(x, y)
    r = ols_covariance(fit)
    t0 = scaled_identity_target(r)
    out = {}
    for method in methods:
        if method == "scm":
            est = scm(y)
        elif method == "cv_identity":
            est = shrink(r, t0, solve_quadratic_2d(ols_loo_moments(fit, y, t0)))
        elif method == "cv_past":
            _, past = scene.generator(params["past_t"], stream.generator(2))
            t0_past = knowledge_aided_target(past)
            sol = solve_quadratic_2d(ols_loo_moments(fit, y, t0_past))
            est = shrink(r, t0_past, sol)
        else:  # oracle_identity
            est = shrink(r, t0, solve_quadratic_2d(oracle_moments(r, t0, sigma)))
        out[method] = _cov_error(est, sigma, den)
    return out


def _replicate_multi_target(params, t, methods, stream: RngStream):
    sigma = ar_covariance(params["n"], params["r"])
    y = gaussian_samples(sigma, t, stream.generator(0))
    r = scm(y)
    targets = [scaled_identity_target(r), diagonal_target(r),
               toeplitz_average_target(r)]
    den = frobenius_norm_sq(sigma)

    def combine(sol):
        est = sol.rho * r
        for k, t0 in enumerate(targets):
            est = est + sol.taus[k] * t0
        return est

    out = {}
    for method in methods:
        if method == "scm":
            est = r
        elif method == "cv_single":
            est = shrink(r, targets[0], scm_solution_unconstrained(y, targets[0]))
        elif method == "oracle_single":
            m = oracle_moments(r, targets[0], sigma)
            est = shrink(r, targets[0], solve_quadratic_2d(m))
        elif method == "cv_multi":
            est = combine(mt_select("cv", targets, samples=y))
        elif method == "cv_multi_con":
            est = combine(mt_select("cv_constrained", targets, samples=y))
        else:  # oracle_multi_con
            est = combine(mt_select("oracle_constrained", targets,
                                    samples=y, truth=sigma))
        out[method] = _cov_error(est, sigma, den)
    return out


def _replicate_mimo(params, t, methods, stream: RngStream):
    sigma_h = kronecker_channel_cov(
        params["nt"], params["nr"],
        params["tx_mag"] * np.exp(1j * np.pi * params["tx_phase_pi"]),
        params["rx_mag"] * np.exp(1j * np.pi * params["rx_phase_pi"]))
    p = sigma_h.shape[0]
    # effective pilot SNR after least-squares combining
    p_eff = 10.0 ** (params["pilot_db"] / 10.0) * params["pilot_len"] / params["nt"]
    sigma_ls = sigma_h + np.eye(p) / p_eff

    # past least-squares channel estimates = channel plus white residual
    samples = gaussian_samples(sigma_ls, t, stream.generator(0),
                               complex_field=True)
    r = scm(samples)
    t0 = scaled_identity_target(r)

    gen = stream.generator(1)
    h_star = gaussian_samples(sigma_h, 1, gen, complex_field=True)[:, 0]
    noise = gaussian_samples(np.eye(p), 1, gen, complex_field=True)[:, 0]
    pilot = math.sqrt(p_eff) * np.eye(p)
    obs = pilot @ h_star + noise

    den = float(np.trace(sigma_h).real)
    out = {}
    for method in methods:
        if method == "ls":
            h_hat = obs / math.sqrt(p_eff)
        else:
            if method == "true":
                cov_h = sigma_h
            elif method == "cv":
                est_ls = shrink(r, t0, scm_solution_unconstrained(samples, t0))
                cov_h = ls_to_channel_cov(est_ls, p_eff)
            else:  # oracle, judged against the true LS-estimate covariance
                m = oracle_moments(r, t0, sigma_ls)
                est_ls = shrink(r, t0, solve_quadratic_2d(m))
                cov_h = ls_to_channel_cov(est_ls, p_eff)
            h_hat = mmse_channel_estimate(cov_h, pilot, obs)
        out[method] = (float(np.sum(np.abs(h_hat - h_star) ** 2)), den)
    return out


def _detect(channel: np.ndarray, cov: np.ndarray,
            obs: np.ndarray) -> np.ndarray:
    """LMMSE detection with an eigenvalue-pseudoinverse fallback."""
    try:
        return lmmse_detect(channel, cov, obs)
    except ValueError:
        w, v = np.linalg.eigh(hermitize(cov))
        cutoff = cov.shape[0] * np.finfo(float).eps * max(float(w[-1]), 0.0)
        keep = w > cutoff
        coords = v[:, keep].conj().T @ obs
        return channel.conj().T @ (v[:, keep] @ (coords / w[keep]))


def _replicate_lmmse(params, t, methods, stream: RngStream):
    n, m = params["n"], params["m"]
    gen0 = stream.generator(0)
    coef = math.sqrt(params["coef_var"] / 2.0) * (
        gen0.standard_normal((n, m)) + 1j * gen0.standard_normal((n, m)))
    sigma = coef @ coef.conj().T + params["sigma2"] * np.eye(n)

    samples = gaussian_samples(sigma, t, stream.generator(1),
                               complex_field=True)
    r = scm(samples)
    t0 = scaled_identity_target(r)

    gen2 = stream.generator(2)
    x_star = gaussian_samples(np.eye(m), 1, gen2, complex_field=True)[:, 0]
    noise = gaussian_samples(np.eye(n), 1, gen2, complex_field=True)[:, 0]
    obs = coef @ x_star + math.sqrt(params["sigma2"]) * noise

    out = {}
    for method in methods:
        if method == "true":
            cov = sigma
        elif method == "cv":
            cov = shrink(r, t0, scm_solution_unconstrained(samples, t0))
        elif method == "oracle":
            cov = shrink(r, t0, solve_quadratic_2d(oracle_moments(r, t0, sigma)))
        else:  # scm
            cov = r
        x_hat = _detect(coef, cov, obs)
        out[method] = (float(np.sum(np.abs(x_hat - x_star) ** 2)), float(m))
    return out


def _replicate_mvdr(params, t, methods, stream: RngStream):
    scene = interference_scene(np.deg2rad(np.asarray(params["aoas_deg"],
                                                     dtype=float)),
                               params["inr_db"], params["noise_db"],
                               params["n"])
    sigma = scene.true_covariance
    steering = scene.metadata["steering"]
    sigma_in = scene.metadata["interference_plus_noise"]
    y = scene.generator(t, stream.generator(0))
    r = scm(y)
    t0 = scaled_identity_target(r)

    def weights_for(est):
        try:
            return mvdr_weights(est, steering)
        except ValueError:
            return mvdr_weights_pseudo(est, steering)

    out = {}
    for method in methods:
        if method == "optimal":
            w = mvdr_weights(sigma, steering)
        elif method == "scm_pinv":
            w = mvdr_weights_pseudo(r, steering)
        elif method == "cv":
            w = weights_for(shrink(r, t0, scm_solution_unconstrained(y, t0)))
        elif method == "oracle":
            m = oracle_moments(r, t0, sigma)
            w = weights_for(shrink(r, t0, solve_quadratic_2d(m)))
        elif method == "lw":
            w = weights_for(shrink(r, np.eye(r.shape[0]), lw_coefficients(y)))
        else:  # oas
            w = weights_for(shrink(r, t0, oas_coefficient(y)))
        out[method] = output_sinr(w, steering, 1.0, sigma_in)
    return out


EXPERIMENTS = {
    "Ar1Identity": ExperimentSpec(
        metric="nmse_cov",
        methods=("oracle", "cv", "lw", "glc", "oas", "scm"),
        defaults={"n": 100, "r": 0.5},
        sample_counts=(10, 20, 40, 80, 160),
        replicate=_replicate_ar1,
    ),
    "LinearModelPastTarget": ExperimentSpec(
        metric="nmse_cov",
        methods=("scm", "cv_identity", "cv_past", "oracle_identity"),
        defaults={"n": 50, "m": 50, "sigma2": 0.1, "past_t": 50},
        sample_counts=(60, 80, 100, 140, 200),
        replicate=_replicate_linear_model,
    ),
    "MultiTargetAr": ExperimentSpec(
        metric="nmse_cov",
        methods=("scm", "oracle_single", "cv_single", "cv_multi",
                 "cv_multi_con", "oracle_multi_con"),
        defaults={"n": 50, "r": 0.9},
        sample_counts=(25, 50, 100, 200),
        replicate=_replicate_multi_target,
    ),
    "MimoChannelMmse": ExperimentSpec(
        metric="nmse_h",
        methods=("true", "oracle", "cv", "ls"),
        defaults={"nt": 10, "nr": 10, "pilot_len": 10, "pilot_db": 5.0,
                  "tx_mag": 0.7, "tx_phase_pi": -0.9349,
                  "rx_mag": 0.9, "rx_phase_pi": -0.9289},
        sample_counts=(10, 20, 40, 80),
        replicate=_replicate_mimo,
    ),
    "LmmseDetect": ExperimentSpec(
        metric="nmse_x",
        methods=("true", "oracle", "cv", "scm"),
        defaults={"n": 40, "m": 40, "coef_var": 1.0 / 40.0, "sigma2": 0.1},
        sample_counts=(40, 80, 160),
        replicate=_replicate_lmmse,
    ),
    "MvdrBeam": ExperimentSpec(
        metric="sinr_db",
        methods=("optimal", "oracle", "cv", "oas", "lw", "scm_pinv"),
        defaults={"n": 30,
                  "aoas_deg": (8.0, -15.0, 23.0, -21.0, 46.0, -44.0,
                               -85.0, 74.0),
                  "inr_db": 10.0, "noise_db": -10.0},
        sample_counts=(20, 40, 60, 100),
        replicate=_replicate_mvdr,
    ),
}

# methods whose selection step cross-validates over held-out samples;
# they need at least three samples on the covariance path
_CV_PREFIX = "cv"

# stream offsets reserved per replication (replicators use at most 3)
_STREAMS_PER_REP = 8

_TOP_KEYS = {"experiments", "seed", "reps", "workers"}
_ENTRY_KEYS = {"experiment", "sample_counts", "methods", "params",
               "reps", "seed"}


def _validated(cfg: ExperimentConfig) -> tuple[ExperimentSpec, tuple, dict]:
    """Check one config against the registry; return (spec, methods, params)."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; available: "
                          f"{', '.join(sorted(EXPERIMENTS))}")
    spec = EXPERIMENTS[cfg.experiment]
    methods = tuple(cfg.methods) or spec.methods
    for method in methods:
        if method not in spec.methods:
            raise ConfigError(
                f"unknown method {method!r} for {cfg.experiment}; available: "
                f"{', '.join(spec.methods)}")
    counts = tuple(cfg.sample_counts)
    if not counts:
        raise ConfigError("sample_counts must be a nonempty list")
    for t in counts:
        if not isinstance(t, (int, np.integer)) or isinstance(t, bool) or t < 1:
            raise ConfigError(f"sample count {t!r} must be a positive integer")
    if cfg.reps < 1:
        raise ConfigError(f"reps must be at least 1, got {cfg.reps}")
    if not isinstance(cfg.params, dict):
        raise ConfigError("params must be a mapping")
    unknown = set(cfg.params) - set(spec.defaults)
    if unknown:
        raise ConfigError(f"unknown params for {cfg.experiment}: "
                          f"{', '.join(sorted(unknown))}; available: "
                          f"{', '.join(sorted(spec.defaults))}")
    params = {**spec.defaults, **cfg.params}
    uses_cv = any(method.startswith(_CV_PREFIX) for method in methods)
    if uses_cv and min(counts) < 3:
        raise ConfigError("cross-validated methods need at least 3 samples; "
                          f"got sample count {min(counts)}")
    if cfg.experiment == "LinearModelPastTarget":
        fitted = [m for m in methods if m != "scm"]
        if fitted and min(counts) <= params["m"]:
            raise ConfigError(
                "least-squares methods need more samples than inputs "
                f"(T > {params['m']}); got sample count {min(counts)}")
    return spec, methods, params


def parse_config(doc) -> RunPlan:
    """Validate a configuration document into a :class:`RunPlan`.

    The document is a mapping with an ``experiments`` list; top-level
    ``seed``, ``reps`` and ``workers`` provide defaults for every entry.
    All keys are validated strictly so typos fail fast.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: "
                          f"{', '.join(sorted(unknown))}")
    entries = doc.get("experiments")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("configuration needs a nonempty 'experiments' list")
    workers = doc.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    default_seed = doc.get("seed", 0)
    default_reps = doc.get("reps", 200)
    configs = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"experiment entry {pos} must be a mapping")
        unknown = set(entry) - _ENTRY_KEYS
        if unknown:
            raise ConfigError(f"unknown keys in experiment entry {pos}: "
                              f"{', '.join(sorted(unknown))}")
        name = entry.get("experiment")
        if name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {name!r}; available: "
                              f"{', '.join(sorted(EXPERIMENTS))}")
        spec = EXPERIMENTS[name]
        cfg = ExperimentConfig(
            experiment=name,
            sample_counts=tuple(entry.get("sample_counts",
                                          spec.sample_counts)),
            reps=entry.get("reps", default_reps),
            seed=entry.get("seed", default_seed),
            methods=tuple(entry.get("methods", spec.methods)),
            params=dict(entry.get("params", {})),
        )
        _validated(cfg)
        configs.append(cfg)
    return RunPlan(configs=tuple(configs), workers=workers)


def _aggregate(metric: str, per_rep: list) -> tuple[float, float]:
    """Reduce per-replication method results to (mean, stderr)."""
    reps = len(per_rep)
    if metric.startswith("nmse"):
        errs = np.array([v[0] for v in per_rep])
        refs = np.array([v[1] for v in per_rep])
        ref_mean = float(np.mean(refs))
        values = errs / ref_mean
    else:
        values = np.array(per_rep, dtype=float)
    mean = float(np.mean(values))
    stderr = 0.0 if reps < 2 else float(np.std(values, ddof=1)
                                        / math.sqrt(reps))
    if not (np.isfinite(mean) and np.isfinite(stderr)):
        raise NumericError(f"non-finite {metric} aggregate")
    return mean, stderr


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list:
    """Run one experiment config; returns sorted :class:`ResultRow` lists.

    Replications are independent random streams, so ``workers > 1``
    produces bit-identical results to a serial run.
    """
    spec, methods, params = _validated(cfg)
    rows = []
    for t_index, t in enumerate(cfg.sample_counts):
        def one_rep(rep: int, _t=t, _ti=t_index):
            # stride the base offset so each replication owns a block of
            # stream offsets and sub-draws never collide across reps
            base = (_ti * cfg.reps + rep) * _STREAMS_PER_REP
            stream = RngStream(cfg.seed, base)
            return spec.replicate(params, _t, methods, stream)

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                per_rep = list(pool.map(one_rep, range(cfg.reps)))
        else:
            per_rep = [one_rep(rep) for rep in range(cfg.reps)]
        for method in methods:
            mean, stderr = _aggregate(spec.metric,
                                      [r[method] for r in per_rep])
            rows.append(ResultRow(experiment=cfg.experiment, method=method,
                                  t=t, metric=spec.metric, mean=mean,
                                  stderr=stderr, reps=cfg.reps))
    rows.sort(key=lambda row: (row.experiment, row.method, row.t))
    return rows


# ---------------------------------------------------------------------------
# CSV emission

_HEADER = ("experiment", "method", "T", "metric", "mean", "stderr", "reps")


def format_csv(rows) -> str:
    """Rows as deterministic CSV text sorted by (experiment, method, T)."""
    ordered = sorted(rows, key=lambda r: (r.experiment, r.method, r.t))
    lines = [",".join(_HEADER)]
    lines.extend(f"{r.experiment},{r.method},{r.t},{r.metric},"
                 f"{r.mean:.12g},{r.stderr:.12g},{r.reps}" for r in ordered)
    return "\n".join(lines) + "\n"


def emit_csv(rows, path) -> None:
    """Write rows as deterministic CSV sorted by (experiment, method, T)."""
    text = format_csv(rows)
    with open(path, "w", newline="") as handle:
        handle.write(text)


def read_csv(path) -> list:
    """Read rows written by :func:`emit_csv`."""
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is not None and tuple(header) != _HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for rec in reader:
            rows.append(ResultRow(experiment=rec[0], method=rec[1],
                                  t=int(rec[2]), metric=rec[3],
                                  mean=float(rec[4]), stderr=float(rec[5]),
                                  reps=int(rec[6])))
    return rows
