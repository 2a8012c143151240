"""Monte-Carlo experiment harness for the shrinkage estimators.

Six named experiments compare selection methods over a grid of sample
counts.  Each is a setting function, which builds what every
replication of one config shares (truth covariances and their samplers,
judges, constants) from the config's params; a scene function, which
draws one replication's data from the setting per (experiment, T, rep)
address; and a method table, which maps each method to the output its
scene judges.  The selectors are shared across tables.
:func:`run_experiment` builds a config's setting once, before any
replication runs, and every replication and worker thread reads it: its
arrays are read-only, and nothing outlives the call.  Every requested
method is judged on the same draw, so method curves are paired; the
per-replication random streams are keyed by (seed, T-index, rep) and
independent of execution order, which makes parallel runs
bit-identical to serial ones.

Results are rows of (experiment, method, T, metric, mean, stderr, reps)
emitted as deterministic CSV.
"""

from __future__ import annotations

import csv
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace as _Scene
from typing import Callable

import numpy as np

from .applications import (
    _pinv_solve,
    lmmse_detect,
    mvdr_weights,
    mvdr_weights_pseudo,
    output_sinr,
    spectral_channel_estimate,
)
from .baselines import glc_coefficients, lw_coefficients, oas_coefficient
from .datagen import (
    RngStream,
    ar_covariance,
    gaussian_sampler,
    gaussian_samples,
    interference_scene,
    kronecker_channel_cov,
    linear_model_scene,
)
from .estimators import ols_fit, sample_block, scm
from .hermitian import frobenius_norm_sq
from .multi_target import mt_select
from .single_target import ShrinkageSolution, select_single_target, shrink
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
    """One experiment request; None counts or () methods mean the spec's."""

    experiment: str
    sample_counts: tuple | None = None
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
    """Registry entry: metric, available methods, published defaults.

    ``setting(params)`` builds a config's shared setting once;
    ``replicate(setting, t, methods, stream)`` draws one replication from
    it and returns each method's judged result; ``min_samples(params, m)``
    is the least T method m runs with, or raises ConfigError.
    """

    metric: str
    methods: tuple
    defaults: dict
    sample_counts: tuple
    setting: Callable
    replicate: Callable
    min_samples: Callable


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
# settings, scenes and method tables
#
# A setting function checks a config's params against its draws' domain
# and maps them to what its replications share, a _frozen namespace: the
# truth, its samplers and every constant of the config; it draws nothing.
# A scene function draws from the setting on sub-streams 0-2 and returns
# a _Scene of ``source`` (the replication's owner, the SCM block or the
# least-squares fit: its R is what the selectors shrink, and they and the
# baselines select on it), ``truth`` (the oracle's covariance),
# ``targets`` (scaled identity first), ``judge`` and its consumer's inputs.
# A table entry maps the scene to the judge's input: a covariance estimate,
# a channel estimate or beamformer weights.  The judge returns (error,
# reference) for normalized-error metrics, a float for dB metrics.  A draw
# only one method needs is made in its entry, so a method subset never
# changes another method's data.  Entries look package functions up in
# these module globals at call time, and replicate iterates the ``methods``
# it is given, so wrappers installed on either see every call and method.


def _cov_judge(sigma: np.ndarray) -> Callable:
    """Judge of covariance estimates: (squared Frobenius error, ||sigma||^2)."""
    den = frobenius_norm_sq(sigma)
    return lambda est: (frobenius_norm_sq(est - sigma), den)


# single-target coefficients of the scene's R, selected on its source
def _cv_solution(s: _Scene, target=None) -> ShrinkageSolution:
    target = s.targets[0] if target is None else target
    return select_single_target("cv", target, samples=s.source)


def _oracle_solution(s: _Scene) -> ShrinkageSolution:
    return select_single_target("oracle", s.targets[0], samples=s.source,
                                truth=s.truth)


# shared selectors: each returns a covariance estimate of the scene
def _cv(s: _Scene, target=None) -> np.ndarray:
    target = s.targets[0] if target is None else target
    return shrink(s.source.r, target, _cv_solution(s, target))


def _oracle(s: _Scene) -> np.ndarray:
    return shrink(s.source.r, s.targets[0], _oracle_solution(s))


def _lw(s: _Scene) -> np.ndarray:
    r = s.source.r
    return shrink(r, np.eye(r.shape[0]), lw_coefficients(s.source))


def _glc(s: _Scene) -> np.ndarray:
    t0 = s.targets[0]
    return shrink(s.source.r, t0, glc_coefficients(s.source, t0))


def _oas(s: _Scene) -> np.ndarray:
    return shrink(s.source.r, s.targets[0], oas_coefficient(s.source))


def _multi(method: str) -> Callable:
    """Selector combining every target with :func:`mt_select` ``method``."""
    def select(s: _Scene) -> np.ndarray:
        sol = mt_select(method, s.targets, samples=s.source, truth=s.truth)
        return sum((tau * tk for tau, tk in zip(sol.taus, s.targets)),
                   sol.rho * s.source.r)
    return select


def _loo_min_samples(*loo_methods) -> Callable:
    """Sample minimum of an SCM experiment: leave-one-out needs T >= 3."""
    return lambda params, method: 3 if method in loo_methods else 1


def _experiment(metric: str, make_setting: Callable, scene: Callable,
                table: dict, defaults: dict, sample_counts: tuple,
                min_samples=_loo_min_samples("cv")) -> ExperimentSpec:
    """Registry entry judging each method of ``table`` on one scene draw."""
    def replicate(setting, t, methods, stream: RngStream) -> dict:
        s = scene(setting, t, stream)
        return {method: s.judge(table[method](s)) for method in methods}
    return ExperimentSpec(metric=metric, methods=tuple(table),
                          defaults=defaults, sample_counts=sample_counts,
                          setting=make_setting, replicate=replicate,
                          min_samples=min_samples)


def _frozen(**fields) -> _Scene:
    """A config's setting, its arrays made read-only: all threads share it."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return _Scene(**fields)


def _scm_scene(samples: np.ndarray, truth: np.ndarray, judge: Callable,
               **inputs) -> _Scene:
    """Scene shrinking the sample covariance toward the scaled identity."""
    blk = sample_block(samples)
    return _Scene(source=blk, truth=blk.own(truth),
                  targets=[scaled_identity_target(blk)], judge=judge, **inputs)


def _spectral_scene(samples: np.ndarray, truth: np.ndarray, judge: Callable,
                    **inputs) -> _Scene:
    """SCM scene plus R's eigenpairs on its range: R = basis diag(eigs) basis^H.

    They come from the smaller of the two Gram matrices: for T < N from
    Y^H Y = V diag(w) V^H, as basis Y V / sqrt(w) and eigs w / T, and
    otherwise from R itself.  Directions with w at or below the rank
    cutoff (its size times eps times the largest w) are left out: in the
    null space they take the shrunk eigenvalue tau mu, which theirs
    exceeds by at most rho times that cutoff.
    """
    s = _scm_scene(samples, truth, judge, **inputs)
    y = s.source.y
    n, t = y.shape
    w, v = np.linalg.eigh(y.conj().T @ y if t < n else s.source.r)
    keep = w > w.size * np.finfo(float).eps * w[-1]
    w, v = w[keep], v[:, keep]
    s.basis, s.eigs = ((y @ v) / np.sqrt(w), w / t) if t < n else (v, w)
    return s


def _in_domain(params, **least) -> None:
    """Raise ValueError unless each named param is finite and >= its least
    value: a setting rejects what its draws cannot use before any runs."""
    for key, low in least.items():
        if not (math.isfinite(params[key]) and params[key] >= low):
            raise ValueError(f"{key} must be finite and >= {low}, "
                             f"got {params[key]!r}")


def _ar_setting(params) -> _Scene:
    _in_domain(params, n=1)
    sigma = ar_covariance(params["n"], params["r"])
    return _frozen(truth=sigma, sampler=gaussian_sampler(sigma),
                   judge=_cov_judge(sigma))


def _ar_scene(setting: _Scene, t, stream: RngStream) -> _Scene:
    y = setting.sampler(t, stream.generator(0))
    return _scm_scene(y, setting.truth, setting.judge)


def _multi_target_scene(setting: _Scene, t, stream: RngStream) -> _Scene:
    s = _ar_scene(setting, t, stream)
    s.targets += [diagonal_target(s.source), toeplitz_average_target(s.source)]
    return s


def _linear_model_setting(params) -> _Scene:
    # the model itself is random, so only the params are fixed
    _in_domain(params, n=1, m=1, sigma2=0.0)
    return _frozen(**params)


def _linear_model_min_samples(params, method) -> int:
    """Each draw fits m inputs: T >= m, and T > m for the fitted methods;
    cross-validation needs T >= 3, and ``cv_past`` past_t >= 2."""
    if method == "cv_past" and params["past_t"] < 2:
        raise ConfigError(f"cv_past needs past_t >= 2, got {params['past_t']}")
    m = params["m"]
    return {"scm": m, "oracle_identity": m + 1}.get(method, max(m + 1, 3))


def _linear_model_scene(setting: _Scene, t, stream: RngStream) -> _Scene:
    model = linear_model_scene(setting.n, setting.m, setting.sigma2,
                               stream.generator(0))
    x, y = model.generator(t, stream.generator(1))
    sigma = model.true_covariance
    fit = ols_fit(x, y)
    return _Scene(
        source=fit, truth=fit.own(sigma),
        targets=[scaled_identity_target(fit)], judge=_cov_judge(sigma),
        # outputs of an earlier block, drawn only by the method using them
        past=lambda: model.generator(setting.past_t, stream.generator(2))[1])


def _mmse_filter(sigma_h: np.ndarray, p: float) -> np.ndarray:
    """The true MMSE filter sqrt(p) Sigma_h (p Sigma_h + I)^-1 as one solve:
    the two matrices commute, so it is sqrt(p) (p Sigma_h + I)^-1 Sigma_h."""
    gram = p * sigma_h + np.eye(sigma_h.shape[0])
    return math.sqrt(p) * np.linalg.solve(gram, sigma_h)


def _mimo_setting(params) -> _Scene:
    _in_domain(params, nt=1, nr=1, pilot_len=1, pilot_db=-math.inf)
    sigma_h = kronecker_channel_cov(
        params["nt"], params["nr"],
        params["tx_mag"] * np.exp(1j * np.pi * params["tx_phase_pi"]),
        params["rx_mag"] * np.exp(1j * np.pi * params["rx_phase_pi"]))
    p = sigma_h.shape[0]
    # effective pilot SNR after least-squares combining
    p_eff = 10.0 ** (params["pilot_db"] / 10.0) * params["pilot_len"] / params["nt"]
    sigma_ls = sigma_h + np.eye(p) / p_eff
    return _frozen(
        sigma_ls=sigma_ls, p_eff=p_eff,
        mmse_filter=_mmse_filter(sigma_h, p_eff),
        ls_sampler=gaussian_sampler(sigma_ls, complex_field=True),
        h_sampler=gaussian_sampler(sigma_h, complex_field=True),
        noise_sampler=gaussian_sampler(np.eye(p), complex_field=True),
        den=float(np.trace(sigma_h).real))


def _mimo_scene(setting: _Scene, t, stream: RngStream) -> _Scene:
    # past least-squares channel estimates = channel plus white residual
    samples = setting.ls_sampler(t, stream.generator(0))

    gen = stream.generator(1)
    h_star = setting.h_sampler(1, gen)[:, 0]
    noise = setting.noise_sampler(1, gen)[:, 0]
    obs = math.sqrt(setting.p_eff) * h_star + noise  # pilot sqrt(p_eff) I

    # the selectors estimate the LS estimates' covariance: the oracle's truth
    return _spectral_scene(
        samples, setting.sigma_ls,
        lambda h_hat: (float(np.sum(np.abs(h_hat - h_star) ** 2)),
                       setting.den),
        mmse_filter=setting.mmse_filter, p_eff=setting.p_eff, obs=obs)


def _mmse_shrunk(s: _Scene, sol: ShrinkageSolution) -> np.ndarray:
    """MMSE channel estimate under the LS covariance rho R + tau mu I.

    That covariance has eigenvalues rho lambda + tau mu on R's range, which
    :func:`shrink` forms from R's, and tau mu on its null space, so it is
    never formed itself.
    """
    mu = float(s.targets[0][0, 0].real)
    return spectral_channel_estimate(s.basis, shrink(s.eigs, mu, sol),
                                     sol.tau * mu, s.p_eff, s.obs)


def _mmse_true(s: _Scene) -> np.ndarray:
    """MMSE channel estimate sqrt(p) Sigma_h (p Sigma_h + I)^-1 y, by the
    setting's filter (:func:`_mmse_filter`)."""
    return s.mmse_filter @ s.obs


def _lmmse_setting(params) -> _Scene:
    _in_domain(params, n=1, m=1, coef_var=0.0, sigma2=0.0)
    n, m = params["n"], params["m"]
    # the channel coefficients, and so the covariance, are drawn per
    # replication; only the white symbol and noise draws have a fixed law
    return _frozen(
        n=n, m=m, coef_scale=math.sqrt(params["coef_var"] / 2.0),
        noise_cov=params["sigma2"] * np.eye(n),
        noise_scale=math.sqrt(params["sigma2"]),
        x_sampler=gaussian_sampler(np.eye(m), complex_field=True),
        noise_sampler=gaussian_sampler(np.eye(n), complex_field=True))


def _lmmse_scene(setting: _Scene, t, stream: RngStream) -> _Scene:
    n, m = setting.n, setting.m
    gen0 = stream.generator(0)
    coef = setting.coef_scale * (
        gen0.standard_normal((n, m)) + 1j * gen0.standard_normal((n, m)))
    sigma = coef @ coef.conj().T + setting.noise_cov

    samples = gaussian_samples(sigma, t, stream.generator(1),
                               complex_field=True)

    gen2 = stream.generator(2)
    x_star = setting.x_sampler(1, gen2)[:, 0]
    noise = setting.noise_sampler(1, gen2)[:, 0]
    obs = coef @ x_star + setting.noise_scale * noise

    def judge(cov: np.ndarray) -> tuple[float, float]:
        try:  # LMMSE detection, through the pseudoinverse if cov is not PD
            x_hat = lmmse_detect(coef, cov, obs)
        except ValueError:
            x_hat = coef.conj().T @ _pinv_solve(cov, obs)
        return float(np.sum(np.abs(x_hat - x_star) ** 2)), float(m)

    return _scm_scene(samples, sigma, judge)


def _mvdr_setting(params) -> _Scene:
    _in_domain(params, n=1)
    scene = interference_scene(np.deg2rad(np.asarray(params["aoas_deg"],
                                                     dtype=float)),
                               params["inr_db"], params["noise_db"],
                               params["n"])
    steering = scene.metadata["steering"]
    sigma_in = scene.metadata["interference_plus_noise"]

    def weights(est: np.ndarray) -> np.ndarray:
        try:  # MVDR weights, through the pseudoinverse if est is not PD
            return mvdr_weights(est, steering)
        except ValueError:
            return mvdr_weights_pseudo(est, steering)

    return _frozen(truth=scene.true_covariance, sampler=scene.generator,
                   steering=steering, sigma_in=sigma_in, weights=weights,
                   optimal=mvdr_weights(scene.true_covariance, steering),
                   judge=lambda w: output_sinr(w, steering, 1.0, sigma_in))


def _mvdr_scene(setting: _Scene, t, stream: RngStream) -> _Scene:
    y = setting.sampler(t, stream.generator(0))
    return _scm_scene(y, setting.truth, setting.judge,
                      steering=setting.steering, weights=setting.weights,
                      optimal=setting.optimal)


EXPERIMENTS = {
    "Ar1Identity": _experiment(
        "nmse_cov", _ar_setting, _ar_scene,
        {"oracle": _oracle, "cv": _cv, "lw": _lw, "glc": _glc, "oas": _oas,
         "scm": lambda s: s.source.r},
        defaults={"n": 100, "r": 0.5},
        sample_counts=(10, 20, 40, 80, 160)),
    "LinearModelPastTarget": _experiment(
        "nmse_cov", _linear_model_setting, _linear_model_scene,
        {"scm": lambda s: scm(s.source.y),  # of the outputs, not the base
         "cv_identity": _cv,
         "cv_past": lambda s: _cv(s, knowledge_aided_target(s.past())),
         "oracle_identity": _oracle},
        defaults={"n": 50, "m": 50, "sigma2": 0.1, "past_t": 50},
        sample_counts=(60, 80, 100, 140, 200),
        min_samples=_linear_model_min_samples),
    "MultiTargetAr": _experiment(
        "nmse_cov", _ar_setting, _multi_target_scene,
        {"scm": lambda s: s.source.r, "oracle_single": _oracle,
         "cv_single": _cv, "cv_multi": _multi("cv"),
         "cv_multi_con": _multi("cv_constrained"),
         "oracle_multi_con": _multi("oracle_constrained")},
        defaults={"n": 50, "r": 0.9},
        sample_counts=(25, 50, 100, 200),
        min_samples=_loo_min_samples("cv_single", "cv_multi", "cv_multi_con")),
    "MimoChannelMmse": _experiment(
        "nmse_h", _mimo_setting, _mimo_scene,
        {"true": _mmse_true,
         "oracle": lambda s: _mmse_shrunk(s, _oracle_solution(s)),
         "cv": lambda s: _mmse_shrunk(s, _cv_solution(s)),
         "ls": lambda s: s.obs / math.sqrt(s.p_eff)},  # bypasses the covariance
        defaults={"nt": 10, "nr": 10, "pilot_len": 10, "pilot_db": 5.0,
                  "tx_mag": 0.7, "tx_phase_pi": -0.9349,
                  "rx_mag": 0.9, "rx_phase_pi": -0.9289},
        sample_counts=(10, 20, 40, 80)),
    "LmmseDetect": _experiment(
        "nmse_x", _lmmse_setting, _lmmse_scene,
        {"true": lambda s: s.truth, "oracle": _oracle, "cv": _cv,
         "scm": lambda s: s.source.r},
        defaults={"n": 40, "m": 40, "coef_var": 1.0 / 40.0, "sigma2": 0.1},
        sample_counts=(40, 80, 160)),
    "MvdrBeam": _experiment(
        "sinr_db", _mvdr_setting, _mvdr_scene,
        {"optimal": lambda s: s.optimal,
         "oracle": lambda s: s.weights(_oracle(s)),
         "cv": lambda s: s.weights(_cv(s)),
         "oas": lambda s: s.weights(_oas(s)),
         "lw": lambda s: s.weights(_lw(s)),
         "scm_pinv": lambda s: mvdr_weights_pseudo(s.source.r, s.steering)},
        defaults={"n": 30,
                  "aoas_deg": (8.0, -15.0, 23.0, -21.0, 46.0, -44.0,
                               -85.0, 74.0),
                  "inr_db": 10.0, "noise_db": -10.0},
        sample_counts=(20, 40, 60, 100)),
}

# stream offsets reserved per replication (replicators use at most 3)
_STREAMS_PER_REP = 8

_TOP_KEYS = {"experiments", "seed", "reps", "workers"}
_ENTRY_KEYS = {f.name for f in fields(ExperimentConfig)}
# a param takes the kind of its default (bools are none of them)
_KINDS = {int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a real number"),
          tuple: ((list, tuple), "a list")}


def _count(value, what: str, least: int) -> int:
    """``value``, checked to be an int (not a bool) >= ``least``."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < least):
        raise ConfigError(f"{what} must be an integer >= {least}, "
                          f"got {value!r}")
    return value


def _validated(cfg: ExperimentConfig) -> tuple:
    """The one config validator: look up the spec, fill its sample counts
    and methods, check every field; return (config, spec, merged params)."""
    name = cfg.experiment
    spec = isinstance(name, str) and EXPERIMENTS.get(name)
    if not spec:
        raise ConfigError(f"unknown experiment {name!r}; available: "
                          f"{', '.join(sorted(EXPERIMENTS))}")
    counts = cfg.sample_counts
    counts = spec.sample_counts if counts is None else counts
    if not isinstance(counts, (list, tuple)) or not counts:
        raise ConfigError(f"sample_counts must be a nonempty list, "
                          f"got {counts!r}")
    counts = tuple(_count(t, "sample count", 1) for t in counts)
    if not isinstance(cfg.methods, (list, tuple)):
        raise ConfigError(f"methods must be a list, got {cfg.methods!r}")
    methods = tuple(cfg.methods) or spec.methods
    _count(cfg.reps, "reps", 1)
    _count(cfg.seed, "seed", 0)
    if not isinstance(cfg.params, dict):
        raise ConfigError(f"params must be a mapping, got {cfg.params!r}")
    unknown = set(cfg.params) - set(spec.defaults)
    if unknown:
        raise ConfigError(f"unknown params for {name}: "
                          f"{', '.join(sorted(unknown))}; available: "
                          f"{', '.join(sorted(spec.defaults))}")
    for key, value in cfg.params.items():
        types, kind = _KINDS[type(spec.defaults[key])]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigError(f"param {key} must be {kind}, got {value!r}")
    params = {**spec.defaults, **cfg.params}
    for method in methods:
        if method not in spec.methods:
            raise ConfigError(f"unknown method {method!r} for {name}; "
                              f"available: {', '.join(spec.methods)}")
        least = spec.min_samples(params, method)
        if min(counts) < least:
            raise ConfigError(f"{name} method {method} needs T >= {least}; "
                              f"got sample count {min(counts)}")
    return (replace(cfg, sample_counts=counts, methods=methods,
                    params=dict(cfg.params)), spec, params)


def parse_config(doc) -> RunPlan:
    """A document's ``experiments`` list as validated configs in a RunPlan.

    Top-level ``seed`` and ``reps`` apply to each entry that sets none,
    ``workers`` to the run; unknown keys fail fast."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a mapping")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: "
                          f"{', '.join(sorted(unknown))}")
    entries = doc.get("experiments")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("configuration needs a nonempty 'experiments' list")
    workers = _count(doc.get("workers", 1), "workers", 1)
    shared = {key: doc[key] for key in ("reps", "seed") if key in doc}
    configs = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or "experiment" not in entry:
            raise ConfigError(f"experiment entry {pos} must be a mapping "
                              "with an 'experiment' name")
        unknown = set(entry) - _ENTRY_KEYS
        if unknown:
            raise ConfigError(f"unknown keys in experiment entry {pos}: "
                              f"{', '.join(sorted(unknown))}")
        configs.append(_validated(ExperimentConfig(**{**shared, **entry}))[0])
    return RunPlan(configs=tuple(configs), workers=workers)


def _aggregate(metric: str, per_rep: list) -> tuple[float, float]:
    """Reduce per-replication method results to (mean, stderr).

    The arithmetic of ``np.mean`` and ``np.std(ddof=1)``, the same
    pairwise sums in the same order, without their per-call overhead.
    """
    reps = len(per_rep)
    if metric.startswith("nmse"):
        refs = np.array([v[1] for v in per_rep])
        values = (np.array([v[0] for v in per_rep])
                  / float(np.add.reduce(refs) / reps))
    else:
        values = np.array(per_rep, dtype=float)
    mean = float(np.add.reduce(values) / reps)
    dev = values - mean
    stderr = 0.0 if reps < 2 else (
        math.sqrt(float(np.add.reduce(dev * dev)) / (reps - 1))
        / math.sqrt(reps))
    if not (np.isfinite(mean) and np.isfinite(stderr)):
        raise NumericError(f"non-finite {metric} aggregate")
    return mean, stderr


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list:
    """Run one experiment config; returns sorted :class:`ResultRow` lists.

    The config's setting is built once, before the replications, which
    all read it.  Replications are independent random streams, so
    ``workers > 1`` produces bit-identical results to a serial run.
    """
    cfg, spec, params = _validated(cfg)
    try:  # the setting is a pure function of the params
        setting = spec.setting(params)
    except (ValueError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"{cfg.experiment} params: {exc}") from exc
    rows = []
    for t_index, t in enumerate(cfg.sample_counts):
        def one_rep(rep: int, _t=t, _ti=t_index):
            # stride the base offset so each replication owns a block of
            # stream offsets and sub-draws never collide across reps
            base = (_ti * cfg.reps + rep) * _STREAMS_PER_REP
            stream = RngStream(cfg.seed, base)
            return spec.replicate(setting, _t, cfg.methods, stream)

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                per_rep = list(pool.map(one_rep, range(cfg.reps)))
        else:
            per_rep = [one_rep(rep) for rep in range(cfg.reps)]
        for method in cfg.methods:
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
