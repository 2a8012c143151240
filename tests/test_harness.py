import dataclasses
import inspect
import json
import sys
import time

import numpy as np
import pytest

from shrinkcov import (
    estimators,
    experiments,
    hermitian,
    multi_target,
    single_target,
)
from shrinkcov.applications import mmse_channel_estimate
from shrinkcov.cli import classify_error, main
from shrinkcov.datagen import RngStream
from shrinkcov.experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    NumericError,
    ResultRow,
    emit_csv,
    format_csv,
    nmse,
    parse_config,
    read_csv,
    run_experiment,
)
from shrinkcov.single_target import ShrinkageSolution
from shrinkcov.targets import scaled_identity_target

from oracles import (
    aggregate_numpy,
    dense_channel_estimate,
    random_psd,
    random_samples,
)


# ---------------------------------------------------------------------------
# metric helpers


def test_nmse_identities():
    truths = [np.eye(3), 2.0 * np.eye(3)]
    assert nmse(truths, truths) == pytest.approx(0.0, abs=1e-15)
    zeros = [np.zeros((3, 3)) for _ in truths]
    assert nmse(zeros, truths) == pytest.approx(1.0, abs=1e-15)
    t = [np.array([[1.0, 2.0], [0.0, 1.0]])]
    assert nmse([2.0 * t[0]], t) == pytest.approx(1.0, abs=1e-15)


def test_nmse_guards():
    with pytest.raises(ValueError):
        nmse([], [])
    with pytest.raises(ValueError):
        nmse([np.eye(2)], [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        nmse([np.eye(2)], [np.zeros((2, 2))])


@pytest.mark.parametrize("reps", (1, 2, 3, 7, 8, 9, 15, 16, 17, 100, 129,
                                  500))
def test_aggregate_equals_numpy_mean_and_std_bit_for_bit(reps):
    rng = np.random.default_rng(700 + reps)
    # errors and references spread over decades, and dB values of both signs
    errors = rng.lognormal(0.0, 3.0, reps).tolist()
    refs = rng.lognormal(2.0, 1.0, reps).tolist()
    sinr = (rng.standard_normal(reps) * 7.0 - 2.0).tolist()
    for metric, per_rep in (("nmse_cov", list(zip(errors, refs))),
                            ("sinr_db", sinr)):
        got = experiments._aggregate(metric, per_rep)
        want = aggregate_numpy(metric, per_rep)
        assert got == want, (metric, got, want)
    if reps > 1:  # a constant column: deviations of rounding size only
        assert experiments._aggregate("sinr_db", [0.1] * reps)[1] == \
            aggregate_numpy("sinr_db", [0.1] * reps)[1]


# ---------------------------------------------------------------------------
# CSV emission


FROZEN_ROWS = [
    ResultRow("MvdrBeam", "cv", 10, "sinr_db", 12.5, 0.25, 50),
    ResultRow("Ar1Identity", "scm", 20, "nmse_cov", 0.0625, 0.001, 200),
    ResultRow("Ar1Identity", "cv", 10, "nmse_cov", 1.0 / 3.0, 0.01, 200),
    ResultRow("Ar1Identity", "scm", 10, "nmse_cov", 0.125, 0.0078125, 200),
]

FROZEN_CSV = (
    "experiment,method,T,metric,mean,stderr,reps\n"
    "Ar1Identity,cv,10,nmse_cov,0.333333333333,0.01,200\n"
    "Ar1Identity,scm,10,nmse_cov,0.125,0.0078125,200\n"
    "Ar1Identity,scm,20,nmse_cov,0.0625,0.001,200\n"
    "MvdrBeam,cv,10,sinr_db,12.5,0.25,50\n"
)


def test_emit_csv_frozen_and_sorted(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(FROZEN_ROWS, path)
    assert path.read_text() == FROZEN_CSV


def test_emit_csv_empty_and_deterministic(tmp_path):
    empty = tmp_path / "empty.csv"
    emit_csv([], empty)
    assert empty.read_text() == "experiment,method,T,metric,mean,stderr,reps\n"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(FROZEN_ROWS, a)
    emit_csv(list(reversed(FROZEN_ROWS)), b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip(tmp_path):
    path = tmp_path / "rt.csv"
    emit_csv(FROZEN_ROWS, path)
    rows = read_csv(path)
    assert len(rows) == 4
    assert rows[0] == ResultRow("Ar1Identity", "cv", 10, "nmse_cov",
                                1.0 / 3.0, 0.01, 200) or (
        rows[0].mean == pytest.approx(1.0 / 3.0, rel=1e-11))
    again = tmp_path / "rt2.csv"
    emit_csv(rows, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("cut", [slice(0, 6), slice(0, 8)])
def test_read_csv_rejects_rows_of_the_wrong_width(tmp_path, cut):
    path = tmp_path / "bad.csv"
    emit_csv(FROZEN_ROWS, path)
    lines = path.read_text().splitlines()
    fields = (lines[2] + ",9").split(",")[cut]
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError,
                       match=f"CSV line 3 has {len(fields)} fields, expected 7"):
        read_csv(path)


# ---------------------------------------------------------------------------
# registry and config parsing


def test_registry_names_and_metrics():
    assert set(EXPERIMENTS) == {
        "Ar1Identity", "LinearModelPastTarget", "MultiTargetAr",
        "MimoChannelMmse", "LmmseDetect", "MvdrBeam",
    }
    metrics = {name: EXPERIMENTS[name].metric for name in EXPERIMENTS}
    assert metrics["Ar1Identity"] == "nmse_cov"
    assert metrics["LinearModelPastTarget"] == "nmse_cov"
    assert metrics["MultiTargetAr"] == "nmse_cov"
    assert metrics["MimoChannelMmse"] == "nmse_h"
    assert metrics["LmmseDetect"] == "nmse_x"
    assert metrics["MvdrBeam"] == "sinr_db"


def test_registry_published_defaults():
    d = EXPERIMENTS["Ar1Identity"].defaults
    assert d["n"] == 100 and d["r"] == 0.5
    d = EXPERIMENTS["LinearModelPastTarget"].defaults
    assert d["n"] == 50 and d["m"] == 50 and d["sigma2"] == 0.1
    d = EXPERIMENTS["MultiTargetAr"].defaults
    assert d["n"] == 50 and d["r"] == 0.9
    d = EXPERIMENTS["MimoChannelMmse"].defaults
    assert d["nt"] == 10 and d["nr"] == 10 and d["pilot_len"] == 10
    assert d["pilot_db"] == 5.0
    d = EXPERIMENTS["LmmseDetect"].defaults
    assert d["coef_var"] == pytest.approx(1.0 / 40.0) and d["sigma2"] == 0.1
    d = EXPERIMENTS["MvdrBeam"].defaults
    assert d["n"] == 30 and len(d["aoas_deg"]) == 8 and 8.0 in d["aoas_deg"]
    assert d["inr_db"] == 10.0 and d["noise_db"] == -10.0


def test_parse_config_minimal():
    doc = {"experiments": [{"experiment": "Ar1Identity",
                            "sample_counts": [6, 9],
                            "methods": ["scm", "cv"],
                            "params": {"n": 5}}],
           "seed": 9, "reps": 2}
    plan = parse_config(doc)
    assert plan.workers == 1
    (cfg,) = plan.configs
    assert cfg.experiment == "Ar1Identity"
    assert cfg.sample_counts == (6, 9)
    assert cfg.methods == ("scm", "cv")
    assert cfg.reps == 2 and cfg.seed == 9
    assert cfg.params["n"] == 5


@pytest.mark.parametrize("doc", [
    {"experiments": [{"experiment": "Nope"}]},
    {"experiments": [{"experiment": "Ar1Identity", "reps": 0}]},
    {"experiments": [{"experiment": "Ar1Identity", "sample_counts": []}]},
    {"experiments": [{"experiment": "Ar1Identity",
                      "methods": ["not_a_method"]}]},
    {"experiments": [{"experiment": "Ar1Identity", "sample_counts": [2],
                      "methods": ["cv"]}]},
    {"experiments": [{"experiment": "Ar1Identity", "typo_key": 1}]},
    {"experiments": "not a list"},
    {"workers": 0, "experiments": [{"experiment": "Ar1Identity"}]},
    # every least-squares draw fits m inputs, whatever the method
    {"experiments": [{"experiment": "LinearModelPastTarget",
                      "sample_counts": [30], "methods": ["scm"]}]},
    {"experiments": [{"experiment": "LinearModelPastTarget",
                      "sample_counts": [3], "methods": ["scm"],
                      "params": {"n": 5, "m": 4}}]},
    {"experiments": [{"experiment": "LinearModelPastTarget",
                      "sample_counts": [4], "methods": ["oracle_identity"],
                      "params": {"n": 5, "m": 4}}]},
    {"experiments": [{"experiment": "LinearModelPastTarget",
                      "sample_counts": [2], "methods": ["cv_identity"],
                      "params": {"n": 5, "m": 1}}]},
    {"experiments": [{"experiment": "LinearModelPastTarget",
                      "methods": ["cv_past"], "params": {"past_t": 1}}]},
    # every field's type is checked, not only its range
    {"experiments": [{"experiment": "Ar1Identity", "params": "ab"}]},
    {"experiments": [{"experiment": "Ar1Identity", "sample_counts": 5}]},
    {"experiments": [{"experiment": "Ar1Identity", "reps": "3"}]},
    {"experiments": [{"experiment": "Ar1Identity", "seed": 1.5}]},
    {"experiments": [{"experiment": "Ar1Identity", "seed": -1}]},
    {"seed": True, "experiments": [{"experiment": "Ar1Identity"}]},
    {"experiments": [{"experiment": ["Ar1Identity"]}]},
    {"experiments": [{"experiment": "Ar1Identity", "methods": "cv"}]},
    {"experiments": [{"sample_counts": [10]}]},
    # each param takes the kind of its default
    {"experiments": [{"experiment": "LinearModelPastTarget",
                      "params": {"past_t": "x"}}]},
    {"experiments": [{"experiment": "Ar1Identity", "params": {"n": "5"}}]},
    {"experiments": [{"experiment": "MvdrBeam", "params": {"aoas_deg": "x"}}]},
])
def test_parse_config_rejects(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_validator_fills_the_experiment_defaults():
    spec = EXPERIMENTS["Ar1Identity"]
    cfg, got_spec, params = experiments._validated(
        ExperimentConfig("Ar1Identity", params={"n": 7}))
    assert got_spec is spec and params == {**spec.defaults, "n": 7}
    assert cfg.sample_counts == spec.sample_counts
    assert cfg.methods == spec.methods and cfg.params == {"n": 7}
    (parsed,) = parse_config({"experiments": [{"experiment": "Ar1Identity"}]}
                             ).configs
    # parse_config restates no default: reps and seed are the dataclass's
    assert parsed == dataclasses.replace(cfg, params={})


def test_unknown_method_error_lists_available():
    with pytest.raises(ConfigError, match="scm"):
        parse_config({"experiments": [{"experiment": "Ar1Identity",
                                       "methods": ["bogus"]}]})


# ---------------------------------------------------------------------------
# running experiments


TINY = {
    "Ar1Identity": dict(params={"n": 6}, sample_counts=(8,)),
    "LinearModelPastTarget": dict(params={"n": 5, "m": 4, "past_t": 8},
                                  sample_counts=(7,)),
    "MultiTargetAr": dict(params={"n": 6}, sample_counts=(8,)),
    "MimoChannelMmse": dict(params={"nt": 2, "nr": 2, "pilot_len": 3},
                            sample_counts=(6,)),
    "LmmseDetect": dict(params={"n": 6, "m": 4, "coef_var": 0.25},
                        sample_counts=(8,)),
    "MvdrBeam": dict(params={"n": 8}, sample_counts=(10,)),
}


def tiny_config(name, **overrides):
    kw = dict(reps=2, seed=4, **TINY[name])
    kw.update(overrides)
    return ExperimentConfig(name, **kw)


@pytest.mark.parametrize("name", sorted(TINY))
def test_run_experiment_smoke(name):
    cfg = tiny_config(name)
    rows = run_experiment(cfg)
    spec = EXPERIMENTS[name]
    assert {row.method for row in rows} == set(spec.methods)
    for row in rows:
        assert row.experiment == name
        assert row.metric == spec.metric
        assert np.isfinite(row.mean)
        assert row.stderr >= 0.0 and np.isfinite(row.stderr)
        assert row.reps == 2
        assert row.t in cfg.sample_counts
    keys = [(r.experiment, r.method, r.t) for r in rows]
    assert keys == sorted(keys)


def test_run_experiment_deterministic_and_parallel_equal():
    cfg = tiny_config("Ar1Identity", reps=4)
    serial = run_experiment(cfg, workers=1)
    again = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=3)
    assert serial == again
    assert serial == parallel


def test_run_experiment_seed_changes_results():
    a = run_experiment(tiny_config("Ar1Identity", seed=1))
    b = run_experiment(tiny_config("Ar1Identity", seed=2))
    assert any(x.mean != y.mean for x, y in zip(a, b))


def test_run_experiment_method_subset():
    cfg = tiny_config("Ar1Identity", methods=("scm", "cv"))
    rows = run_experiment(cfg)
    assert {row.method for row in rows} == {"scm", "cv"}


# (method, T, mean, stderr) of every TINY config at reps 2, seed 4
FROZEN_TINY = {
    "Ar1Identity": [
        ("cv", 8, 0.21898249030624528, 0.0421347283449392),
        ("glc", 8, 0.21084564092603741, 0.024991162568094565),
        ("lw", 8, 0.21084564092603741, 0.02499116256809454),
        ("oas", 8, 0.20939716927443808, 0.032545018192676946),
        ("oracle", 8, 0.1964970775688304, 0.024693043273388195),
        ("scm", 8, 0.5494773289647282, 0.10188174337365738),
    ],
    "LinearModelPastTarget": [
        ("cv_identity", 7, 0.16467954961255793, 0.04219821052988278),
        ("cv_past", 7, 0.13284707814393293, 0.014542326016887075),
        ("oracle_identity", 7, 0.12904334344558166, 0.04070721167432198),
        ("scm", 7, 0.33895207288465956, 0.08003050106850874),
    ],
    "MultiTargetAr": [
        ("cv_multi", 8, 0.07706081842832073, 0.013740178828346631),
        ("cv_multi_con", 8, 0.08340864916337754, 0.016421758532591972),
        ("cv_single", 8, 0.2164245964032919, 0.011495304832216918),
        ("oracle_multi_con", 8, 0.07210927566998455, 0.014114161644661494),
        ("oracle_single", 8, 0.08748641936126333, 0.018477300438654736),
        ("scm", 8, 0.1212682245410241, 0.02354920239559579),
    ],
    "MimoChannelMmse": [
        ("cv", 6, 0.13062741430807717, 0.00883063987171799),
        ("ls", 6, 0.2367115398615791, 0.03136296956667226),
        ("oracle", 6, 0.11961388758168393, 0.030546999709285868),
        ("true", 6, 0.14446311253227123, 0.03255298751879893),
    ],
    "LmmseDetect": [
        ("cv", 8, 2.9714800608305447, 2.500877050129461),
        ("oracle", 8, 1.3189535637917666, 0.4695781148175652),
        ("scm", 8, 58.292184294687544, 46.2146095175315),
        ("true", 8, 0.08556146774168016, 0.03206250275086102),
    ],
    "MvdrBeam": [
        ("cv", 10, -5.065021805662245, 0.7400483438122681),
        ("lw", 10, -4.794989834380115, 0.8497044856490169),
        ("oas", 10, -5.11835882939873, 0.7042060176090597),
        ("optimal", 10, 2.317973991759544, 0.0),
        ("oracle", 10, -5.427124874818672, 0.1112342921873779),
        ("scm_pinv", 10, -5.306738009742441, 0.3376029604123727),
    ],
}


def _rel_close(a, b, tol=1e-10):
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


@pytest.mark.parametrize("name", sorted(TINY))
def test_run_experiment_frozen_output(name):
    got = [(r.method, r.t, r.mean, r.stderr)
           for r in run_experiment(tiny_config(name))]
    assert [g[:2] for g in got] == [w[:2] for w in FROZEN_TINY[name]]
    for g, w in zip(got, FROZEN_TINY[name]):
        assert _rel_close(g[2], w[2]) and _rel_close(g[3], w[3]), (g, w)


@pytest.mark.parametrize("name", sorted(TINY))
def test_method_subset_leaves_other_methods_unchanged(name):
    full = {row.method: row for row in run_experiment(tiny_config(name))}
    for method in EXPERIMENTS[name].methods:
        (row,) = run_experiment(tiny_config(name, methods=(method,)))
        assert row == full[method]


# the package functions the harness calls through its module globals; a
# wrapper installed on those globals (as the benchmark's tracer does)
# must keep seeing every one of them
HARNESS_CALLS = {
    "applications.lmmse_detect",
    "applications.mvdr_weights",
    "applications.mvdr_weights_pseudo",
    "applications.output_sinr",
    "applications.spectral_channel_estimate",
    "baselines.glc_coefficients",
    "baselines.lw_coefficients",
    "baselines.oas_coefficient",
    "datagen.ar_covariance",
    "datagen.gaussian_sampler",
    "datagen.gaussian_samples",
    "datagen.interference_scene",
    "datagen.kronecker_channel_cov",
    "datagen.linear_model_scene",
    "estimators.ols_fit",
    "estimators.sample_block",
    "estimators.scm",
    "hermitian.frobenius_norm_sq",
    "multi_target.mt_select",
    "single_target.select_single_target",
    "single_target.shrink",
    "targets.diagonal_target",
    "targets.knowledge_aided_target",
    "targets.scaled_identity_target",
    "targets.toeplitz_average_target",
}


def test_harness_calls_package_functions_through_globals(monkeypatch):
    called = set()
    for attr, fn in list(vars(experiments).items()):
        module = getattr(fn, "__module__", "")
        if (inspect.isfunction(fn) and not attr.startswith("_")
                and module.startswith("shrinkcov.")
                and module != experiments.__name__):
            key = f"{module.removeprefix('shrinkcov.')}.{attr}"

            def counted(*args, _fn=fn, _name=key, **kwargs):
                called.add(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(experiments, attr, counted)
    for name in TINY:
        run_experiment(tiny_config(name))
    assert called == HARNESS_CALLS


# experiments whose scene shrinks the sample covariance of its samples
SCM_EXPERIMENTS = ("Ar1Identity", "LmmseDetect", "MimoChannelMmse",
                   "MultiTargetAr", "MvdrBeam")
# the layers that take a sample block; the consumers in ``applications``
# (and ``datagen``) are handed plain matrices and check each one
BLOCK_LAYERS = ("baselines", "estimators", "multi_target", "single_target",
                "targets")


@pytest.mark.parametrize("name", sorted(TINY))
def test_one_scm_per_replication_and_block_matrices_not_rechecked(
        name, monkeypatch):
    real = {"scm": estimators.scm, "sample_block": estimators.sample_block,
            "require_hermitian": hermitian.require_hermitian,
            "validate_samples": hermitian.validate_samples}
    calls = {key: [] for key in real}   # the arguments or results, kept alive

    def wrap(key, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[key].append(out if key == "sample_block" else args[0])
            return out
        return counted
    for module in list(sys.modules.values()):
        layer = getattr(module, "__name__", "").removeprefix("shrinkcov.")
        if module is sys.modules.get(f"shrinkcov.{layer}"):
            for attr, fn in real.items():
                if getattr(module, attr, None) is fn and (
                        attr != "require_hermitian" or layer in BLOCK_LAYERS):
                    monkeypatch.setattr(module, attr, wrap(attr, fn))
    cfg = tiny_config(name)
    run_experiment(cfg)
    replications = cfg.reps * len(cfg.sample_counts)
    if name in SCM_EXPERIMENTS:
        # the block's R; scm validates the samples the block validated
        assert len(calls["scm"]) == replications
        assert len(calls["validate_samples"]) == 2 * replications
    else:
        # the scm method's R of the outputs and the past block's R; the
        # outputs, the inputs and the past block validated once, plus
        # scm's own validation of the two blocks it reduces
        assert len(calls["scm"]) == 2 * replications
        assert len(calls["validate_samples"]) == 5 * replications
    owned = {id(m) for block in calls["sample_block"]
             for m in block._owned.values()}
    assert owned and not any(id(a) in owned
                             for a in calls["require_hermitian"])


def test_one_trace_product_per_pair_in_a_multi_target_replication(
        monkeypatch):
    # cv_single, oracle_single and the three multi-target selectors share
    # the block: 10 products of R and its three targets, each taken once,
    # plus the 4 products of the truth, which the scene registers on the
    # block, with R and the targets (oracle_single and oracle_multi_con
    # share R Sigma and T_0 Sigma)
    real = hermitian.real_trace_product
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("shrinkcov")
                and getattr(module, "real_trace_product", None) is real):
            monkeypatch.setattr(module, "real_trace_product", counted)
    cfg = tiny_config("MultiTargetAr")
    assert cfg.methods == ()  # every method of the default table
    run_experiment(cfg)
    assert len(calls) == 14 * cfg.reps * len(cfg.sample_counts)


def test_an_ar1_replication_computes_tr_r2_once(monkeypatch):
    # cv and the lw, glc and oas baselines read ||R||_F^2 = tr R^2 from the
    # block's memo
    real = {"real_trace_product": hermitian.real_trace_product,
            "frobenius_norm_sq": hermitian.frobenius_norm_sq,
            "sample_block": estimators.sample_block}
    calls = {key: [] for key in real}

    def wrap(key, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[key].append(out if key == "sample_block" else args)
            return out
        return counted
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("shrinkcov"):
            for attr, fn in real.items():
                if getattr(module, attr, None) is fn:
                    monkeypatch.setattr(module, attr, wrap(attr, fn))
    cfg = tiny_config("Ar1Identity")
    run_experiment(cfg)
    blocks = calls["sample_block"]
    assert len({id(b) for b in blocks}) == cfg.reps * len(cfg.sample_counts)
    for block in blocks:
        r = block.r
        squares = [a for a in calls["real_trace_product"]
                   if a[0] is r and a[1] is r]
        squares += [a for a in calls["frobenius_norm_sq"] if a[0] is r]
        assert len(squares) == 1


def test_multi_target_run_solves_every_face_without_lstsq(monkeypatch):
    # the moment matrices of real draws are positive definite on every face
    # the solvers visit, so none falls back to the minimum-norm lstsq solve
    faces, lstsq = [], []
    real_face, real_lstsq = multi_target._solve_face, np.linalg.lstsq
    monkeypatch.setattr(multi_target, "_solve_face",
                        lambda *a: faces.append(a[2]) or real_face(*a))
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: lstsq.append(a) or real_lstsq(*a, **k))
    run_experiment(tiny_config("MultiTargetAr", reps=6))
    assert len(faces) >= 6 * 3  # three multi-target solves per draw
    assert not lstsq


@pytest.mark.parametrize("name", ["Ar1Identity", "LinearModelPastTarget",
                                  "MimoChannelMmse", "LmmseDetect", "MvdrBeam"])
def test_single_target_solves_are_active_set_calls(monkeypatch, name):
    # one solver for every K: each 2 x 2 solve of a default single-target
    # replication is one call of the multi-target active set, not a second
    # engine beside it
    walks, solves = [], []
    real_walk = multi_target._active_set
    real_solve = single_target.solve_quadratic_2d
    monkeypatch.setattr(multi_target, "_active_set",
                        lambda *a: walks.append(a) or real_walk(*a))

    def counted(*a, **k):
        solves.append(a)
        return real_solve(*a, **k)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("shrinkcov")
                and getattr(module, "solve_quadratic_2d", None) is real_solve):
            monkeypatch.setattr(module, "solve_quadratic_2d", counted)
    spec = EXPERIMENTS[name]
    spec.replicate(spec.setting(spec.defaults), spec.sample_counts[0],
                   spec.methods, RngStream(8, 0))
    assert solves and len(walks) == len(solves)


def test_each_convex_selection_is_one_simplex_call(monkeypatch):
    # the convex design is minimized on the simplex over (rho, tau) itself:
    # one active-set call per selection, with no cone pass before it
    walks = []
    real_walk = multi_target._active_set
    monkeypatch.setattr(multi_target, "_active_set",
                        lambda *a: walks.append(a[2]) or real_walk(*a))
    counts = EXPERIMENTS["MultiTargetAr"].sample_counts
    cfg = ExperimentConfig("MultiTargetAr", reps=25, seed=1,
                           methods=("cv_multi_con", "oracle_multi_con"))
    run_experiment(cfg)
    assert walks == [True] * (2 * cfg.reps * len(counts))
    walks.clear()
    rng = np.random.default_rng(14)
    truth = random_psd(5, rng, complex_field=True)
    y = random_samples(5, 9, rng)
    t0 = scaled_identity_target(estimators.sample_block(y))
    for method in ("cv_constrained", "oracle_constrained"):
        single_target.select_single_target(method, t0, samples=y, truth=truth)
    assert walks == [True, True]


# ---------------------------------------------------------------------------
# MIMO channel estimates in the eigenbasis of the samples


def _rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("complex_field", (False, True))
@pytest.mark.parametrize("n, t", [  # T < N, T = N, T > N and T << N
    pytest.param(9, 4, id="4"), pytest.param(9, 9, id="9"),
    pytest.param(9, 20, id="20"), pytest.param(40, 3, id="n40-3")])
def test_mimo_spectral_path_matches_dense(complex_field, n, t):
    rng = np.random.default_rng(300 + t)
    power = 2.0
    y = random_samples(n, t, rng, complex_field)
    obs = random_samples(n, 1, rng, complex_field)[:, 0]
    # the same T columns, repeating the first k: R has rank k < min(N, T)
    repeated = y[:, np.arange(t) % max(1, min(n, t) // 2)]
    for samples in (y, repeated):
        s = experiments._spectral_scene(samples, np.eye(n), None,
                                        p_eff=power, obs=obs)
        assert s.basis.shape[1] == np.linalg.matrix_rank(samples)
        mu = float(s.targets[0][0, 0].real)
        at_floor = 1.0 / (power * mu)  # tau mu = 1/p: the null-space switch
        coefficients = [(0.5, f * at_floor) for f in (0.9, 1.0, 1.1)]
        coefficients += [(0.0, 1.5 * at_floor), (1.0, 0.0), (0.0, 0.0)]
        for rho, tau in coefficients:
            got = experiments._mmse_shrunk(s, ShrinkageSolution(rho, tau))
            want = dense_channel_estimate(
                rho * s.source.r + tau * s.targets[0], power, obs)
            if rho == tau == 0.0:  # zero channel covariance, zero estimate
                assert np.array_equal(got, np.zeros(n)) and not np.any(want)
            else:
                assert _rel_err(got, want) <= 1e-10, (rho, tau)


def test_mimo_replication_makes_no_svd(monkeypatch):
    # the eigenpairs come from eigh of the T x T Gram (T < N = 100)
    svd = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: svd.append(a) or real(*a, **k))
    spec = EXPERIMENTS["MimoChannelMmse"]
    setting = spec.setting(spec.defaults)
    for t in spec.sample_counts:
        out = spec.replicate(setting, t, spec.methods, RngStream(6, t))
        assert set(out) == set(spec.methods)
    assert not svd


def test_least_squares_replication_checks_and_reduces_once(monkeypatch):
    # the fit owns R, its scaled identity and the truth, so only the
    # knowledge-aided target, which the past block built, is checked; both
    # cross-validated methods read the fit's one set of leave-one-out
    # blocks; the Gram guard takes eigenvalues (np.linalg.cond would call
    # the svd of numpy's private module, not np.linalg.svd)
    svd, blocks, checked = [], [], []
    real_svd, real_blocks = np.linalg._linalg.svd, estimators.ols_loo_blocks
    real_check = hermitian.require_hermitian
    monkeypatch.setattr(np.linalg._linalg, "svd",
                        lambda *a, **k: svd.append(a) or real_svd(*a, **k))
    monkeypatch.setattr(estimators, "ols_loo_blocks",
                        lambda fit: blocks.append(fit) or real_blocks(fit))
    for layer in BLOCK_LAYERS:
        module = sys.modules[f"shrinkcov.{layer}"]
        if getattr(module, "require_hermitian", None) is real_check:
            monkeypatch.setattr(
                module, "require_hermitian",
                lambda a, *r, **k: checked.append(a) or real_check(a, *r, **k))
    spec = EXPERIMENTS["LinearModelPastTarget"]
    out = spec.replicate(spec.setting(spec.defaults), spec.sample_counts[0],
                         spec.methods, RngStream(7, 0))
    assert set(out) == set(spec.methods)
    assert not svd
    assert len(blocks) == 1 and len(checked) == 1


@pytest.mark.parametrize("t", (10, 40, 80))
def test_mimo_scene_estimates_match_dense(t):
    spec = EXPERIMENTS["MimoChannelMmse"]
    setting = spec.setting({**spec.defaults, "nt": 3, "nr": 4})
    s = experiments._mimo_scene(setting, t, RngStream(5, t))
    for select in (experiments._cv_solution, experiments._oracle_solution):
        sol = select(s)
        want = dense_channel_estimate(sol.rho * s.source.r
                                      + sol.tau * s.targets[0], s.p_eff, s.obs)
        assert _rel_err(experiments._mmse_shrunk(s, sol), want) <= 1e-10


def test_mimo_shrunk_estimate_rejects_negative_coefficients():
    rng = np.random.default_rng(310)
    y = random_samples(5, 3, rng)
    s = experiments._spectral_scene(y, np.eye(5), None, p_eff=2.0,
                                    obs=random_samples(5, 1, rng)[:, 0])
    for rho, tau in ((-0.1, 0.5), (0.5, -0.1)):
        with pytest.raises(ValueError, match="nonnegative"):
            experiments._mmse_shrunk(s, ShrinkageSolution(rho, tau))


def test_mimo_true_estimate_matches_dense():
    rng = np.random.default_rng(311)
    n = 6
    for power in (0.5, 3.16):
        sigma_h = random_psd(n, rng, rank=4)
        obs = random_samples(n, 1, rng)[:, 0]
        got = experiments._mmse_true(experiments._Scene(
            mmse_filter=experiments._mmse_filter(sigma_h, power), obs=obs))
        want = mmse_channel_estimate(sigma_h, np.sqrt(power) * np.eye(n), obs)
        assert _rel_err(got, want) <= 1e-10


# ---------------------------------------------------------------------------
# per-config settings


# two configs of one experiment that differ only in a param of its setting
SETTING_PAIRS = {
    "Ar1Identity": ({"r": 0.5}, {"r": 0.7}),
    "MvdrBeam": ({"aoas_deg": [20.0, -40.0]}, {"aoas_deg": [-30.0, 55.0]}),
    "MimoChannelMmse": ({"pilot_db": 5.0}, {"pilot_db": 0.0}),
}


@pytest.mark.parametrize("name", sorted(SETTING_PAIRS))
def test_configs_differing_in_params_run_together_as_alone(name, tmp_path):
    a, b = (tiny_config(name, reps=3, params={**TINY[name]["params"], **p})
            for p in SETTING_PAIRS[name])
    alone_b = run_experiment(b)
    alone_a = run_experiment(a)
    assert alone_a != alone_b  # the param reaches the draws
    assert [run_experiment(c) for c in (b, a, b)] == [alone_b, alone_a,
                                                       alone_b]
    # one plan with both entries, on worker threads
    doc = {"workers": 2, "seed": a.seed, "reps": a.reps,
           "experiments": [{"experiment": name, "params": c.params,
                            "sample_counts": list(c.sample_counts)}
                           for c in (a, b)]}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(out)]) == 0
    assert out.read_text() == format_csv(alone_a + alone_b)


@pytest.mark.parametrize("name", sorted(TINY))
def test_setting_arrays_are_read_only(name):
    spec = EXPERIMENTS[name]
    setting = spec.setting({**spec.defaults, **TINY[name]["params"]})
    arrays = {k: v for k, v in vars(setting).items()
              if isinstance(v, np.ndarray)}
    # the least-squares scene draws its whole model per replication
    assert bool(arrays) == (name != "LinearModelPastTarget")
    for key, value in arrays.items():
        assert not value.flags.writeable, key
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 0.0


@pytest.mark.parametrize("workers", (1, 3))
@pytest.mark.parametrize("name", sorted(TINY))
def test_setting_built_once_per_run(name, workers, monkeypatch):
    spec = EXPERIMENTS[name]
    built = []

    def counted(params):
        built.append(params)
        return spec.setting(params)
    monkeypatch.setitem(EXPERIMENTS, name,
                        dataclasses.replace(spec, setting=counted))
    t = TINY[name]["sample_counts"][0]
    cfg = tiny_config(name, reps=3, sample_counts=(t, t + 1))
    rows = run_experiment(cfg, workers=workers)
    assert len(built) == 1
    assert built[0] == {**spec.defaults, **cfg.params}
    monkeypatch.setitem(EXPERIMENTS, name, spec)
    assert rows == run_experiment(cfg, workers=workers)


@pytest.mark.parametrize("name", ("MimoChannelMmse", "MvdrBeam"))
def test_shared_setting_under_thread_switch_stress(name):
    # more workers than cores, switching threads every microsecond: a
    # replication that wrote into the shared setting would change another's
    cfg = tiny_config(name, reps=16)
    serial = run_experiment(cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        parallel = run_experiment(cfg, workers=8)
        assert time.perf_counter() - start < 60.0
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


@pytest.mark.parametrize("name", sorted(TINY))
def test_declared_min_samples_match_the_draws(name):
    spec = EXPERIMENTS[name]
    params = TINY[name]["params"]
    for method in spec.methods:
        least = spec.min_samples({**spec.defaults, **params}, method)
        (row,) = run_experiment(tiny_config(name, methods=(method,),
                                            sample_counts=(least,)))
        assert row.t == least and np.isfinite(row.mean), method
        entry = {"experiment": name, "methods": [method], "params": params,
                 "sample_counts": [least - 1]}
        with pytest.raises(ConfigError):
            parse_config({"experiments": [entry]})


def test_past_target_runs_on_two_past_samples():
    # knowledge_aided_target's closed form holds at T_past = 2
    params = {**TINY["LinearModelPastTarget"]["params"], "past_t": 2}
    parse_config({"experiments": [{"experiment": "LinearModelPastTarget",
                                   "methods": ["cv_past"], "params": params,
                                   "sample_counts": [7]}]})
    (row,) = run_experiment(tiny_config("LinearModelPastTarget", params=params,
                                        methods=("cv_past",)))
    assert np.isfinite(row.mean)


def test_run_experiment_rejects_bad_config():
    with pytest.raises(ConfigError):
        run_experiment(tiny_config("Ar1Identity", methods=("bogus",)))
    with pytest.raises(ConfigError):
        run_experiment(tiny_config("Ar1Identity", sample_counts=(2,)))
    with pytest.raises(ConfigError, match="Ar1Identity params"):
        run_experiment(tiny_config("Ar1Identity", params={"n": 6, "r": 1.5}))


# ---------------------------------------------------------------------------
# CLI


def cli_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


GOOD_DOC = {
    "seed": 9,
    "reps": 2,
    "experiments": [{"experiment": "Ar1Identity",
                     "sample_counts": [6, 9],
                     "methods": ["scm", "cv"],
                     "params": {"n": 5}}],
}


def test_cli_run_end_to_end(tmp_path):
    cfg = cli_config(tmp_path, GOOD_DOC)
    out = tmp_path / "results.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "experiment,method,T,metric,mean,stderr,reps"
    assert len(lines) == 1 + 4  # 2 methods x 2 sample counts
    rows = read_csv(out)
    keys = [(r.experiment, r.method, r.t) for r in rows]
    assert keys == sorted(keys)
    # byte-identical on a second run with the same config and seed
    out2 = tmp_path / "results2.csv"
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert out2.read_bytes() == out.read_bytes()


def test_cli_overrides(tmp_path):
    cfg = cli_config(tmp_path, GOOD_DOC)
    out = tmp_path / "r.csv"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--reps", "3", "--seed", "11"]) == 0
    rows = read_csv(out)
    assert all(row.reps == 3 for row in rows)


def test_cli_config_error_exit_code(tmp_path):
    cfg = cli_config(tmp_path, {"experiments": [{"experiment": "Nope"}]})
    assert main(["run", "--config", cfg, "--out",
                 str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("entry", [
    {"sample_counts": [30], "methods": ["scm"]},  # T < m = 50
    {"methods": ["cv_past"], "params": {"past_t": 1}},
])
def test_cli_least_squares_config_error_exit_code(tmp_path, entry):
    # both used to pass validation and fail mid-run as numeric errors
    doc = {"reps": 2, "experiments": [
        {"experiment": "LinearModelPastTarget", **entry}]}
    assert main(["run", "--config", cli_config(tmp_path, doc), "--out",
                 str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("entry", [
    {"experiment": "Ar1Identity", "params": "ab"},
    {"experiment": "Ar1Identity", "sample_counts": 5},
    {"experiment": "Ar1Identity", "reps": "3"},
    {"experiment": "Ar1Identity", "seed": 1.5},
    {"experiment": "Ar1Identity", "seed": -1},
    {"experiment": ["Ar1Identity"]},
    {"experiment": "Ar1Identity", "methods": "cv"},
    {"experiment": "LinearModelPastTarget", "params": {"past_t": "x"}},
    {"experiment": "Ar1Identity", "params": {"n": "5"}},
    {"experiment": "MvdrBeam", "params": {"aoas_deg": "x"}},
    # outside the setting's domain: raised as it is built, before any draw
    {"experiment": "Ar1Identity", "params": {"r": 1.5}},
    {"experiment": "MimoChannelMmse", "params": {"nt": 0}},
    {"experiment": "LmmseDetect", "params": {"sigma2": -1}},
    {"experiment": "MvdrBeam", "params": {"aoas_deg": ["x"]}},
    # inside their kind but outside the draws' domain: rejected by the
    # setting, where they used to fail at the first replication
    {"experiment": "Ar1Identity", "params": {"n": 0}},
    {"experiment": "LinearModelPastTarget", "params": {"sigma2": -1}},
    {"experiment": "LinearModelPastTarget", "params": {"n": 0}},
    {"experiment": "MultiTargetAr", "params": {"n": -1}},
    {"experiment": "MimoChannelMmse", "params": {"nr": 0}},
    {"experiment": "LmmseDetect", "params": {"m": 0}},
    {"experiment": "MvdrBeam", "params": {"n": 0}},
    # numbers the setting's arithmetic overflows on
    {"experiment": "MimoChannelMmse", "params": {"pilot_db": 4000.0}},
    {"experiment": "MimoChannelMmse", "params": {"pilot_len": 10**400}},
    {"experiment": "MvdrBeam", "params": {"inr_db": 4000.0}},
    {"experiment": "MvdrBeam", "params": {"noise_db": 4000.0}},
])
def test_cli_malformed_config_exit_code(tmp_path, entry):
    # each used to fail as a numeric error (exit 2) or with a wrong message
    doc = {"reps": 2, "experiments": [entry]}
    assert main(["run", "--config", cli_config(tmp_path, doc), "--out",
                 str(tmp_path / "x.csv")]) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("override", [["--seed", "-1"], ["--reps", "0"]])
def test_cli_overrides_are_validated(tmp_path, override):
    assert main(["run", "--config", cli_config(tmp_path, GOOD_DOC), "--out",
                 str(tmp_path / "x.csv"), *override]) == 1


def test_cli_missing_config_is_io_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_cli_unwritable_output_is_io_error(tmp_path):
    cfg = cli_config(tmp_path, GOOD_DOC)
    missing_dir = tmp_path / "no_such_dir" / "out.csv"
    assert main(["run", "--config", cfg, "--out", str(missing_dir)]) == 3


def test_cli_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "x.csv")]) == 1


def test_cli_list_methods(capsys):
    assert main(["list-methods"]) == 0
    text = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in text
    assert "cv" in text and "scm" in text


def test_classify_error():
    assert classify_error(ConfigError("x")) == 1
    assert classify_error(NumericError("x")) == 2
    assert classify_error(np.linalg.LinAlgError("x")) == 2
    assert classify_error(FloatingPointError("x")) == 2
    assert classify_error(OSError("x")) == 3
