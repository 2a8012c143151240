"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY_MC = {
    "serial": {"workers": 1, "reps": 2, "experiments": [
        {"experiment": "MultiTargetAr", "sample_counts": [25, 50]},
        {"experiment": "LinearModelPastTarget", "sample_counts": [60]}]},
    "threaded": {"workers": 2, "reps": 2, "experiments": [
        {"experiment": "MvdrBeam", "sample_counts": [20]},
        {"experiment": "LmmseDetect", "sample_counts": [40]}]},
}
TINY_HIGHDIM = {"n": 40, "t": 10, "ar": 0.5, "blocks": 2}


def _outputs(workload, ops: int) -> list:
    outputs = []
    for i in range(ops):
        assert workload.check(i, workload.op(i)) == []
        outputs.append(workload.output(i))
    return outputs


def _traced(workload, ops: int):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        workload.setup()
        outputs = _outputs(workload, ops)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, outputs, wall


@pytest.mark.parametrize("kind", sorted(TINY_MC))
def test_traced_csv_equals_untraced(tmp_path, kind):
    plain = workloads.McWorkload(kind, 3, tmp_path / "plain", config=TINY_MC[kind])
    plain.setup()
    expected = _outputs(plain, workloads.SLOTS)
    traced = workloads.McWorkload(kind, 3, tmp_path / "traced", config=TINY_MC[kind])
    tracer, got, _ = _traced(traced, workloads.SLOTS)
    assert got == expected
    names = {span[2] for span in tracer.spans}
    assert {"cli.main", "experiments.run_experiment", "experiments.replicate",
            "estimators.scm"} <= names
    outcomes = tracing.outcome_table(tracer.spans)
    if kind == "serial":
        assert "MultiTargetAr/cv_multi" in outcomes
        assert sum(outcomes["MultiTargetAr/cv_multi"]["active_targets"].values()) \
            == 2 * 2 * workloads.SLOTS


def test_traced_selection_equals_untraced():
    plain = workloads.SelectWorkload(3, params=TINY_HIGHDIM)
    plain.setup()
    expected = _outputs(plain, 4)
    traced = workloads.SelectWorkload(3, params=TINY_HIGHDIM)
    _, got, _ = _traced(traced, 4)
    assert got == expected


def test_seed_changes_inputs(tmp_path):
    one, same, other = (workloads.SelectWorkload(seed, params=TINY_HIGHDIM)
                        for seed in (3, 3, 4))
    for workload in (one, same, other):
        workload.setup()
    assert (one.blocks[0] == same.blocks[0]).all()
    assert not (one.blocks[0] == other.blocks[0]).any()

    config = TINY_MC["serial"]
    texts = []
    for seed in (3, 4):
        workload = workloads.McWorkload("serial", seed, tmp_path / str(seed),
                                        config=config)
        workload.setup()
        texts.append(_outputs(workload, 1)[0])
    assert texts[0] != texts[1]
    assert workloads.digest(workloads.McWorkload("x", 3, tmp_path, config=config)
                            .definition()) != \
        workloads.digest(workloads.McWorkload("x", 4, tmp_path, config=config)
                         .definition())


def test_self_times_sum_within_wall(tmp_path):
    workload = workloads.McWorkload("serial", 3, tmp_path, config=TINY_MC["serial"])
    tracer, _, wall = _traced(workload, 4)
    selfs = tracing.self_times(tracer.spans)
    assert min(selfs.values()) >= 0.0
    assert sum(selfs.values()) <= wall
    metrics = tracing.per_layer_metrics(tracer.spans, wall, 0.0)
    assert metrics["trace.self_sum_frac"] <= 1.0
    assert metrics["multi_target.faces_enumerated"] > 0


def test_self_time_subtracts_union_of_children():
    spans = [(1, None, "a", 0.0, 10.0, 0, None, None, None, None),
             (2, 1, "b", 1.0, 4.0, 0, None, None, None, None),
             (3, 1, "c", 3.0, 6.0, 1, None, None, None, None),
             (4, 3, "d", 3.5, 4.5, 1, None, None, None, None)]
    assert tracing.self_times(spans) == {1: 5.0, 2: 3.0, 3: 2.0, 4: 1.0}


def test_perturbed_reference_row_is_a_failure(tmp_path):
    workload = workloads.McWorkload("mc_multi", workloads.DEFAULT_SEED, tmp_path)
    workload.setup()
    loop = worker._Loop(workload)
    loop.run_op(0)
    assert (loop.attempted, loop.failed) == (1, 0)

    header, first, *rest = workload.reference["csv"][0].splitlines()
    fields = first.split(",")
    fields[4] = repr(float(fields[4]) * (1 + 1e-8))
    workload.reference["csv"][0] = "\n".join([header, ",".join(fields), *rest]) + "\n"
    loop.run_op(0)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "differs" in loop.problems[0]


def test_perturbed_reference_coefficient_is_a_failure():
    workload = workloads.SelectWorkload(workloads.DEFAULT_SEED)
    workload.setup()
    assert workload.check(0, workload.op(0)) == []
    workload.reference["blocks"][0]["mt_taus"][1] *= 1 + 1e-8
    assert workload.check(0, workload.op(0)) != []


def test_per_layer_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == \
        [tuple(m) for m in tracing.PER_LAYER]
    metrics = tracing.per_layer_metrics([], 1.0, 0.0)
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER}


def test_runner_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_ols",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
