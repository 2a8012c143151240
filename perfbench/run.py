"""Benchmark of shrinkcov: Monte-Carlo throughput and high-dimensional selection.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of mc_ols, mc_multi, mc_array, select_highdim, or ``all``
(every workload in turn).  It measures the ``src/shrinkcov`` package of
the checkout this file sits in.  Each workload runs in its own worker process
with BLAS pinned to one thread.  With ``--trace 0`` the worker measures
the end-to-end metrics, and set-up is repeated in separate processes so
``setup_s`` is a median.  Times are scaled to one host speed by a probe
timed in the same process (``worker.Probe``).  With ``--trace 1`` a
separate traced run gives the per-layer metrics.  The report is printed as
a table and the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import PER_LAYER
from worker import BLAS_VARS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5          # set-ups per run: SETUP_SAMPLES - 1 alone, one measuring
RUN_BUDGET_S = 170.0       # every run ends well inside the 180 s limit
# the host speed times are scaled to: the one at which a pass of worker.Probe
# takes 35 ms, a round figure near its time on a quiet 2-core x86_64 VM
PROBE_NOMINAL_S = 0.035


class WorkerError(RuntimeError):
    """A worker process failed or ran out of time."""


def _worker(workload: str, seed: int, seconds: float, mode: str,
            deadline: float) -> tuple:
    """Run one worker; return (seconds until READY, parsed last line)."""
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(1.0, deadline - start), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise WorkerError(f"{workload} {mode} worker exited with code "
                          f"{proc.returncode}")
    return ready, (json.loads(last) if last else None)


def _percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """One run of one workload; a dict with the final line's keys and details."""
    if trace:
        _, res = _worker(workload, seed, seconds, "trace", deadline)
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in res["metrics"].items()}
        counts = {name: res["ops"] for name in metrics}
    else:
        setups = [_worker(workload, seed, seconds, "setup", deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        ready, res = _worker(workload, seed, seconds, "measure", deadline)
        setups.append((ready, res))
        # On a VM whose host is shared, the host can slow the VM by 30-60%
        # for seconds to minutes, which moved even the fastest op 20% between
        # runs.  Each time is divided by the probe timed next to it in the
        # same process, so the metrics read as if the probe took
        # PROBE_NOMINAL_S; raw times are printed, not declared.
        setup_scaled = [t / out["setup_probe_s"] * PROBE_NOMINAL_S
                        for t, out in setups]
        lat = res["latencies_s"]
        lat_scaled = [t / p * PROBE_NOMINAL_S
                      for t, p in zip(lat, res["probe_s"])]
        scaled = statistics.median(lat_scaled)
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "throughput_per_s": {"value": res["work_per_op"] / scaled,
                                 "unit": "1/s"},
            "latency_ms": {"value": scaled * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        counts = {"setup_s": len(setups), "throughput_per_s": len(lat),
                  "latency_ms": len(lat), "peak_rss_mb": 1}
        res["info"] = {
            "latency_p90_ms": (_percentile(lat_scaled, 90) * 1e3, "ms",
                               len(lat)),
            "raw_setup_s": (statistics.median(t for t, _ in setups), "s",
                            len(setups)),
            "raw_mean_throughput_per_s": (
                res["work_per_op"] * len(lat) / sum(lat), "1/s", len(lat)),
            "raw_latency_min_ms": (min(lat) * 1e3, "ms", len(lat)),
            "raw_latency_p50_ms": (statistics.median(lat) * 1e3, "ms", len(lat)),
            "raw_latency_p90_ms": (_percentile(lat, 90) * 1e3, "ms", len(lat)),
            "probe_p50_ms": (statistics.median(res["probe_s"]) * 1e3, "ms",
                             len(res["probe_s"])),
        }
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics, "counts": counts,
            "detail": res}


def report(workload: str, seed: int, result: dict) -> None:
    """Print one workload's metrics by name, with unit and sample count."""
    detail = result["detail"]
    print(f"== {workload}  seed {seed}  reference: {detail['reference']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']:6s} "
              f"n={result['counts'][name]}")
    for name, (value, unit, count) in detail.get("info", {}).items():
        print(f"  {name:44s} {value:>14.6g} {unit:6s} n={count}  (not declared)")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':44s} {frac:>14.6g} {'ratio':6s} "
          f"{result['failed']} failed of {result['attempted']} ops")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    if "outcomes" in detail:
        print(f"  spans written to {detail['trace_file']}")
        for key, row in detail["outcomes"].items():
            print(f"  outcome {key:32s} self {row['self_s']:.4f} s  "
                  f"clip {row['clip']}  active {row['active_targets']}  "
                  f"pinv {row['pinv_fallbacks']}")
        for key, row in detail["heavy_tails"].items():
            print(f"  heavy tail {key:30s} " + "  ".join(
                f"{stat} {value:.4g}" for stat, value in row.items()))
    print("env " + json.dumps(detail["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shrinkcov" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/shrinkcov package to measure",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.perf_counter() + RUN_BUDGET_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
        except WorkerError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        report(name, args.seed, results[name])
    if args.workload == "all":
        metrics = {f"{name}.{key}": value for name, res in results.items()
                   for key, value in res["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
