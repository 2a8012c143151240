"""One workload process of the benchmark.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,measure,trace}
    python3 perfbench/worker.py --write-reference

Every mode sets the workload up (imports, config or sample pool, one
warm-up op) and prints ``READY``; ``setup`` then times the host-speed
probe and exits, ``measure`` runs ops in a closed loop for S seconds,
timing the probe after each op, and ``trace`` runs a fixed number of ops
untraced and then traced.  The last stdout line is a JSON result.
``--write-reference`` captures the stored outputs at the default seed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

# twice the seconds one untraced-plus-traced cycle of each workload's ops took
# on a quiet host at the commit that defined the benchmark; a trace run does
# round(seconds / CYCLE_SECONDS) cycles, about half of --seconds, so its work
# is fixed for a given --seconds and a host slowed 3x still ends in time
CYCLE_SECONDS = {"mc_ols": 3.4, "mc_multi": 4.4, "mc_array": 4.4,
                 "select_highdim": 4.4}
MAX_PROBLEMS = 5
PROBE_REPEATS = 3          # probe runs after set-up; their median gauges it


def _import_package():
    if not (SRC / "shrinkcov" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'shrinkcov'}")
    sys.path.insert(0, str(SRC))
    import shrinkcov

    if Path(shrinkcov.__file__).resolve().parent != SRC / "shrinkcov":
        sys.exit(f"perfbench: imported shrinkcov from {shrinkcov.__file__}, "
                 f"not from {SRC}")
    return shrinkcov


def _openblas() -> tuple:
    """(runtime thread count, configuration) of numpy's OpenBLAS, if found."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return threads(), config().decode()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return None, f"{blas.get('name')} {blas.get('version')}"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(workload) -> dict:
    """Versions, thread settings and inputs every result is recorded with."""
    import numpy
    import scipy

    from workloads import digest

    blas_threads, blas_config = _openblas()
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas_config,
            "blas_threads": blas_threads,
            "thread_env": {var: os.environ.get(var) for var in BLAS_VARS},
            "nproc": nproc, "workers": workload.workers,
            "workers_x_blas_threads": workload.workers * (blas_threads or 1),
            "machine": platform.machine(), "commit": _commit(),
            "definition": workload.definition(),
            "definition_sha256": digest(workload.definition())}


class Probe:
    """Fixed work, independent of shrinkcov, that gauges the host's speed.

    On a VM whose host is shared, the host can slow the VM by 30-60% for
    stretches of seconds to minutes, and one process can run slower than
    the next from its start.  Timing the probe in the same process right
    after each op lets the runner scale op times to one host speed.  The
    probe mixes the two kinds of work the workloads do.  Most of it is an
    interpreter-bound loop of varied calls on 50 x 50 matrices (solve,
    Cholesky, einsum, sort) with string formatting and JSON encoding, like
    the Monte-Carlo harness at n <= 100; a loop of one kind of call tracked
    those ops worse.  The rest is memory-bound passes over freshly
    allocated 1000 x 1000 arrays, like ``select_highdim``.  Its inputs come
    from a fixed seed, never from the workload seed.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20181019)
        self.tall = rng.standard_normal((1000, 50))
        self.small = rng.standard_normal((2, 50, 50))
        self.spd = self.small[0] @ self.small[0].T + 50 * np.eye(50)

    def run(self) -> float:
        """Seconds one pass of the probe's work takes."""
        import numpy as np

        start = time.perf_counter()
        acc = 0.0
        a, b = self.small
        for i in range(300):
            x = np.linalg.solve(self.spd, b[:, i % 50])
            low = np.linalg.cholesky(self.spd)
            acc += float(np.trace(a @ b)) * 1e-3 + float(x.sum())
            acc += float(np.einsum("ij,ij->", a, low)) * 1e-6
            acc += float(np.sort(x)[0]) + float(np.outer(x, x).mean())
            row = {"i": i, "v": x[:3].tolist(), "t": f"{acc:.17g}"}
            acc += len(json.dumps(row)) * 1e-9
        r = self.tall @ self.tall.T
        work = r - r.T
        acc += float(np.abs(work, out=work).max())
        acc += float(np.multiply(r, r, out=work).sum())
        for k in range(0, 1000, 4):
            acc += float(np.diagonal(r, k).mean())
        elapsed = time.perf_counter() - start
        if not math.isfinite(acc):
            raise RuntimeError("host-speed probe gave a non-finite value")
        return elapsed

    def median(self) -> float:
        return statistics.median(self.run() for _ in range(PROBE_REPEATS))


class _Loop:
    """Runs ops, times each one, and checks each output untimed.

    With a probe, the probe is timed right after each op's check.
    """

    def __init__(self, workload, probe=None):
        self.workload = workload
        self.probe = probe
        self.latencies = []
        self.probe_s = []
        self.attempted = self.failed = 0
        self.problems = []

    def run_op(self, i: int) -> None:
        start = time.perf_counter()
        try:
            result = self.workload.op(i)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            self.latencies.append(time.perf_counter() - start)
            problems = [f"op {i} raised {exc!r}"]
        else:
            self.latencies.append(time.perf_counter() - start)
            problems = self.workload.check(i, result)
        if self.probe is not None:
            self.probe_s.append(self.probe.run())
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])


def _reference_note(workload) -> str:
    from workloads import DEFAULT_SEED

    if workload.reference is not None:
        return f"compared with reference/{workload.name}.json"
    return (f"skipped (seed {workload.seed} is not the default {DEFAULT_SEED}); "
            "outputs checked finite, complete and repeatable")


def _set_up(name: str, seed: int):
    import workloads

    _import_package()
    workload = workloads.make(name, seed, OUT_DIR)
    workload.setup()
    warm = _Loop(workload)
    warm.run_op(0)
    print("READY", flush=True)
    return workload, warm


def measure(name: str, seed: int, seconds: float) -> dict:
    workload, warm = _set_up(name, seed)
    # peak memory of the ops alone: set-up and one more op on every input,
    # taken before the probe allocates anything
    for i in range(1, workload.cycle + 1):
        warm.run_op(i)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe = Probe()
    setup_probe_s = probe.median()
    loop = _Loop(workload, probe)
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        loop.run_op(i)
        i += 1
    return {"latencies_s": loop.latencies, "probe_s": loop.probe_s,
            "setup_probe_s": setup_probe_s, "work_per_op": workload.work_per_op,
            "attempted": loop.attempted + warm.attempted,
            "failed": loop.failed + warm.failed,
            "problems": warm.problems + loop.problems,
            "reference": _reference_note(workload),
            "peak_rss_mb": peak_rss_mb, "env": environment(workload)}


def trace(name: str, seed: int, seconds: float) -> dict:
    import tracer as tracing

    workload, warm = _set_up(name, seed)
    cycle = workload.cycle
    ops = cycle * max(1, round(seconds / CYCLE_SECONDS[name]))

    plain = _Loop(workload)
    for i in range(ops):
        plain.run_op(i)

    tracer = tracing.Tracer()
    tracer.install()
    traced = _Loop(workload)
    try:
        tracer.set_op("setup")
        start = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - start
        for i in range(ops):
            # replications label their own spans; the rest is harness
            tracer.set_op((name, i % cycle) if name == "select_highdim" else None)
            traced.run_op(i)   # checks the output equals the untraced one
    finally:
        tracer.uninstall()

    overhead = sum(traced.latencies) / sum(plain.latencies) - 1.0
    metrics = tracing.per_layer_metrics(tracer.spans, setup_s + sum(traced.latencies),
                                        overhead)
    outcomes = tracing.outcome_table(tracer.spans)
    values = tracing.value_quantiles(tracer.rep_values)
    env = environment(workload)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = OUT_DIR / f"trace-{name}-seed{seed}.json.gz"
    with gzip.open(detail, "wt") as handle:
        json.dump({"env": env, "metrics": metrics, "outcomes": outcomes,
                   "values": values, "span_fields": tracing.FIELDS,
                   "spans": tracer.spans}, handle)
    heavy = {key: row for key, row in values.items()
             if abs(row["mean"]) > 10 * abs(row["median"])}
    return {"metrics": metrics, "outcomes": outcomes, "heavy_tails": heavy,
            "ops": ops,
            "attempted": warm.attempted + plain.attempted + traced.attempted,
            "failed": warm.failed + plain.failed + traced.failed,
            "problems": warm.problems + plain.problems + traced.problems,
            "reference": _reference_note(workload),
            "trace_file": str(detail.relative_to(ROOT)), "env": env}


def write_reference() -> None:
    import workloads

    _import_package()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, workloads.DEFAULT_SEED, OUT_DIR,
                                  check_reference=False)
        doc = workloads.reference_document(workload)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.mode == "setup":
        _set_up(args.workload, args.seed)
        print(json.dumps({"setup_probe_s": Probe().median()}), flush=True)
        return 0
    run = measure if args.mode == "measure" else trace
    print(json.dumps(run(args.workload, args.seed, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
