"""The benchmark's workloads: inputs made from a seed, one op, output checks.

``mc_*`` workloads drive the package's command line, an op being one
``shrinkcov run`` call (``shrinkcov.cli.main``) on a small config whose
CSV goes to a file.  Ops cycle through ``SLOTS`` CLI seeds derived from
the workload seed, so one run covers ``SLOTS * reps`` distinct
replications per sample count, and every call at the default seed has a
stored reference CSV.

``select_highdim`` is a closed loop of library calls from one caller on
AR(0.5) sample blocks with N = 1000 >> T = 50, drawn during set-up.

The package is imported lazily, so this module loads before ``src`` is
on the path; the worker puts it there.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

DEFAULT_SEED = 1
REL_TOL = 1e-10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SLOTS = 8

MC_CONFIGS = {
    # per-sample least-squares loops; the only user of the OLS base
    "mc_ols": {"workers": 1, "reps": 2,
               "experiments": [{"experiment": "LinearModelPastTarget"}]},
    # 2^K face enumeration of the multi-target solvers on every replication
    "mc_multi": {"workers": 1, "reps": 6,
                 "experiments": [{"experiment": "MultiTargetAr"}]},
    # complex SCM path into the array consumers.  Serial: with workers 2 the
    # lower-decile rate spread 10-16% between runs (GIL contention on 2
    # shared cores) against 1.6% serial, so the threaded path is not measured
    "mc_array": {"workers": 1, "reps": 2,
                 "experiments": [{"experiment": name} for name in (
                     "Ar1Identity", "MimoChannelMmse", "LmmseDetect",
                     "MvdrBeam")]},
}
HIGHDIM = {"n": 1000, "t": 50, "ar": 0.5, "blocks": 10}
WORKLOADS = (*MC_CONFIGS, "select_highdim")


def cli_seed(seed: int, slot: int) -> int:
    """CLI seed of one slot; distinct workload seeds never share one."""
    return seed * 1000 + slot


def digest(doc) -> str:
    """SHA-256 of a JSON document in canonical form."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    """True when a and b agree within ``tol`` relative to the larger one."""
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


def parse_rows(text: str) -> dict:
    """CSV text as {(experiment, method, T): (metric, mean, stderr, reps)}."""
    reader = csv.reader(io.StringIO(text))
    next(reader, None)
    return {(r[0], r[1], int(r[2])): (r[3], float(r[4]), float(r[5]), int(r[6]))
            for r in reader if r}


def compare_rows(got: dict, ref: dict) -> list:
    """Rows of ``got`` missing from, extra to, or differing from ``ref``."""
    problems = [f"missing row {key}" for key in sorted(set(ref) - set(got))]
    problems += [f"extra row {key}" for key in sorted(set(got) - set(ref))]
    for key in sorted(set(got) & set(ref)):
        (metric, mean, stderr, reps), (r_metric, r_mean, r_stderr, r_reps) = \
            got[key], ref[key]
        if (metric, reps) != (r_metric, r_reps) or not (
                rel_close(mean, r_mean) and rel_close(stderr, r_stderr)):
            problems.append(f"row {key} differs: {got[key]} vs {ref[key]}")
    return problems


def _load_reference(name: str, definition: dict):
    doc = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    if doc["definition"] != digest(definition):
        raise RuntimeError(f"reference/{name}.json was captured for another "
                           "workload definition; regenerate it")
    return doc


class McWorkload:
    """Repeated ``shrinkcov run`` calls on one config, cycling CLI seeds."""

    cycle = SLOTS           # ops before the inputs repeat
    reference_key = "csv"

    def __init__(self, name: str, seed: int, out_dir: Path, config=None,
                 check_reference: bool = True):
        from shrinkcov.experiments import parse_config

        self.name, self.seed, self.out_dir = name, seed, Path(out_dir)
        self.config = config if config is not None else MC_CONFIGS[name]
        plan = parse_config(self.config)
        self.workers = plan.workers
        self.work_per_op = sum(len(c.sample_counts) * c.reps for c in plan.configs)
        self.expected = {(c.experiment, m, t) for c in plan.configs
                         for m in c.methods for t in c.sample_counts}
        self.seen = {}
        self.reference = (_load_reference(name, self.definition())
                          if check_reference and seed == DEFAULT_SEED
                          and config is None else None)
        self.config_path = self.out_dir / f"{name}-config.json"

    def definition(self) -> dict:
        return {"workload": self.name, "config": self.config, "seed": self.seed,
                "cli_seeds": [cli_seed(self.seed, s) for s in range(SLOTS)]}

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config))

    def _csv_path(self, slot: int) -> Path:
        return self.out_dir / f"{self.name}-slot{slot}.csv"

    def op(self, i: int):
        import shrinkcov.cli

        slot = i % SLOTS
        return shrinkcov.cli.main(["run", "--config", str(self.config_path),
                                   "--seed", str(cli_seed(self.seed, slot)),
                                   "--out", str(self._csv_path(slot))])

    def check(self, i: int, result) -> list:
        """Problems with op ``i``'s output; empty when it is correct."""
        if result != 0:
            return [f"shrinkcov run exited with code {result}"]
        slot = i % SLOTS
        text = self._csv_path(slot).read_text()
        rows = parse_rows(text)
        problems = [f"missing row {k}" for k in sorted(self.expected - set(rows))]
        problems += [f"non-finite row {k}" for k, v in rows.items()
                     if not (math.isfinite(v[1]) and math.isfinite(v[2]))]
        if self.reference is not None:
            problems += compare_rows(rows, parse_rows(self.reference["csv"][slot]))
        first = self.seen.setdefault(slot, text)
        if text != first:
            problems.append(f"slot {slot} output changed between calls")
        return problems

    def output(self, i: int):
        return self.seen.get(i % SLOTS)


class SelectWorkload:
    """Selection ops on a pool of high-dimensional sample blocks."""

    name = "select_highdim"
    workers = 1
    work_per_op = 1
    reference_key = "blocks"

    def __init__(self, seed: int, params=None, check_reference: bool = True):
        self.seed = seed
        self.params = params if params is not None else HIGHDIM
        self.reference = (_load_reference(self.name, self.definition())
                          if check_reference and seed == DEFAULT_SEED
                          and params is None else None)
        self.seen = {}
        self.blocks = []

    @property
    def cycle(self) -> int:
        """Ops before the inputs repeat."""
        return self.params["blocks"]

    def definition(self) -> dict:
        return {"workload": self.name, "params": self.params, "seed": self.seed}

    def setup(self) -> None:
        import numpy as np
        import shrinkcov as sc

        n, t, count = self.params["n"], self.params["t"], self.params["blocks"]
        sigma = sc.ar_covariance(n, self.params["ar"])
        pool = sc.gaussian_samples(sigma, t * count,
                                   sc.RngStream(self.seed).generator())
        self.blocks = [np.ascontiguousarray(pool[:, k * t:(k + 1) * t])
                       for k in range(count)]

    def op(self, i: int) -> dict:
        import shrinkcov as sc

        y = self.blocks[i % self.cycle]
        r = sc.scm(y)
        targets = [sc.scaled_identity_target(r), sc.diagonal_target(r),
                   sc.toeplitz_average_target(r)]
        sol = sc.select_single_target("cv", targets[0], samples=y)
        sc.shrink(r, targets[0], sol)
        mt = sc.mt_select("cv", targets, samples=y)
        return {"rho": sol.rho, "tau": sol.tau, "clip": sol.clip.value,
                "mt_rho": mt.rho, "mt_taus": [float(x) for x in mt.taus]}

    def check(self, i: int, result) -> list:
        block = i % self.cycle
        values = [result["rho"], result["tau"], result["mt_rho"], *result["mt_taus"]]
        problems = []
        if len(result["mt_taus"]) != 3 or not all(map(math.isfinite, values)):
            problems.append(f"block {block}: incomplete or non-finite {result}")
        if self.reference is not None:
            ref = self.reference["blocks"][block]
            ref_values = [ref["rho"], ref["tau"], ref["mt_rho"], *ref["mt_taus"]]
            if result["clip"] != ref["clip"] or len(values) != len(ref_values) \
                    or not all(map(rel_close, values, ref_values)):
                problems.append(f"block {block} differs: {result} vs {ref}")
        if self.seen.setdefault(block, result) != result:
            problems.append(f"block {block} output changed between calls")
        return problems

    def output(self, i: int):
        return self.seen.get(i % self.cycle)


def make(name: str, seed: int, out_dir: Path, check_reference: bool = True):
    """The workload object for ``name``."""
    if name == "select_highdim":
        return SelectWorkload(seed, check_reference=check_reference)
    return McWorkload(name, seed, out_dir, check_reference=check_reference)


def reference_document(workload) -> dict:
    """One full cycle of ``workload``'s outputs, as stored under reference/."""
    workload.setup()
    outputs = []
    for i in range(workload.cycle):
        problems = workload.check(i, workload.op(i))
        if problems:
            raise RuntimeError(f"{workload.name} op {i}: {problems}")
        outputs.append(workload.output(i))
    return {"seed": workload.seed, "definition": digest(workload.definition()),
            workload.reference_key: outputs}
