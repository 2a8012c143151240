"""Span tracer installed around shrinkcov's module boundaries.

The tracer never edits the package: it replaces module attributes with
wrappers, at every place another module (or the package namespace) has
bound them, and swaps each ``EXPERIMENTS[name].replicate`` with
``dataclasses.replace``.  Intra-module calls go through module globals,
so they are caught as well.  Everything is undone by :meth:`uninstall`.

Each span records (id, parent, name, start, end, thread, op, method,
outcome, error).  ``op`` identifies the Monte-Carlo replication or the
selection op the span belongs to; ``method`` is the experiment method
whose loop iteration was running, tagged by iterating the replicate's
``methods`` argument through :class:`_MethodTagger`.  Spans stay in
memory until the run ends; :func:`self_times` then derives each span's
self time as its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

# the package modules whose boundaries are traced (the benchmark's layers)
LAYERS = ("datagen", "estimators", "targets", "single_target", "multi_target",
          "baselines", "applications", "hermitian", "experiments", "cli")

# functions that return a ShrinkageSolution they built themselves; their
# Clip values are the selector outcomes counted per (experiment, method)
_CLIP_PRODUCERS = {"single_target.solve_quadratic_2d",
                   "baselines.lw_coefficients",
                   "baselines.glc_coefficients",
                   "baselines.oas_coefficient"}
# consumers that need a positive definite covariance; a ValueError from
# them is what sends the harness to the pseudo-inverse
_PD_CONSUMERS = {"applications.mvdr_weights", "applications.lmmse_detect"}
_CLIPS = ("none", "rho_zero", "tau_zero", "convex_boundary")
_ACTIVE = range(4)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{n}.self_s", "s", "lower") for n in (
        "estimators.ols_loo_terms", "single_target.ols_fast_moments",
        "estimators.ols_fit", "multi_target.solve_nonneg_qp",
        "multi_target.solve_nonneg_qp_simplex", "hermitian.is_psd",
        "multi_target.moments", "single_target.scm_fast_moments",
        "single_target.oracle_moments", "single_target.solve_quadratic_2d",
        "single_target.shrink", "applications.ls_to_channel_cov",
        "applications.mmse_channel_estimate", "applications.mvdr_weights",
        "applications.mvdr_weights_pseudo", "applications.lmmse_detect",
        "applications.output_sinr", "estimators.scm",
        "targets.scaled_identity_target", "targets.diagonal_target",
        "targets.toeplitz_average_target", "targets.knowledge_aided_target",
        "baselines.lw_coefficients", "baselines.glc_coefficients",
        "baselines.oas_coefficient", "datagen.gaussian_samples",
        "experiments.harness")]
    + [("multi_target.faces_enumerated", "count", "lower"),
       ("applications.pd_solve.attempts", "count", "lower"),
       ("applications.pd_solve.failed", "count", "lower")]
    + [(f"hermitian.{f}.{s}", u, "lower")
       for f in ("require_hermitian", "validate_samples", "real_trace_product")
       for s, u in (("calls", "count"), ("self_s", "s"))]
    + [("experiments.replicate.p50_ms", "ms", "lower"),
       ("experiments.replicate.p99_ms", "ms", "lower"),
       ("experiments.replicate.count", "count", "higher")]
    + [(f"{layer}.{s}", u, "lower") for layer in LAYERS
       for s, u in (("self_s", "s"), ("calls", "count"))]
    # behaviour counts: no preferred direction, equal under a pure-speed change
    + [(f"single_target.clip.{c}", "count", "higher") for c in _CLIPS]
    + [(f"multi_target.active_targets.{k}", "count", "higher") for k in _ACTIVE]
    + [("trace.overhead_frac", "ratio", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.self_sum_frac", "ratio", "lower"),
       ("trace.spans", "count", "lower")]
)

FIELDS = ("sid", "parent", "name", "start", "end", "thread", "op", "method",
           "outcome", "error")


class _MethodTagger(tuple):
    """The replicate's ``methods`` tuple; iterating it tags the running method."""

    def __new__(cls, methods, local):
        obj = super().__new__(cls, methods)
        obj._local = local
        return obj

    def __iter__(self):
        try:
            for method in super().__iter__():
                self._local.method = method
                yield method
        finally:
            self._local.method = None


class Tracer:
    """Records spans at the package's module boundaries while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._cross_parent = None   # open run_experiment span, for pool threads
        self._undo = []
        # per-replication metric values by (experiment, method, T)
        self.rep_values = defaultdict(list)

    # -- context --------------------------------------------------------

    def _ctx(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.op, local.method, local.nonneg_x = [], None, None, None
        return local

    def set_op(self, op) -> None:
        """Label the spans that follow on this thread with ``op``."""
        self._ctx().op = op

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, name, hook=None, root=False):
        tracer = self
        # scenes carry a sample-drawing closure; trace it as datagen too
        scene = name in ("datagen.linear_model_scene", "datagen.interference_scene")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._ctx()
            stack = local.stack
            parent = stack[-1] if stack else tracer._cross_parent
            sid = next(tracer._ids)
            stack.append(sid)
            if root:
                outer, tracer._cross_parent = tracer._cross_parent, sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                tracer.spans.append((sid, parent, name, start, end,
                                     threading.get_ident(), local.op,
                                     local.method, None, type(exc).__name__))
                raise
            finally:
                stack.pop()
                if root:
                    tracer._cross_parent = outer
            end = time.perf_counter()
            outcome = hook(local, result) if hook else None
            tracer.spans.append((sid, parent, name, start, end,
                                 threading.get_ident(), local.op,
                                 local.method, outcome, None))
            if scene:
                result = dataclasses.replace(
                    result, generator=tracer._wrap(result.generator,
                                                   "datagen.scene_draw"))
            return result

        return traced

    def _wrap_replicate(self, experiment, fn):
        tracer = self
        inner = self._wrap(fn, "experiments.replicate")

        @functools.wraps(fn)
        def replicate(params, t, methods, stream):
            local = tracer._ctx()
            saved = local.op, local.method
            # the stream offset is unique to the replication
            local.op, local.method = (experiment, t, stream.stream_index), None
            try:
                result = inner(params, t, _MethodTagger(methods, local), stream)
            finally:
                local.op, local.method = saved
            for method, value in result.items():
                # normalized errors come as (error, reference) pairs
                ratio = value[0] / value[1] if isinstance(value, tuple) else value
                tracer.rep_values[(experiment, method, t)].append(ratio)
            return result

        return replicate

    def _hook(self, name):
        if name in _CLIP_PRODUCERS:
            return lambda local, res: res.clip.value
        if name == "multi_target.mt_select":
            return lambda local, res: len(res.active_targets)
        if name == "multi_target.solve_nonneg_qp":
            def faces(local, res):
                local.nonneg_x = res[0]
                return 1 << len(res[0])
            return faces
        if name == "multi_target.solve_nonneg_qp_simplex":
            # an early return hands back the nonnegative solution unchanged;
            # otherwise every nonempty equality face was enumerated
            return lambda local, res: (
                0 if res[0] is local.nonneg_x else (1 << len(res[0])) - 1)
        return None

    def install(self, package_name: str = "shrinkcov") -> None:
        """Wrap every public function of every layer where it is bound."""
        for layer in LAYERS:
            importlib.import_module(f"{package_name}.{layer}")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == package_name
                                           or name.startswith(package_name + "."))}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{package_name}.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(
                        obj, name, self._hook(name),
                        root=name == "experiments.run_experiment"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._set(mod, attr, wrappers[id(obj)][1])

        datagen = modules[f"{package_name}.datagen"]
        method = datagen.RngStream.generator
        self._set(datagen.RngStream, "generator",
                  self._wrap(method, "datagen.RngStream.generator"))

        registry = modules[f"{package_name}.experiments"].EXPERIMENTS
        for experiment, spec in list(registry.items()):
            registry[experiment] = dataclasses.replace(
                spec, replicate=self._wrap_replicate(experiment, spec.replicate))
            self._undo.append((registry.__setitem__, experiment, spec))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr,
                           getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every attribute and registry entry the tracer replaced."""
        while self._undo:
            setter, key, value = self._undo.pop()
            setter(key, value)


# ---------------------------------------------------------------------------
# derived quantities


def self_times(spans) -> dict:
    """Map span id to self time: duration minus the union of child intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[3], span[4]))
    out = {}
    for sid, _, _, start, end, *_ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def per_layer_metrics(spans, wall_s: float, overhead_frac: float) -> dict:
    """Every :data:`PER_LAYER` metric from one traced phase."""
    selfs = self_times(spans)
    by_name_self = Counter()
    by_name_calls = Counter()
    faces = pd_failed = 0
    clips = Counter()
    active = Counter()
    replicate = []
    for span in spans:
        sid, _, name, start, end, _, _, _, outcome, error = span
        by_name_self[name] += selfs[sid]
        by_name_calls[name] += 1
        if name.startswith("multi_target.solve_nonneg_qp") and outcome:
            faces += outcome
        elif name in _PD_CONSUMERS and error == "ValueError":
            pd_failed += 1
        elif name in _CLIP_PRODUCERS and outcome is not None:
            clips[outcome] += 1
        elif name == "multi_target.mt_select" and outcome is not None:
            active[outcome] += 1
        elif name == "experiments.replicate":
            replicate.append(end - start)

    values = {}
    for metric, _, _ in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat == "self_s" and base in LAYERS:
            values[metric] = sum(v for n, v in by_name_self.items()
                                 if n.split(".")[0] == base)
        elif stat == "calls" and base in LAYERS:
            values[metric] = sum(v for n, v in by_name_calls.items()
                                 if n.split(".")[0] == base)
        elif stat == "self_s":
            values[metric] = by_name_self.get(base, 0.0)
        elif stat == "calls":
            values[metric] = by_name_calls.get(base, 0)
    values["multi_target.moments.self_s"] = sum(
        v for n, v in by_name_self.items()
        if n.startswith("multi_target.mt_") and n.endswith("_moments"))
    values["experiments.harness.self_s"] = sum(
        by_name_self.get(f"experiments.{f}", 0.0)
        for f in ("run_experiment", "format_csv", "emit_csv"))
    values["multi_target.faces_enumerated"] = faces
    values["applications.pd_solve.attempts"] = sum(by_name_calls[n]
                                                   for n in _PD_CONSUMERS)
    values["applications.pd_solve.failed"] = pd_failed
    values["experiments.replicate.p50_ms"] = _quantile_ms(replicate, 50)
    values["experiments.replicate.p99_ms"] = _quantile_ms(replicate, 99)
    values["experiments.replicate.count"] = len(replicate)
    for clip in _CLIPS:
        values[f"single_target.clip.{clip}"] = clips.get(clip, 0)
    for k in _ACTIVE:
        values[f"multi_target.active_targets.{k}"] = active.get(k, 0)
    values["trace.overhead_frac"] = overhead_frac
    values["trace.wall_s"] = wall_s
    values["trace.self_sum_frac"] = sum(selfs.values()) / wall_s if wall_s else 0.0
    values["trace.spans"] = len(spans)
    return values


def outcome_table(spans) -> dict:
    """Selector outcomes and self time per (experiment, method).

    ``method`` is ``-`` for work shared by all methods of a replication
    (data draws, base estimate, targets) and for the selection op.
    """
    selfs = self_times(spans)
    table = defaultdict(lambda: {"self_s": 0.0, "clip": Counter(),
                                 "active_targets": Counter(),
                                 "pinv_fallbacks": 0})
    for span in spans:
        sid, _, name, _, _, _, op, method, outcome, error = span
        experiment = op[0] if isinstance(op, tuple) else (op or "harness")
        row = table[f"{experiment}/{method or '-'}"]
        row["self_s"] += selfs[sid]
        if name in _CLIP_PRODUCERS and outcome is not None:
            row["clip"][outcome] += 1
        elif name == "multi_target.mt_select" and outcome is not None:
            row["active_targets"][str(outcome)] += 1
        elif name in _PD_CONSUMERS and error == "ValueError":
            row["pinv_fallbacks"] += 1
    return {key: {"self_s": row["self_s"], "clip": dict(row["clip"]),
                  "active_targets": dict(row["active_targets"]),
                  "pinv_fallbacks": row["pinv_fallbacks"]}
            for key, row in sorted(table.items())}


def value_quantiles(rep_values) -> dict:
    """Mean and quantiles of the per-replication metric by experiment/method/T.

    A mean far above the median marks a heavy tail that the CSV's
    mean and stderr hide.
    """
    out = {}
    for (experiment, method, t), values in sorted(rep_values.items()):
        ordered = sorted(values)
        cuts = (statistics.quantiles(ordered, n=20, method="inclusive")
                if len(ordered) > 1 else ordered * 19)
        out[f"{experiment}/{method}/{t}"] = {
            "reps": len(ordered), "mean": statistics.fmean(ordered),
            "p5": cuts[0], "median": statistics.median(ordered),
            "p95": cuts[18], "max": ordered[-1]}
    return out
