"""Command-line interface: run experiments, list methods, selfcheck.

Exit codes: 0 success, 1 configuration error, 2 numeric failure,
3 input/output failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import selfcheck as selfcheck_mod
from .experiments import (
    EXPERIMENTS,
    ConfigError,
    emit_csv,
    format_csv,
    parse_config,
    run_experiment,
)

__all__ = ["main", "classify_error"]


def classify_error(exc: BaseException) -> int:
    """Map an exception to the CLI exit code of its failure class; numeric
    failures (``NumericError``, ``LinAlgError``) and all others give 2."""
    if isinstance(exc, ConfigError):
        return 1
    if isinstance(exc, OSError):
        return 3
    return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    on it, and building it costs about as much as a parse."""
    parser = argparse.ArgumentParser(
        prog="shrinkcov",
        description="Monte-Carlo experiments for shrinkage covariance "
                    "estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run experiments from a JSON config")
    run.add_argument("--config", required=True,
                     help="path to the JSON configuration file")
    run.add_argument("--reps", type=int, default=None,
                     help="override the replication count of every entry")
    run.add_argument("--seed", type=int, default=None,
                     help="override the seed of every entry")
    run.add_argument("--out", default=None,
                     help="output CSV path (default: stdout)")

    sub.add_parser("list-methods",
                   help="list experiments, their metrics and methods")
    sub.add_parser("selfcheck", help="run the built-in installation checks")
    return parser


def _cmd_run(args) -> int:
    with open(args.config) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from None
    plan = parse_config(doc)
    overrides = {"reps": args.reps, "seed": args.seed}
    overrides = {key: v for key, v in overrides.items() if v is not None}
    rows = []
    for cfg in plan.configs:
        cfg = dataclasses.replace(cfg, **overrides)
        rows.extend(run_experiment(cfg, workers=plan.workers))
    if args.out is None:
        sys.stdout.write(format_csv(rows))
    else:
        emit_csv(rows, args.out)
    return 0


def _cmd_list_methods() -> int:
    for name in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[name]
        print(f"{name} [{spec.metric}]: {', '.join(spec.methods)}")
    return 0


def _cmd_selfcheck() -> int:
    results = selfcheck_mod.run_all()
    for res in results:
        status = "ok" if res.ok else "FAIL"
        line = f"{status:4s} {res.name}"
        if res.detail:
            line += f"  ({res.detail})"
        print(line)
    return 0 if all(res.ok for res in results) else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-methods":
            return _cmd_list_methods()
        return _cmd_selfcheck()
    except Exception as exc:  # noqa: BLE001 - map to documented exit codes
        print(f"shrinkcov: error: {exc}", file=sys.stderr)
        return classify_error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
