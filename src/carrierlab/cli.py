"""Command-line front end: run scenarios, list them, verify past runs."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields
from pathlib import Path

# carrierlab makes no BLAS call, and a BLAS pool gives the process more OS
# threads than the one from which _split forks its helper: unless the user
# chose a thread count, numpy starts with one, as the tests and perfbench pin it
_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

from .scenarios import (
    SCENARIO_DESCRIPTIONS,
    SCENARIOS,
    ScenarioConfig,
    parse_config_text,
    run_scenario,
    verify_run,
)


@functools.cache  # built once per process; each parse_args starts from a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carrierlab",
        description="Real-carrier vs complex-carrier modulation experiments "
        "with CSV artifacts and machine-checkable verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its artifacts")
    run_p.add_argument("--config", type=Path, help="flat key = value config file")
    run_p.add_argument("--out", type=Path, help="output directory (default runs/<scenario>)")
    # one flag per config field; values stay text so that flags and config
    # files go through the same parser
    for f in fields(ScenarioConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.name == "scenario":
            run_p.add_argument(flag, choices=SCENARIOS, help="scenario to run")
        else:
            run_p.add_argument(flag, dest=f.name)

    sub.add_parser("list", help="list available scenarios")

    verify_p = sub.add_parser("verify", help="re-check an existing run from its artifacts")
    verify_p.add_argument("--out", type=Path, required=True, help="directory of a previous run")
    return parser


def _config_error(exc: Exception) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    mapping: dict[str, str] = {}
    if args.config is not None:
        try:
            mapping.update(parse_config_text(Path(args.config).read_text()))
        except (OSError, ValueError) as exc:
            return _config_error(exc)
    for f in fields(ScenarioConfig):
        value = getattr(args, f.name)
        if value is not None:
            mapping[f.name] = value
    try:
        cfg = ScenarioConfig.from_mapping(mapping)
        out_dir = args.out if args.out is not None else Path("runs") / cfg.scenario
        # run_scenario validates the config and builds the chain before it
        # writes anything, so a rejected config leaves no files behind
        report = run_scenario(cfg, out_dir)
    except ValueError as exc:
        return _config_error(exc)
    except OSError as exc:  # --out names a file, or a path under one
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_text())
    print(f"artifacts written to {out_dir}")
    return 0 if report.passed else 1


def _cmd_list() -> int:
    for scenario in SCENARIOS:
        print(f"{scenario:12s} {SCENARIO_DESCRIPTIONS[scenario]}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if not out.is_dir():
        print(f"verify error: no such directory {out}", file=sys.stderr)
        return 2
    try:
        ok, messages = verify_run(out)
    except OSError as exc:  # a helper process that ended without its results
        print(f"verify error: {exc}", file=sys.stderr)
        return 2
    for message in messages:
        print(message)
    print(f"verify: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    return _cmd_verify(args)


if __name__ == "__main__":
    raise SystemExit(main())
