"""Command-line entry point for the experiment harness.

Each subcommand maps onto one experiment kind (plus ``gen-scenes`` for
writing seeded scene files).  Option precedence: command line > config
file > built-in defaults.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from beliefplan.harness import (
    ExperimentConfig,
    config_from_file,
    export,
    generate_scene_files,
    run,
    summary_to_json,
)

_SUBCOMMAND_KINDS = {
    "calibrate": "calibration",
    "fit-alpha": "alpha-fit",
    "verify-convergence": "convergence",
    "sweep-threshold": "threshold-sweep",
    "plan": "plan-benchmark",
    "mrf-check": "mrf-check",
}

_HELP = {
    "calibrate": "measure calibration of the perception stream",
    "fit-alpha": "estimate the per-step uncertainty reduction rate",
    "verify-convergence": "compare empirical info-step counts with the bound",
    "sweep-threshold": "sweep the planning threshold and fit the tradeoff",
    "plan": "paired planning benchmark with info gathering on and off",
    "mrf-check": "validate belief propagation against exact enumeration",
    "gen-scenes": "write seeded synthetic scene files",
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    # None defaults keep "was this flag given" detectable for precedence
    sub.add_argument("--seed", type=int, default=None, help="experiment seed")
    sub.add_argument("--trials", type=int, default=None, help="trials (or scene count)")
    sub.add_argument("--samples", type=int, default=None, help="calibration stream length")
    sub.add_argument("--steps", type=int, default=None, help="observation rounds per episode")
    sub.add_argument("--tau-plan", type=float, default=None, dest="tau_plan",
                     help="certainty threshold for planning")
    sub.add_argument("--alpha", type=float, default=None,
                     help="per-step uncertainty reduction rate")
    sub.add_argument("--noise-flip", type=float, default=None, dest="noise_flip",
                     help="base label flip rate")
    sub.add_argument("--noise-sd", type=float, default=None, dest="noise_sd",
                     help="logit noise standard deviation")
    sub.add_argument("--miscal-gamma", type=float, default=None, dest="miscal_gamma",
                     help="confidence sharpening exponent (1 = calibrated)")
    sub.add_argument("--objects", type=int, default=None, dest="n_objects",
                     help="objects per generated scene")
    sub.add_argument("--stack-bias", type=float, default=None, dest="stack_bias",
                     help="probability a new object starts stacked")
    sub.add_argument("--retries", type=int, default=None, dest="max_retries",
                     help="max perception-plan rounds per episode")
    sub.add_argument("--taus", type=float, nargs="+", default=None,
                     help="threshold grid for sweeps, strictly increasing")
    sub.add_argument("--refine", action="store_true", default=None,
                     help="refine observations with the dependency model")
    sub.add_argument("--workers", type=int, default=None,
                     help="parallel worker processes")
    sub.add_argument("--out-dir", default=None, dest="out_dir",
                     help="directory for result files (default: no files)")
    sub.add_argument("--format", choices=("csv", "json"), default=None,
                     help="output file format (default csv)")
    sub.add_argument("--config", default=None,
                     help="JSON file of ExperimentConfig fields")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefplan",
        description="experiment runner for belief-space planning components",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_KINDS:
        _add_common(subs.add_parser(name, help=_HELP[name]))

    gen = subs.add_parser("gen-scenes", help=_HELP["gen-scenes"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--trials", type=int, default=10, help="number of scenes")
    gen.add_argument("--objects", type=int, default=4, dest="n_objects")
    gen.add_argument("--stack-bias", type=float, default=0.4, dest="stack_bias")
    gen.add_argument("--out-dir", default="scenes", dest="out_dir")
    return parser


def _build_config(kind: str, args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config is not None:
        values.update(config_from_file(args.config))
    values.pop("kind", None)
    config_fields = {f.name for f in fields(ExperimentConfig)}
    for name in config_fields:
        given = getattr(args, name, None)
        if given is not None:
            values[name] = given
    return ExperimentConfig(kind=kind, **values)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    try:
        if args.command == "gen-scenes":
            paths = generate_scene_files(
                args.trials, args.n_objects, args.stack_bias, args.seed, args.out_dir
            )
            print(f"wrote {len(paths)} scene files to {args.out_dir}")
            return 0
        config = _build_config(_SUBCOMMAND_KINDS[args.command], args)
        if args.out_dir is not None:
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    report = run(config)
    if args.out_dir is not None:
        fmt = args.format if args.format is not None else "csv"
        for path in export(report, args.out_dir, fmt):
            print(f"wrote {path}", file=sys.stderr)
    print(summary_to_json(report.summary), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
