"""Command-line front end: run experiments, replay manifests, compare reports."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

from .dataset import parse_priors
from .experiment import (
    ExperimentSpec,
    compare,
    run_experiment,
    run_from_manifest,
)
from .simulator import MODEL_FULL, MODEL_PARTIAL


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lockdownsched",
        description=(
            "Simulate pandemic visit schedules and evolve time-slot"
            " allocations that keep intensive-care load and deaths down."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag left out stays out of the namespace, so ExperimentSpec's own
    # default applies: each run default is declared once, on the spec
    run = sub.add_parser(
        "run",
        help="run baselines and optional evolution",
        argument_default=argparse.SUPPRESS,
    )
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dataset",
        dest="dataset_path",
        metavar="DATASET",
        help="visit-request dataset file",
    )
    source.add_argument(
        "--generate",
        type=int,
        dest="generate_seed",
        metavar="SEED",
        help="generate a dataset",
    )
    run.add_argument("--model", choices=(MODEL_PARTIAL, MODEL_FULL), required=True)
    run.add_argument("--s", type=int, help="encounter group size")
    run.add_argument("--q", type=int, help="exposure trials per encounter")
    run.add_argument(
        "--priors", help='a-priori infection by age, e.g. "20=0.03;30=0.01"'
    )
    run.add_argument(
        "--apriori-infected",
        type=float,
        help="fraction of persons infected before day one (0..1; full model only)",
    )
    run.add_argument(
        "--apriori-immune",
        type=float,
        help="fraction of persons immune before day one (0..1; full model only)",
    )
    run.add_argument("--apriori-seed", type=int, help="seed for the a-priori marking")
    run.add_argument(
        "--wc", type=float, dest="w_c", metavar="WC", help="death weight in the cost"
    )
    run.add_argument(
        "--baselines",
        help="comma list of round-robin variants (empty to skip)",
    )
    run.add_argument("--pirs", type=int, default=0, help="independent runs to evolve")
    run.add_argument(
        "--pop", type=int, dest="population", metavar="POP", help="population per run"
    )
    run.add_argument("--budget", type=int, help="offspring per run")
    run.add_argument(
        "--seed-list", default="", help="comma list of run seeds (overrides --pirs)"
    )
    run.add_argument("--seed-len", type=int, help="warm up until vectors reach this length")
    run.add_argument("--target-fitness", type=float, help="stop once best reaches this")
    run.add_argument("--target-nd", type=int, help="stop once deaths fall to this")
    run.add_argument(
        "--pn-iterations",
        type=int,
        help="samples per infection-probability estimate (full model)",
    )
    run.add_argument("--pn-seed", type=int, help="seed for the estimate (full model)")
    run.add_argument("--out", required=True, help="report directory")

    replay = sub.add_parser("replay", help="re-run a recorded experiment")
    replay.add_argument("manifest", help="manifest.json from a previous run")
    replay.add_argument("--out", required=True, help="report directory")

    comp = sub.add_parser("compare", help="compare two report directories")
    comp.add_argument("report_a")
    comp.add_argument("report_b")
    return parser


def _tokens(text: str) -> tuple:
    """The items of a comma list, stripped, with empty ones dropped."""
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _spec_from_args(args) -> ExperimentSpec:
    """The spec of a ``run``: every flag given is stored under its field's name."""
    names = {f.name for f in fields(ExperimentSpec)}
    settings = {name: value for name, value in vars(args).items() if name in names}
    if args.pirs < 0:
        raise ValueError(f"--pirs must not be negative, got {args.pirs}")
    if args.seed_list:
        try:
            pir_seeds = tuple(map(int, _tokens(args.seed_list)))
        except ValueError:
            raise ValueError(
                f"bad --seed-list {args.seed_list!r}, expected integers like 1,2,3"
            ) from None
    else:
        pir_seeds = tuple(range(1, args.pirs + 1))
    if "priors" in settings:
        settings["priors"] = parse_priors(args.priors)
    if "baselines" in settings:
        settings["baselines"] = _tokens(args.baselines)
    return ExperimentSpec(**settings, pir_seeds=pir_seeds)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            result = run_experiment(_spec_from_args(args), args.out)
        elif args.command == "replay":
            result = run_from_manifest(args.manifest, args.out)
        else:
            result = compare(args.report_a, args.report_b)
        json.dump(result, sys.stdout, indent=2, sort_keys=True)
        print()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
