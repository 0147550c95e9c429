"""Command-line front end: run experiments, replay manifests, compare reports."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .dataset import parse_priors
from .experiment import (
    BASELINE_VARIANTS,
    ExperimentSpec,
    compare,
    run_experiment,
    run_from_manifest,
)


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

    run = sub.add_parser("run", help="run baselines and optional evolution")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help="visit-request dataset file")
    source.add_argument(
        "--generate", type=int, metavar="SEED", help="generate a dataset"
    )
    run.add_argument("--model", choices=("partial", "full"), required=True)
    run.add_argument("--s", type=int, default=4, help="encounter group size")
    run.add_argument("--q", type=int, help="exposure trials per encounter")
    run.add_argument(
        "--priors", default="", help='a-priori infection by age, e.g. "20=0.03;30=0.01"'
    )
    run.add_argument(
        "--apriori-infected",
        type=float,
        default=0.0,
        help="fraction of persons infected before day one (0..1)",
    )
    run.add_argument(
        "--apriori-immune",
        type=float,
        default=0.0,
        help="fraction of persons immune before day one (0..1)",
    )
    run.add_argument(
        "--apriori-seed", type=int, default=0, help="seed for the a-priori marking"
    )
    run.add_argument("--wc", type=float, default=0.65, help="death weight in the cost")
    run.add_argument(
        "--baselines",
        default=",".join(BASELINE_VARIANTS),
        help="comma list of round-robin variants (empty to skip)",
    )
    run.add_argument("--pirs", type=int, default=0, help="independent runs to evolve")
    run.add_argument("--pop", type=int, default=500, help="population per run")
    run.add_argument("--budget", type=int, default=20_000, help="offspring per run")
    run.add_argument(
        "--seed-list", default="", help="comma list of run seeds (overrides --pirs)"
    )
    run.add_argument("--seed-len", type=int, help="warm up until vectors reach this length")
    run.add_argument("--target-fitness", type=float, help="stop once best reaches this")
    run.add_argument("--target-nd", type=int, help="stop once deaths fall to this")
    run.add_argument(
        "--pn-iterations",
        type=int,
        default=100_000,
        help="samples per infection-probability estimate (full model)",
    )
    run.add_argument(
        "--pn-seed", type=int, default=0, help="seed for the estimate (full model)"
    )
    run.add_argument("--out", required=True, help="report directory")

    replay = sub.add_parser("replay", help="re-run a recorded experiment")
    replay.add_argument("manifest", help="manifest.json from a previous run")
    replay.add_argument("--out", required=True, help="report directory")

    comp = sub.add_parser("compare", help="compare two report directories")
    comp.add_argument("report_a")
    comp.add_argument("report_b")
    return parser


def _spec_from_args(args) -> ExperimentSpec:
    if args.seed_list:
        pir_seeds = tuple(int(tok) for tok in args.seed_list.split(",") if tok.strip())
    else:
        pir_seeds = tuple(range(1, args.pirs + 1))
    baselines = tuple(tok for tok in args.baselines.split(",") if tok.strip())
    return ExperimentSpec(
        model=args.model,
        dataset_path=args.dataset,
        generate_seed=args.generate,
        s=args.s,
        q=args.q,
        priors=parse_priors(args.priors),
        apriori_infected=args.apriori_infected,
        apriori_immune=args.apriori_immune,
        apriori_seed=args.apriori_seed,
        w_c=args.wc,
        baselines=baselines,
        pir_seeds=pir_seeds,
        population=args.pop,
        budget=args.budget,
        seed_len=args.seed_len,
        target_fitness=args.target_fitness,
        target_nd=args.target_nd,
        pn_iterations=args.pn_iterations,
        pn_seed=args.pn_seed,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            summary = run_experiment(_spec_from_args(args), args.out)
            json.dump(summary, sys.stdout, indent=2, sort_keys=True)
            print()
        elif args.command == "replay":
            summary = run_from_manifest(args.manifest, args.out)
            json.dump(summary, sys.stdout, indent=2, sort_keys=True)
            print()
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
