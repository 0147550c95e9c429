"""The benchmark's workloads: input set-up, one timed operation, and its gates.

An operation is the unit the benchmark times and checks: one ``run_pirs``
call on the ``evolve_*`` workloads, one run + replay + compare cycle through
``cli.main`` on ``report_replay``.  Operation ``k`` of a run always gets the
same inputs, so a traced run and an untraced run of one seed do the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

PRIORS = "20=0.01;40=0.03;50=0.02"
# Standard-model runs start with a few infected and immune persons (the same
# marking the CLI tests use); with nobody infected the standard model never
# transmits and every plan scores zero.
APRIORI_INFECTED = 0.053
APRIORI_IMMUNE = 0.021
APRIORI_SEED = 777
PN_ITERATIONS = 100_000
PN_SEED = 0
W_C = 0.65

# Population and offspring budget of one evolve operation, and operations per
# traced run: enough evolve operations for 1000 counts_for_slots calls.
SIZES = {
    "standard": {"population": 100, "budget": 100, "traced_evolve": 6, "traced_cycles": 8},
    "tiny": {"population": 8, "budget": 12, "traced_evolve": 2, "traced_cycles": 2},
}


def pir_seed(k: int) -> int:
    """Seed of the single PIR run by operation k."""
    return k + 1


def tree_digest(root) -> str:
    """sha256 over every file of a directory tree, paths and bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            h.update(b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def tree_bytes(root) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, filenames in os.walk(root)
        for name in filenames
    )


class EvolveWorkload:
    """Steady-state GP under one infection model, pop 100, fixed PIR seeds."""

    rate_name = "offspring_per_s"  # what ops_per_s measures here

    def __init__(self, model: str, size: str):
        self.model = model
        self.size = SIZES[size]
        self.traced_ops = self.size["traced_evolve"]

    def setup(self, seed: int, workdir: str) -> dict:
        from lockdownsched import dataset, full_infection
        from lockdownsched.gp_engine import GpConfig

        ds = dataset.generate_dataset(seed).with_taxonomy(dataset.parse_priors(PRIORS))
        table = None
        if self.model == "full":
            ds = dataset.mark_apriori_infection(
                ds, APRIORI_INFECTED, APRIORI_IMMUNE, seed=APRIORI_SEED
            )
            table = full_infection.build_pn_table(4, PN_ITERATIONS, seed=PN_SEED)
        config = GpConfig(
            model=self.model,
            s=4 if self.model == "partial" else None,
            q=4 if self.model == "full" else None,
            w_c=W_C,
            population=self.size["population"],
            budget=self.size["budget"],
        )
        return {"ds": ds, "table": table, "config": config}

    def run_op(self, state: dict, k: int, workdir: str):
        """Timed part: returns (archive, operations counted)."""
        from lockdownsched import gp_engine

        config = state["config"]
        archive = gp_engine.run_pirs(
            state["ds"], config, (pir_seed(k),), table=state["table"]
        )
        return archive, config.population + config.budget

    def check(self, state: dict, k: int, archive, expected) -> tuple:
        """Returns (problems, observed) for operation k.

        Every record is re-scored independently of the evolution path: the
        reference simulator on the plan from ``allocation.decode``, and the
        plan digest recomputed from that plan.  ``expected``, when given,
        holds the stored best record and record count for this operation.
        """
        # numpy is imported here, not at module level, so that set-up, which
        # runs before any check, times the package's whole import
        import numpy as np

        from lockdownsched.allocation import decode
        from lockdownsched.gp_engine import SolutionRecord
        from lockdownsched.simulator import fitness_value, simulate

        ds, problems = state["ds"], []
        best = archive.records[0]
        observed = [best.fitness, best.n_h, best.n_d, best.plan_digest, len(archive.records)]
        if expected is not None and list(expected) != observed:
            problems.append(f"op {k}: best record {observed} != expected {list(expected)}")
        kwargs = {"s": 4} if self.model == "partial" else {"table": state["table"]}
        ds_digest = ds.digest().encode()
        ranks = [SolutionRecord.sort_key(rec) for rec in archive.records]
        if any(a > b for a, b in zip(ranks, ranks[1:])):
            problems.append(f"op {k}: records not ranked best first")
        for rec in archive.records:
            plan = decode(rec.vector, ds)
            counts = simulate(ds, plan, self.model, engine="reference", **kwargs).counts()
            if counts != (rec.n_h, rec.n_d):
                problems.append(f"op {k}: reference counts {counts} != {(rec.n_h, rec.n_d)}")
            if fitness_value(rec.n_h, rec.n_d, W_C) != rec.fitness:
                problems.append(f"op {k}: fitness {rec.fitness} inconsistent with counts")
            h = hashlib.sha256(ds_digest)
            h.update(np.asarray(plan.slots, dtype=np.int64).tobytes())
            if h.hexdigest() != rec.plan_digest:
                problems.append(f"op {k}: plan digest does not match the decoded plan")
        return problems, observed


class ReportReplayWorkload:
    """Baselines-only fractional ``run``, then ``replay``, then ``compare``."""

    rate_name = "reports_per_s"

    def __init__(self, size: str):
        self.traced_ops = SIZES[size]["traced_cycles"]

    def setup(self, seed: int, workdir: str) -> dict:
        from lockdownsched import dataset

        name = f"dataset-{seed}.txt"
        dataset.save_dataset(dataset.generate_dataset(seed), os.path.join(workdir, name))
        return {"dataset_file": name}

    def run_op(self, state: dict, k: int, workdir: str):
        """Timed part.  Runs inside workdir with relative paths, because the
        manifest records the dataset path and must not depend on where the
        checkout lives."""
        from lockdownsched import cli

        base = f"cycle-{k}"
        run_dir, replay_dir = os.path.join(base, "run"), os.path.join(base, "replay")
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out):
                codes = (
                    cli.main([
                        "run", "--dataset", state["dataset_file"], "--model", "partial",
                        "--s", "4", "--priors", PRIORS, "--baselines", "comp1,comp2,comp3",
                        "--out", run_dir,
                    ]),
                    cli.main(["replay", os.path.join(run_dir, "manifest.json"), "--out", replay_dir]),
                )
                mark = out.tell()
                codes += (cli.main(["compare", run_dir, replay_dir]),)
        finally:
            os.chdir(cwd)
        compared = out.getvalue()[mark:]
        return {"base": os.path.join(workdir, base), "codes": codes, "compare": compared}, 1

    def check(self, state: dict, k: int, result, expected) -> tuple:
        """Replay byte-identical to the run, compare ratio 1.0, stored digest."""
        problems = []
        run_dir = os.path.join(result["base"], "run")
        try:
            if result["codes"] != (0, 0, 0):
                problems.append(f"cycle {k}: cli exit codes {result['codes']}")
                return problems, None
            digest = tree_digest(run_dir)
            if tree_digest(os.path.join(result["base"], "replay")) != digest:
                problems.append(f"cycle {k}: replay differs from the run")
            ratio = json.loads(result["compare"])["ratio_b_over_a"]
            if ratio != 1.0:
                problems.append(f"cycle {k}: compare ratio_b_over_a {ratio} != 1.0")
            observed = [digest, tree_bytes(run_dir)]
            if expected is not None and list(expected) != observed:
                problems.append(f"cycle {k}: report {observed} != expected {list(expected)}")
            return problems, observed
        finally:
            shutil.rmtree(result["base"], ignore_errors=True)


def make_workload(name: str, size: str = "standard"):
    if name == "evolve_partial":
        return EvolveWorkload("partial", size)
    if name == "evolve_full":
        return EvolveWorkload("full", size)
    if name == "report_replay":
        return ReportReplayWorkload(size)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("evolve_partial", "evolve_full", "report_replay")
