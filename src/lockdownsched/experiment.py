"""End-to-end experiment runs and their on-disk reports.

A run takes one dataset (loaded or generated), scores the requested
round-robin baselines, optionally evolves visit plans, and writes a report
directory: CSV tables for baselines and the solution archive, per-solution
detail folders, a JSON summary, and a manifest holding every seed so the
whole run can be replayed bit-for-bit.  Nothing written here contains a
timestamp; byte-identical replays are part of the contract.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field

from .allocation import decode, round_robin, write_plan_csv
from .dataset import (
    AGE_GROUPS,
    Dataset,
    establishment_label,
    generate_dataset,
    load_dataset,
    mark_apriori_infection,
    save_dataset,
    slot_label,
)
from .full_infection import build_pn_table
from .gp_engine import Archive, GpConfig, run_pirs
from .simulator import MODEL_FULL, MODEL_PARTIAL, SimOutcome, fitness_value, simulate

DAY_LABELS = ("MON", "TUE", "WED")
BASELINE_VARIANTS = ("comp1", "comp2", "comp3")
AGE_BANDS = (("young", (20, 30)), ("middle", (40, 50, 60)), ("elderly", (70, 80)))
MANIFEST_FORMAT = 1


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one run, seeds included."""

    model: str
    dataset_path: str | None = None
    generate_seed: int | None = None
    s: int | None = 4
    q: int | None = None
    priors: dict = field(default_factory=dict)
    apriori_infected: float = 0.0
    apriori_immune: float = 0.0
    apriori_seed: int = 0
    w_c: float = 0.65
    baselines: tuple = BASELINE_VARIANTS
    pir_seeds: tuple = ()
    population: int = 500
    budget: int = 20_000
    seed_len: int | None = None
    target_fitness: float | None = None
    target_nd: int | None = None
    pn_iterations: int = 100_000
    pn_seed: int = 0

    def validate(self) -> None:
        """Reject a bad spec before anything is written; GpConfig checks the
        model, its parameter, w_c and the evolution settings."""
        if (self.dataset_path is None) == (self.generate_seed is None):
            raise ValueError("exactly one dataset source must be given")
        self.gp_config()
        for variant in self.baselines:
            if variant not in BASELINE_VARIANTS:
                raise ValueError(f"unknown baseline {variant!r}")

    def gp_config(self) -> GpConfig:
        return GpConfig(
            model=self.model,
            s=self.s,
            q=self.q,
            w_c=self.w_c,
            population=self.population,
            budget=self.budget,
            seed_len=self.seed_len,
            target_fitness=self.target_fitness,
            target_nd=self.target_nd,
            pn_iterations=self.pn_iterations,
            pn_seed=self.pn_seed,
        )


def spec_to_json(spec: ExperimentSpec) -> dict:
    doc = asdict(spec)
    doc["priors"] = sorted(spec.priors.items())
    doc["baselines"] = list(spec.baselines)
    doc["pir_seeds"] = list(spec.pir_seeds)
    return doc


def spec_from_json(doc: dict) -> ExperimentSpec:
    doc = dict(doc)
    doc["priors"] = {int(age): float(p) for age, p in doc.get("priors", [])}
    doc["baselines"] = tuple(doc.get("baselines", ()))
    doc["pir_seeds"] = tuple(doc.get("pir_seeds", ()))
    return ExperimentSpec(**doc)


def _cost(fitness: float) -> float:
    return round(-fitness, 10) + 0.0


def _prepare_dataset(spec: ExperimentSpec, override: Dataset | None) -> tuple:
    """Returns (raw dataset as loaded, working dataset with priors applied)."""
    if override is not None:
        raw = override
    elif spec.generate_seed is not None:
        raw = generate_dataset(seed=spec.generate_seed)
    else:
        raw = load_dataset(spec.dataset_path)
    working = raw
    if spec.priors:
        working = working.with_taxonomy(spec.priors)
    if spec.model == MODEL_FULL and (spec.apriori_infected or spec.apriori_immune):
        working = mark_apriori_infection(
            working, spec.apriori_infected, spec.apriori_immune, seed=spec.apriori_seed
        )
    return raw, working


def _age_band_weights(ds: Dataset) -> list:
    counts = {age: 0 for age in AGE_GROUPS}
    for person in ds.persons:
        counts[person.age_group] += 1
    bands = []
    for name, ages in AGE_BANDS:
        idx = [AGE_GROUPS.index(a) for a in ages]
        total = sum(counts[a] for a in ages)
        bands.append((name, idx, [counts[a] for a in ages], total))
    return bands


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_solution_detail(dirpath, ds, plan, outcome: SimOutcome) -> None:
    os.makedirs(dirpath, exist_ok=True)
    write_plan_csv(plan, ds, os.path.join(dirpath, "allocations.csv"))

    occupancy_rows = []
    for day, day_grid in enumerate(outcome.occupancy):
        for slot, counts in enumerate(day_grid):
            for est, count in enumerate(counts):
                occupancy_rows.append(
                    (DAY_LABELS[day], slot_label(slot), establishment_label(est), count)
                )
    _write_rows(
        os.path.join(dirpath, "occupancy.csv"),
        ("day", "hours", "establishment", "attendees"),
        occupancy_rows,
    )

    if outcome.trajectory is not None:
        bands = _age_band_weights(ds)
        rows = []
        for i, group_avgs in enumerate(outcome.trajectory):
            day, checkpoint = divmod(i, 4)
            hour = 8 + 4 * (checkpoint + 1)
            cells = []
            for _, idx, weights, total in bands:
                if total:
                    value = sum(group_avgs[g] * w for g, w in zip(idx, weights)) / total
                else:
                    value = 0.0
                cells.append(repr(value))
            rows.append((DAY_LABELS[day], hour, *cells))
        _write_rows(
            os.path.join(dirpath, "trajectory.csv"),
            ("day", "hour", "young", "middle", "elderly"),
            rows,
        )

    persons = {p.id: p for p in ds.persons}
    infection = {}
    for pi, person in enumerate(ds.persons):
        if outcome.final_levels is not None:
            infection[person.id] = repr(outcome.final_levels[pi])
        else:
            status, days = outcome.final_status[pi]
            infection[person.id] = f"{status}{days}"
    roster_rows = []
    for day, newly in enumerate(outcome.isolated_by_day):
        for pid in sorted(newly):
            roster_rows.append(
                ("isolated", pid, persons[pid].age_group, DAY_LABELS[day], infection[pid])
            )
    for label in ("icu_recovered", "icu_death"):
        for pi, person in enumerate(ds.persons):
            if outcome.classifications[pi] == label:
                roster_rows.append(
                    (label, person.id, person.age_group, "", infection[person.id])
                )
    _write_rows(
        os.path.join(dirpath, "rosters.csv"),
        ("category", "person", "age", "day", "infection"),
        roster_rows,
    )


def run_experiment(
    spec: ExperimentSpec, out_dir, *, dataset_override: Dataset | None = None
) -> dict:
    """Execute the run and write the report directory; returns the summary."""
    spec.validate()
    raw_ds, ds = _prepare_dataset(spec, dataset_override)
    # Stale files from an earlier run would sit beside a fresh manifest and
    # make the tree lie about what was computed, so never write into one.
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise ValueError(f"output directory {out_dir} is not empty")
    os.makedirs(out_dir, exist_ok=True)
    solutions_dir = os.path.join(out_dir, "solutions")

    table = None
    if spec.model == MODEL_FULL:
        table = build_pn_table(spec.q, spec.pn_iterations, seed=spec.pn_seed)
    sim_kwargs = {"s": spec.s} if spec.model == MODEL_PARTIAL else {"table": table}

    baseline_rows = []
    entries = {}
    for variant in spec.baselines:
        plan = round_robin(ds, variant)
        outcome = simulate(ds, plan, spec.model, **sim_kwargs)
        n_h, n_d = outcome.counts()
        cost = _cost(fitness_value(n_h, n_d, spec.w_c))
        baseline_rows.append((variant, n_h, n_d, repr(cost)))
        entries[variant] = {"n_h": n_h, "n_d": n_d, "cost": cost}
        _write_solution_detail(
            os.path.join(solutions_dir, variant), ds, plan, outcome
        )
    _write_rows(
        os.path.join(out_dir, "baselines.csv"),
        ("variant", "n_hospitalized", "n_dead", "cost"),
        baseline_rows,
    )

    archive = None
    if spec.pir_seeds:
        archive = run_pirs(ds, spec.gp_config(), spec.pir_seeds, table=table)
        _write_archive(out_dir, archive)
        for rank, rec in enumerate(archive.pareto, start=1):
            plan = decode(rec.vector, ds)
            outcome = simulate(ds, plan, spec.model, **sim_kwargs)
            detail_dir = os.path.join(solutions_dir, f"pareto_{rank:02d}")
            _write_solution_detail(detail_dir, ds, plan, outcome)
            with open(os.path.join(detail_dir, "vector.txt"), "w") as fh:
                fh.writelines(repr(v) + "\n" for v in rec.vector)
        best = archive.records[0]
        entries["gp_best"] = {
            "n_h": best.n_h,
            "n_d": best.n_d,
            "cost": _cost(best.fitness),
        }

    summary = {
        "dataset_digest": ds.digest(),
        "model": spec.model,
        "model_param": spec.s if spec.model == MODEL_PARTIAL else spec.q,
        "w_c": spec.w_c,
        "entries": entries,
        "baseline_over_best": _headline_ratios(entries),
        "gp": None,
    }
    if archive is not None:
        summary["gp"] = {
            "records": len(archive.records),
            "pareto": [
                {
                    "n_h": r.n_h,
                    "n_d": r.n_d,
                    "cost": _cost(r.fitness),
                    "pir_id": r.pir_id,
                    "seed": r.seed,
                    "plan_digest": r.plan_digest,
                }
                for r in archive.pareto
            ],
        }
    _write_json(os.path.join(out_dir, "summary.json"), summary)

    save_dataset(raw_ds, os.path.join(out_dir, "dataset.txt"))
    manifest = {
        "format": MANIFEST_FORMAT,
        "spec": spec_to_json(spec),
        "dataset_digest": ds.digest(),
        "dataset_file": "dataset.txt",
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return summary


def _headline_ratios(entries: dict) -> dict:
    """cost(baseline) / cost(best entry) for each baseline present."""
    if not entries:
        return {}
    best = min(e["cost"] for e in entries.values())
    ratios = {}
    for name, entry in entries.items():
        if name == "gp_best":
            continue
        ratios[name] = _ratio(entry["cost"], best)
    return ratios


def _ratio(numer: float, denom: float):
    if denom == 0.0:
        return 1.0 if numer == 0.0 else None
    return numer / denom


def _write_archive(out_dir, archive: Archive) -> None:
    def rows(records):
        for rank, r in enumerate(records, start=1):
            yield (
                rank,
                r.pir_id,
                r.seed,
                repr(r.fitness),
                r.n_h,
                r.n_d,
                repr(_cost(r.fitness)),
                len(r.vector),
                r.plan_digest,
            )

    header = (
        "rank", "pir_id", "seed", "fitness", "n_hospitalized", "n_dead",
        "cost", "vector_len", "plan_digest",
    )
    _write_rows(os.path.join(out_dir, "archive.csv"), header, rows(archive.records))
    _write_rows(os.path.join(out_dir, "pareto.csv"), header, rows(archive.pareto))


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_from_manifest(manifest_path, out_dir) -> dict:
    """Replay a recorded run; output is byte-identical to the original."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError("unsupported manifest format")
    spec = spec_from_json(manifest["spec"])
    dataset_file = os.path.join(
        os.path.dirname(os.path.abspath(manifest_path)), manifest["dataset_file"]
    )
    override = load_dataset(dataset_file) if os.path.exists(dataset_file) else None
    summary = run_experiment(spec, out_dir, dataset_override=override)
    if summary["dataset_digest"] != manifest["dataset_digest"]:
        raise ValueError("replayed dataset digest does not match the manifest")
    return summary


def compare(report_a, report_b) -> dict:
    """Cross-report cost ratios and Pareto dominance counts.

    Both report directories must describe the same dataset; the ratio
    convention is cost_b / cost_a, so values above 1 mean report A found
    cheaper outcomes.
    """
    with open(os.path.join(report_a, "summary.json")) as fh:
        a = json.load(fh)
    with open(os.path.join(report_b, "summary.json")) as fh:
        b = json.load(fh)
    if a["dataset_digest"] != b["dataset_digest"]:
        raise ValueError("reports describe different datasets")

    shared = sorted(set(a["entries"]) & set(b["entries"]))
    per_entry = {}
    for name in shared:
        per_entry[name] = _ratio(b["entries"][name]["cost"], a["entries"][name]["cost"])
    best_a = min((e["cost"] for e in a["entries"].values()), default=None)
    best_b = min((e["cost"] for e in b["entries"].values()), default=None)
    headline = None
    if best_a is not None and best_b is not None:
        headline = _ratio(best_b, best_a)

    return {
        "dataset_digest": a["dataset_digest"],
        "entries": per_entry,
        "best_cost_a": best_a,
        "best_cost_b": best_b,
        "ratio_b_over_a": headline,
        "dominance": {
            "a_dominates_b": _dominance(_points(a), _points(b)),
            "b_dominates_a": _dominance(_points(b), _points(a)),
        },
    }


def _points(summary: dict) -> list:
    if summary.get("gp"):
        return [(p["n_d"], p["n_h"]) for p in summary["gp"]["pareto"]]
    return [(e["n_d"], e["n_h"]) for e in summary["entries"].values()]


def _dominance(winners, losers) -> int:
    """How many loser points are strictly dominated by some winner point."""
    count = 0
    for nd, nh in losers:
        if any(
            wd <= nd and wh <= nh and (wd < nd or wh < nh) for wd, wh in winners
        ):
            count += 1
    return count
