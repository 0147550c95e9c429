"""End-to-end experiment runs and their on-disk reports.

A run takes one dataset (loaded or generated), scores the requested
round-robin baselines, optionally evolves visit plans, and writes a report
directory: CSV tables for baselines and the solution archive, per-solution
detail folders, a JSON summary, and a manifest holding every seed so the
whole run can be replayed bit-for-bit.  Nothing written here contains a
timestamp; byte-identical replays are part of the contract.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field, fields

from ._simcore import OUTCOME_ICU_DEATH, OUTCOME_ICU_RECOVERED
from .allocation import BASELINE_VARIANTS, decode, round_robin, write_plan_csv
from .dataset import (
    AGE_GROUPS,
    CELLS,
    DAY_LABELS,
    Dataset,
    check_apriori_fractions,
    check_priors,
    generate_dataset,
    load_dataset,
    mark_apriori_infection,
    priors_from_pairs,
    request_index,
    save_dataset,
)
from .full_infection import build_pn_table
from .gp_engine import Archive, GpConfig, dominates, run_pirs
from .simulator import MODEL_FULL, MODEL_PARTIAL, SimOutcome, fitness_value, simulate

AGE_BANDS = (("young", (20, 30)), ("middle", (40, 50, 60)), ("elderly", (70, 80)))
MANIFEST_FORMAT = 1

# "{day},{hours},{establishment}," of each occupancy.csv row, by cell number
_OCCUPANCY_PREFIXES = tuple(f"{day},{hours},{est}," for day, _, hours, est in CELLS)


@dataclass(frozen=True)
class ExperimentSpec(GpConfig):
    """Everything needed to reproduce one run, seeds included: the evolution
    settings of GpConfig plus the dataset, baseline and p_n table settings.
    Checked on construction, so a bad spec is refused before anything is
    written."""

    # required here; a bare annotation would keep GpConfig's default
    model: str = field()
    dataset_path: str | None = None
    generate_seed: int | None = None
    priors: dict = field(default_factory=dict)
    apriori_infected: float = 0.0
    apriori_immune: float = 0.0
    apriori_seed: int = 0
    baselines: tuple = BASELINE_VARIANTS
    pir_seeds: tuple = ()
    pn_iterations: int = 100_000
    pn_seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if (self.dataset_path is None) == (self.generate_seed is None):
            raise ValueError("exactly one dataset source must be given")
        check_priors(self.priors)
        check_apriori_fractions(self.apriori_infected, self.apriori_immune)
        # the fractional model never marks persons, so these would only be recorded
        if self.model == MODEL_PARTIAL and (self.apriori_infected or self.apriori_immune):
            raise ValueError("a-priori fractions apply to the full model only")
        for i, variant in enumerate(self.baselines):
            if variant not in BASELINE_VARIANTS:
                raise ValueError(f"unknown baseline {variant!r}")
            if variant in self.baselines[:i]:
                raise ValueError(f"baseline {variant!r} given twice")
        # a repeated seed would evolve the same PIR twice and rank it twice
        for i, seed in enumerate(self.pir_seeds):
            if seed in self.pir_seeds[:i]:
                raise ValueError(f"PIR seed {seed} given twice")
        if self.pn_iterations < 1:
            raise ValueError("pn_iterations must be at least 1")
        # these seed numpy, which refuses a negative seed without naming it;
        # PIR seeds seed random.Random, which takes any integer
        for name in ("generate_seed", "apriori_seed", "pn_seed"):
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must not be negative")
        # the fractional model builds no p_n table and marks no persons, so
        # these would only be recorded
        if self.model == MODEL_PARTIAL:
            defaults = {f.name: f.default for f in fields(self)}
            for name in ("q", "pn_iterations", "pn_seed", "apriori_seed"):
                if getattr(self, name) != defaults[name]:
                    raise ValueError(f"{name} applies to the full model only")
        # last, so the rules above name what they refuse
        _check_spec_types(spec_to_json(self))


def spec_to_json(spec: ExperimentSpec) -> dict:
    return {**asdict(spec), "priors": sorted(spec.priors.items())}


def _json_fits(value, kind: str) -> bool:
    """Whether a JSON value fits a spec field of kind "int", "float" or "str".
    A JSON int fits a float field; true and false fit none, and neither do
    NaN and the infinities, which strict JSON cannot hold."""
    allowed = {"int": int, "float": (int, float), "str": str}[kind]
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, allowed) and not isinstance(value, bool)


def _check_spec_types(doc: dict) -> None:
    """Refuse, by key, a spec value of a type the manifest could not record
    or spec_from_json would refuse.  The doc is spec_to_json's, whose
    sequences are tuples, or a manifest's, whose sequences are lists."""
    annotations = {f.name: f.type for f in fields(ExperimentSpec)}
    for key, value in doc.items():
        if not _spec_value_fits(key, annotations[key], value):
            raise ValueError(f"spec key {key!r} has a value of the wrong type")


def _spec_value_fits(key: str, annotation: str, value) -> bool:
    if key == "priors":  # [age, prior] pairs
        return isinstance(value, (list, tuple)) and all(
            isinstance(pair, (list, tuple)) and len(pair) == 2
            and _json_fits(pair[0], "int") and _json_fits(pair[1], "float")
            for pair in value
        )
    if key in ("baselines", "pir_seeds"):
        item = "str" if key == "baselines" else "int"
        return isinstance(value, (list, tuple)) and all(_json_fits(v, item) for v in value)
    kind, _, optional = annotation.partition(" | ")
    return (optional and value is None) or _json_fits(value, kind)


def spec_from_json(doc: dict) -> ExperimentSpec:
    unknown = sorted(set(doc) - {f.name for f in fields(ExperimentSpec)})
    if unknown:
        raise ValueError(f"unknown spec key {unknown[0]!r}")
    if "model" not in doc:
        raise ValueError("spec lacks the key 'model'")
    _check_spec_types(doc)
    # only priors, baselines and pir_seeds are lists; a key left out takes
    # the spec's default.  A prior keeps its JSON type: the dataset digest
    # writes 0 and 0.0 apart
    settings = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
    if "priors" in doc:
        settings["priors"] = priors_from_pairs(doc["priors"])
    return ExperimentSpec(**settings)


def _cost(fitness: float) -> float:
    return round(-fitness, 10) + 0.0


def _prepare_dataset(spec: ExperimentSpec, override: Dataset | None = None) -> tuple:
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
    if spec.apriori_infected or spec.apriori_immune:
        working = mark_apriori_infection(
            working, spec.apriori_infected, spec.apriori_immune, seed=spec.apriori_seed
        )
    return raw, working


def _age_band_weights(ds: Dataset) -> list:
    """(age group positions, their person counts, total) of each AGE_BANDS band."""
    counts = request_index(ds).age_count
    bands = []
    for _, ages in AGE_BANDS:
        idx = [AGE_GROUPS.index(a) for a in ages]
        weights = [counts[g] for g in idx]
        bands.append((idx, weights, sum(weights)))
    return bands


def _band_value(group_avgs, idx, weights, total) -> float:
    """Person-weighted mean of some age groups' averages.  The terms are
    added left to right, as sum() did before Python 3.12 compensated it, so
    the report's bytes do not depend on the Python version."""
    value = 0.0
    for g, w in zip(idx, weights):
        value += group_avgs[g] * w
    return value / total if total else 0.0


def _write_rows(path, header, rows) -> None:
    """A table in the bytes csv.writer's default dialect would write: no
    field of a report table holds a comma, a quote or a line break, so each
    row is its fields joined."""
    lines = [",".join(map(str, row)) + "\r\n" for row in (header, *rows)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def _infection_text(outcome: SimOutcome, pi: int) -> str:
    """A roster's infection column: the final level, or status and days."""
    if outcome.final_levels is not None:
        return repr(outcome.final_levels[pi])
    status, days = outcome.final_status[pi]
    return f"{status}{days}"


def _write_solution_detail(dirpath, ds, plan, outcome: SimOutcome) -> None:
    os.makedirs(dirpath, exist_ok=True)
    write_plan_csv(plan, ds, os.path.join(dirpath, "allocations.csv"))

    rows = [
        f"{prefix}{c}\r\n" for prefix, c in zip(_OCCUPANCY_PREFIXES, outcome.occupancy, strict=True)
    ]
    with open(os.path.join(dirpath, "occupancy.csv"), "w", newline="") as fh:
        fh.write("day,hours,establishment,attendees\r\n" + "".join(rows))

    if outcome.trajectory is not None:
        bands = _age_band_weights(ds)
        rows = []
        for i, group_avgs in enumerate(outcome.trajectory):
            day, checkpoint = divmod(i, 4)
            hour = 8 + 4 * (checkpoint + 1)
            cells = [repr(_band_value(group_avgs, *band)) for band in bands]
            rows.append((DAY_LABELS[day], hour, *cells))
        _write_rows(
            os.path.join(dirpath, "trajectory.csv"),
            ("day", "hour", "young", "middle", "elderly"),
            rows,
        )

    isolated = sorted(
        (day, person.id, person.age_group, pi)
        for pi, (person, day) in enumerate(zip(ds.persons, outcome.isolation_day))
        if day >= 0
    )
    roster_rows = [
        ("isolated", pid, age, DAY_LABELS[day], _infection_text(outcome, pi))
        for day, pid, age, pi in isolated
    ]
    for label in (OUTCOME_ICU_RECOVERED, OUTCOME_ICU_DEATH):
        for pi, person in enumerate(ds.persons):
            if outcome.classifications[pi] == label:
                roster_rows.append(
                    (label, person.id, person.age_group, "", _infection_text(outcome, pi))
                )
    _write_rows(
        os.path.join(dirpath, "rosters.csv"),
        ("category", "person", "age", "day", "infection"),
        roster_rows,
    )


def run_experiment(spec: ExperimentSpec, out_dir) -> dict:
    """Execute the run and write the report directory; returns the summary.

    The report is written into a hidden sibling of ``out_dir`` and renamed
    into place once the manifest is written, so an interrupted or failed run
    leaves ``out_dir`` as it was.
    """
    return _write_run(spec, *_prepare_dataset(spec), out_dir)


def _write_run(spec: ExperimentSpec, raw_ds, ds, out_dir) -> dict:
    """run_experiment on prepared datasets: raw as loaded, and working."""
    # Stale files from an earlier run would sit beside a fresh manifest and
    # make the tree lie about what was computed, so never write into one.
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise ValueError(f"output directory {out_dir} is not empty")
    target = os.path.realpath(out_dir)
    parent, name = os.path.split(target)
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=f".{name}.", dir=parent)
    try:
        # a plain mkdir inside the 0700 staging directory, so the report
        # gets the mode os.makedirs would give it
        report = os.path.join(staging, name)
        os.mkdir(report)
        summary = _write_report(spec, raw_ds, ds, report)
        os.rename(report, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return summary


def _write_report(spec: ExperimentSpec, raw_ds, ds, out_dir) -> dict:
    solutions_dir = os.path.join(out_dir, "solutions")

    table = None
    if spec.model == MODEL_FULL:
        table = build_pn_table(spec.q, spec.pn_iterations, seed=spec.pn_seed)

    baseline_rows = []
    entries = {}
    for variant in spec.baselines:
        plan = round_robin(ds, variant)
        outcome = simulate(ds, plan, spec.model, s=spec.s, table=table)
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
        archive = run_pirs(ds, spec, spec.pir_seeds, table=table)
        _write_archive(out_dir, archive)
        for rank, rec in enumerate(archive.pareto, start=1):
            plan = decode(rec.vector, ds)
            outcome = simulate(ds, plan, spec.model, s=spec.s, table=table)
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
    best = min((e["cost"] for e in entries.values()), default=None)
    return {name: _ratio(e["cost"], best) for name, e in entries.items() if name != "gp_best"}


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


def _read_json(path):
    """The document in a JSON file; a file that does not parse is refused by name."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValueError(f"{path} is not JSON: {exc}") from None


def run_from_manifest(manifest_path, out_dir) -> dict:
    """Replay a recorded run; output is byte-identical to the original."""
    manifest = _read_json(manifest_path)
    # true and 1.0 equal 1 in Python, but neither is a format number
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if not (_json_fits(fmt, "int") and fmt == MANIFEST_FORMAT):
        raise ValueError("unsupported manifest format")
    for key, kind in (("spec", dict), ("dataset_file", str), ("dataset_digest", str)):
        if not isinstance(manifest.get(key), kind):
            raise ValueError(f"manifest key {key!r} is missing or of the wrong type")
    spec = spec_from_json(manifest["spec"])
    dataset_file = os.path.join(
        os.path.dirname(os.path.abspath(manifest_path)), manifest["dataset_file"]
    )
    override = load_dataset(dataset_file) if os.path.exists(dataset_file) else None
    raw_ds, ds = _prepare_dataset(spec, override)
    # checked before anything is staged, so a mismatch leaves no report
    if ds.digest() != manifest["dataset_digest"]:
        raise ValueError("replayed dataset digest does not match the manifest")
    return _write_run(spec, raw_ds, ds, out_dir)


def compare(report_a, report_b) -> dict:
    """Cross-report cost ratios and Pareto dominance counts.

    Both report directories must describe the same dataset; the ratio
    convention is cost_b / cost_a, so values above 1 mean report A found
    cheaper outcomes.
    """
    digest, costs_a, points_a = _read_summary(report_a)
    digest_b, costs_b, points_b = _read_summary(report_b)
    if digest != digest_b:
        raise ValueError("reports describe different datasets")

    shared = sorted(set(costs_a) & set(costs_b))
    best_a = min(costs_a.values(), default=None)
    best_b = min(costs_b.values(), default=None)
    headline = None
    if best_a is not None and best_b is not None:
        headline = _ratio(best_b, best_a)

    return {
        "dataset_digest": digest,
        "entries": {name: _ratio(costs_b[name], costs_a[name]) for name in shared},
        "best_cost_a": best_a,
        "best_cost_b": best_b,
        "ratio_b_over_a": headline,
        "dominance": {
            "a_dominates_b": _dominance(points_a, points_b),
            "b_dominates_a": _dominance(points_b, points_a),
        },
    }


def _read_summary(report) -> tuple:
    """(dataset digest, cost by entry name, (N_D, N_H) points) of a report's
    summary.json; the points are the GP front's if it has one, else the
    entries'.  A missing or mistyped value is refused by file, entry and key."""
    path = os.path.join(report, "summary.json")
    summary = _read_json(path)
    for key, kind in (("dataset_digest", str), ("entries", dict)):
        if not isinstance(summary, dict) or not isinstance(summary.get(key), kind):
            raise ValueError(f"{path} key {key!r} is missing or of the wrong type")
    gp = summary.get("gp")
    if gp is not None and not (isinstance(gp, dict) and isinstance(gp.get("pareto"), list)):
        raise ValueError(f"{path} key 'gp' is neither null nor an object with a 'pareto' list")

    def numbers(where, point, keys) -> tuple:
        values = tuple(point.get(key) if isinstance(point, dict) else None for key in keys)
        for key, value in zip(keys, values):
            if not _json_fits(value, "float"):
                raise ValueError(f"{path} {where} key {key!r} is missing or not a number")
        return values

    entries = {name: numbers(f"entry {name!r}", e, ("cost", "n_d", "n_h"))
               for name, e in summary["entries"].items()}
    points = [values[1:] for values in entries.values()]
    if gp is not None:
        points = [numbers(f"gp pareto point {k}", p, ("n_d", "n_h"))
                  for k, p in enumerate(gp["pareto"])]
    return summary["dataset_digest"], {name: v[0] for name, v in entries.items()}, points


def _dominance(winners, losers) -> int:
    """How many loser points are strictly dominated by some winner point."""
    return sum(any(dominates(w, loser) for w in winners) for loser in losers)
