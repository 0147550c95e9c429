"""Report generation: file shapes, replay determinism, comparisons."""

import csv
import hashlib
import json
import os
import random
import stat
from dataclasses import fields
from pathlib import Path

import pytest

from lockdownsched import experiment
from lockdownsched.allocation import round_robin
from lockdownsched.dataset import (
    AGE_GROUPS,
    N_DAYS,
    N_ESTABLISHMENTS,
    N_SLOTS,
    establishment_label,
    generate_dataset,
    load_dataset,
    parse_dataset,
    slot_label,
)
from lockdownsched.experiment import (
    ExperimentSpec,
    compare,
    run_experiment,
    run_from_manifest,
    spec_from_json,
    spec_to_json,
)
from lockdownsched.gp_engine import GpConfig
from lockdownsched.simulator import SimOutcome, simulate

PRIORS = {20: 0.01, 40: 0.03, 50: 0.02}


def partial_spec(**over):
    base = dict(
        model="partial",
        generate_seed=777,
        s=4,
        priors=dict(PRIORS),
        pir_seeds=(1,),
        population=30,
        budget=200,
    )
    base.update(over)
    return ExperimentSpec(**base)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def tree_bytes(root):
    """{relative path: bytes} for every file under root."""
    return {
        os.path.relpath(os.path.join(d, f), root): Path(d, f).read_bytes()
        for d, _, files in os.walk(root)
        for f in files
    }


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "run"
    spec = partial_spec()
    summary = run_experiment(spec, out)
    return spec, out, summary


class TestSpec:
    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            partial_spec(dataset_path="x.txt")
        with pytest.raises(ValueError):
            partial_spec(generate_seed=None)

    def test_model_params(self):
        with pytest.raises(ValueError):
            partial_spec(s=1)
        with pytest.raises(ValueError):
            ExperimentSpec(model="full", generate_seed=1, q=None)
        with pytest.raises(ValueError):
            partial_spec(baselines=("comp9",))
        with pytest.raises(ValueError, match="baseline 'comp1' given twice"):
            partial_spec(baselines=("comp1", "comp3", "comp1"))
        with pytest.raises(ValueError, match="population"):
            partial_spec(population=2)

    @pytest.mark.parametrize(
        "priors, message",
        [
            ({20: 1.5, 25: 0.3}, "prior 1.5 outside"),
            ({25: 0.3}, "age 25 not one of"),
            ({20: -0.1}, "outside"),
            ({20: float("nan")}, "outside"),
        ],
    )
    def test_priors_are_checked(self, priors, message):
        with pytest.raises(ValueError, match=message):
            partial_spec(priors=priors)

    def test_one_declaration_per_setting(self):
        assert issubclass(ExperimentSpec, GpConfig)
        # the spec redeclares only model, which it requires
        own = set(ExperimentSpec.__annotations__)
        assert own & {f.name for f in fields(GpConfig)} == {"model"}
        with pytest.raises(TypeError):
            ExperimentSpec(generate_seed=1)

    def test_json_missing_keys_take_the_spec_defaults(self):
        spec = spec_from_json({"model": "partial", "generate_seed": 1})
        assert spec == ExperimentSpec(model="partial", generate_seed=1)
        assert spec.baselines == ("comp1", "comp2", "comp3")

    @pytest.mark.parametrize("key", ["apriori_infected", "apriori_immune"])
    def test_apriori_fractions_need_the_full_model(self, key):
        # the fractional model never marks persons, so they would only be recorded
        with pytest.raises(ValueError, match="fractions apply to the full model"):
            ExperimentSpec(model="partial", generate_seed=3, **{key: 0.2})
        ExperimentSpec(model="full", generate_seed=3, q=4, **{key: 0.2})

    def test_json_round_trip(self):
        spec = partial_spec(pir_seeds=(3, 4), seed_len=10)
        again = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
        assert again == spec

    @pytest.mark.parametrize(
        "key, value",
        [
            ("population", "500"),
            ("s", True),
            ("model", 5),
            ("w_c", "0.65"),
            ("generate_seed", 7.5),
            ("priors", 5),
            ("priors", [[20, "0.01"]]),
            ("priors", [[20, 0.01, 1]]),
            ("baselines", "comp1"),
            ("pir_seeds", [1.5]),
        ],
    )
    def test_json_value_of_the_wrong_type(self, key, value):
        doc = {**json.loads(json.dumps(spec_to_json(partial_spec()))), key: value}
        with pytest.raises(ValueError, match=f"'{key}'"):
            spec_from_json(doc)

    def test_json_int_fits_a_float_field(self):
        doc = {**json.loads(json.dumps(spec_to_json(partial_spec()))), "w_c": 1}
        doc["priors"] = [[20, 0]]
        spec = spec_from_json(doc)
        assert spec.w_c == 1 and spec.priors == {20: 0.0}


class TestRunExperiment:
    def test_nonempty_out_dir_refused(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "stale.csv").write_text("leftover\n")
        with pytest.raises(ValueError, match="not empty"):
            run_experiment(partial_spec(), out)
        assert (out / "stale.csv").exists()

    @pytest.mark.parametrize("precreated", [False, True])
    def test_interrupted_run_leaves_nothing(
        self, report, tmp_path, monkeypatch, precreated
    ):
        _, clean, _ = report
        out = tmp_path / "run"
        if precreated:
            out.mkdir()

        def interrupted(*args, **kwargs):
            # evolution starts after the baselines and their details are out
            assert list(tmp_path.rglob("baselines.csv"))
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "run_pirs", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(partial_spec(), out)
        # no half report and no staging sibling
        assert os.listdir(tmp_path) == (["run"] if precreated else [])
        assert not out.exists() or os.listdir(out) == []

        monkeypatch.undo()
        run_experiment(partial_spec(), out)
        assert tree_bytes(out) == tree_bytes(clean)
        assert os.listdir(tmp_path) == ["run"]
        fresh = tmp_path / "fresh"
        os.makedirs(fresh)
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(fresh.stat().st_mode)

    def test_report_files(self, report):
        _, out, _ = report
        for name in (
            "baselines.csv", "archive.csv", "pareto.csv",
            "summary.json", "manifest.json", "dataset.txt",
        ):
            assert (out / name).exists()
        assert (out / "solutions" / "comp3" / "allocations.csv").exists()
        assert (out / "solutions" / "pareto_01" / "vector.txt").exists()

    def test_baseline_rows_satisfy_cost_identity(self, report):
        _, out, summary = report
        rows = read_csv(out / "baselines.csv")
        assert rows[0] == ["variant", "n_hospitalized", "n_dead", "cost"]
        assert [r[0] for r in rows[1:]] == ["comp1", "comp2", "comp3"]
        for variant, n_h, n_d, cost in rows[1:]:
            expected = round(0.35 * int(n_h) + 0.65 * int(n_d), 10)
            assert float(cost) == expected
            assert summary["entries"][variant]["cost"] == expected

    def test_baselines_match_direct_simulation(self, report):
        spec, out, summary = report
        ds = load_dataset(out / "dataset.txt").with_taxonomy(spec.priors)
        for variant in ("comp1", "comp2", "comp3"):
            outcome = simulate(ds, round_robin(ds, variant), "partial", s=4)
            entry = summary["entries"][variant]
            assert (entry["n_h"], entry["n_d"]) == outcome.counts()

    def test_archive_ranked_by_cost(self, report):
        _, out, _ = report
        rows = read_csv(out / "archive.csv")[1:]
        costs = [float(r[6]) for r in rows]
        assert costs == sorted(costs)
        fits = [float(r[3]) for r in rows]
        for cost, fit in zip(costs, fits):
            assert cost == round(-fit, 10) + 0.0

    def test_occupancy_grid_complete(self, report):
        _, out, _ = report
        rows = read_csv(out / "solutions" / "comp1" / "occupancy.csv")
        assert len(rows) == 1 + 3 * 8 * 12
        assert rows[1][:3] == ["MON", "8-10 HOURS", "SUPERMARKET 1"]

    def test_trajectory_bands(self, report):
        spec, out, _ = report
        rows = read_csv(out / "solutions" / "comp2" / "trajectory.csv")
        assert rows[0] == ["day", "hour", "young", "middle", "elderly"]
        assert len(rows) == 13
        assert [r[0] for r in rows[1:5]] == ["MON"] * 4
        assert [r[1] for r in rows[1:5]] == ["12", "16", "20", "24"]
        ds = load_dataset(out / "dataset.txt").with_taxonomy(spec.priors)
        outcome = simulate(ds, round_robin(ds, "comp2"), "partial", s=4)
        young_ids = [p for p in ds.persons if p.age_group in (20, 30)]
        final_young = [
            outcome.final_levels[i]
            for i, p in enumerate(ds.persons)
            if p.age_group in (20, 30)
        ]
        expected = sum(final_young) / len(young_ids)
        assert float(rows[-1][2]) == pytest.approx(expected, abs=1e-12)

    def test_rosters_match_classifications(self, report):
        spec, out, _ = report
        ds = load_dataset(out / "dataset.txt").with_taxonomy(spec.priors)
        outcome = simulate(ds, round_robin(ds, "comp1"), "partial", s=4)
        rows = read_csv(out / "solutions" / "comp1" / "rosters.csv")[1:]
        dead = {int(r[1]) for r in rows if r[0] == "icu_death"}
        expected_dead = {
            p.id
            for i, p in enumerate(ds.persons)
            if outcome.classifications[i] == "icu_death"
        }
        assert dead == expected_dead
        # one row per person who isolated, on the day they did, day by day
        # in person id order
        isolated = [
            (experiment.DAY_LABELS.index(r[3]), int(r[1])) for r in rows if r[0] == "isolated"
        ]
        assert isolated and isolated == sorted(
            (day, p.id) for p, day in zip(ds.persons, outcome.isolation_day) if day >= 0
        )

    def test_manifest_carries_all_seeds_and_no_timestamps(self, report):
        spec, out, _ = report
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec"]["generate_seed"] == 777
        assert manifest["spec"]["pir_seeds"] == [1]
        assert manifest["spec"]["pn_seed"] == 0
        assert "time" not in json.dumps(manifest).lower()

    def test_full_model_report(self, tmp_path):
        spec = ExperimentSpec(
            model="full",
            generate_seed=777,
            q=5,
            apriori_infected=0.053,
            apriori_immune=0.021,
            apriori_seed=777,
            pir_seeds=(1,),
            population=30,
            budget=150,
            pn_iterations=20_000,
        )
        summary = run_experiment(spec, tmp_path / "full")
        assert set(summary["entries"]) == {"comp1", "comp2", "comp3", "gp_best"}
        rosters = read_csv(tmp_path / "full" / "solutions" / "comp1" / "rosters.csv")
        assert rosters[0] == ["category", "person", "age", "day", "infection"]
        assert not (tmp_path / "full" / "solutions" / "comp1" / "trajectory.csv").exists()


def test_trajectory_bands_add_left_to_right(tmp_path):
    """A band value adds its terms in order, as sum() did before Python 3.12
    compensated it, so a report replays byte for byte on every version."""
    # one person per age group, so every weight is 1 and the middle band
    # (40, 50, 60) adds 1e16 + 1.0 - 1e16: 0.0 in order, 1.0 compensated
    ds = parse_dataset("\n".join(f"{i} {age} 9.0 0 MF1" for i, age in enumerate(AGE_GROUPS)))
    averages = (0.25, 0.5, 1e16, 1.0, -1e16, 0.125, 0.0)
    n = len(ds.persons)
    outcome = SimOutcome(
        n_hospitalized=0,
        n_dead=0,
        isolation_day=(-1,) * n,
        classifications=("none",) * n,
        final_levels=(0.0,) * n,
        final_status=None,
        trajectory=(averages,) * 12,
        occupancy=(0,) * (N_DAYS * N_SLOTS * N_ESTABLISHMENTS),
    )
    experiment._write_solution_detail(tmp_path, ds, round_robin(ds, "comp1"), outcome)
    expected = []
    for ages in ((20, 30), (40, 50, 60), (70, 80)):
        value = 0.0
        for age in ages:
            value += averages[AGE_GROUPS.index(age)] * 1
        expected.append(repr(value / len(ages)))
    assert expected[1] == "0.0"
    rows = read_csv(tmp_path / "trajectory.csv")
    assert [row[2:] for row in rows[1:]] == [expected] * 12


def _write_occupancy_loop(outcome, path):
    """The csv.writer loop occupancy.csv was written with: the oracle.  It
    takes the counts in day, slot, establishment order."""
    counts = iter(outcome.occupancy)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("day", "hours", "establishment", "attendees"))
        for day in range(N_DAYS):
            for slot in range(N_SLOTS):
                for est in range(N_ESTABLISHMENTS):
                    writer.writerow((
                        experiment.DAY_LABELS[day], slot_label(slot),
                        establishment_label(est), next(counts),
                    ))
    assert next(counts, None) is None


def _outcome_with_occupancy(ds, occupancy):
    n = len(ds.persons)
    return SimOutcome(
        n_hospitalized=0,
        n_dead=0,
        isolation_day=(-1,) * n,
        classifications=("none",) * n,
        final_levels=None,
        final_status=(("S", 0),) * n,
        trajectory=None,
        occupancy=occupancy,
    )


def test_occupancy_csv_matches_the_loop(tmp_path):
    ds = parse_dataset("4 20 9.0 0 MF1 | AD2 | NS1\n2 70 3.0 0 PC2")
    plan = round_robin(ds, "comp1")
    rng = random.Random(5)
    grids = [
        tuple(draw() for _ in range(N_DAYS * N_SLOTS * N_ESTABLISHMENTS))
        for draw in (
            lambda: 0,
            lambda: rng.choice([0, 7, 10, 99, 123, 4567, 10**12]),
            lambda: rng.randrange(100_000),
        )
    ]
    # counts of 0 and of one to thirteen digits, then a simulated week's grid
    assert {0, 7, 4567, 10**12} <= set(grids[1])
    grids.append(simulate(ds, plan, "partial", s=4).occupancy)
    for grid in grids:
        outcome = _outcome_with_occupancy(ds, grid)
        experiment._write_solution_detail(tmp_path / "new", ds, plan, outcome)
        _write_occupancy_loop(outcome, tmp_path / "old.csv")
        new = (tmp_path / "new" / "occupancy.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()


def _write_rows_loop(path, header, rows):
    """The csv.writer loop the small report tables were written with: the oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.mark.parametrize(
    "spec",
    [
        partial_spec(pir_seeds=(-3, 1)),
        ExperimentSpec(
            model="full", generate_seed=777, q=10, apriori_infected=0.3,
            apriori_immune=0.021, apriori_seed=777, pir_seeds=(-3, 1),
            population=30, budget=150, pn_iterations=20_000,
        ),
    ],
    ids=["fractional", "standard"],
)
def test_small_tables_match_the_csv_writer(tmp_path, monkeypatch, spec):
    run_experiment(spec, tmp_path / "new")
    monkeypatch.setattr(experiment, "_write_rows", _write_rows_loop)
    run_experiment(spec, tmp_path / "old")
    new, old = tree_bytes(tmp_path / "new"), tree_bytes(tmp_path / "old")
    assert new == old
    tables = {os.path.basename(rel) for rel in new if rel.endswith(".csv")}
    assert {"baselines.csv", "archive.csv", "pareto.csv", "rosters.csv"} <= tables
    assert ("trajectory.csv" in tables) == (spec.model == "partial")
    # a negative run seed, and ICU roster rows, whose day field is empty
    assert {row[2] for row in read_csv(tmp_path / "new" / "archive.csv")[1:]} >= {"-3"}
    rosters = [row for rel in new if rel.endswith("rosters.csv")
               for row in read_csv(tmp_path / "new" / rel)[1:]]
    assert any(row[0] != "isolated" and row[3] == "" for row in rosters)


class TestReplay:
    def test_replay_is_byte_identical(self, report, tmp_path):
        _, out, _ = report
        first = tmp_path / "first"
        second = tmp_path / "second"
        run_from_manifest(out / "manifest.json", first)
        run_from_manifest(out / "manifest.json", second)
        names = sorted(
            os.path.join(root, f)
            for root, _, files in os.walk(out)
            for f in files
        )
        assert names
        for path in names:
            rel = os.path.relpath(path, out)
            original = Path(path).read_bytes()
            assert (first / rel).read_bytes() == original
            assert (second / rel).read_bytes() == original

    def test_replay_uses_bundled_dataset(self, report, tmp_path):
        _, out, _ = report
        moved = tmp_path / "moved"
        moved.mkdir()
        (moved / "manifest.json").write_bytes((out / "manifest.json").read_bytes())
        (moved / "dataset.txt").write_bytes((out / "dataset.txt").read_bytes())
        summary = run_from_manifest(moved / "manifest.json", tmp_path / "re")
        assert summary["dataset_digest"] == json.loads(
            (out / "summary.json").read_text()
        )["dataset_digest"]

    def test_replay_from_the_manifest_alone(self, report, tmp_path):
        # a generated dataset is generated again from its recorded seed
        _, out, _ = report
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / "manifest.json").write_bytes((out / "manifest.json").read_bytes())
        run_from_manifest(alone / "manifest.json", tmp_path / "re")
        assert tree_bytes(tmp_path / "re") == tree_bytes(out)

    def test_changed_dataset_writes_nothing(self, report, tmp_path):
        _, out, _ = report
        moved = tmp_path / "moved"
        moved.mkdir()
        (moved / "manifest.json").write_bytes((out / "manifest.json").read_bytes())
        # person 0 gets another health level; the file still parses
        first, rest = (out / "dataset.txt").read_text().split("\n", 1)
        pid, age, health, tail = first.split(" ", 3)
        first = " ".join((pid, age, repr(float(health) - 1.0), tail))
        (moved / "dataset.txt").write_text(first + "\n" + rest)
        with pytest.raises(ValueError, match="digest"):
            run_from_manifest(moved / "manifest.json", tmp_path / "b")
        # neither the report nor a hidden staging sibling
        assert os.listdir(tmp_path) == ["moved"]


class TestCompare:
    def test_identical_reports(self, report, tmp_path):
        _, out, _ = report
        again = tmp_path / "again"
        run_from_manifest(out / "manifest.json", again)
        result = compare(out, again)
        assert result["ratio_b_over_a"] == 1.0
        assert all(r == 1.0 for r in result["entries"].values())
        assert result["dominance"] == {"a_dominates_b": 0, "b_dominates_a": 0}

    def test_digest_mismatch_rejected(self, report, tmp_path):
        _, out, _ = report
        other = tmp_path / "other"
        run_experiment(partial_spec(generate_seed=778, pir_seeds=()), other)
        with pytest.raises(ValueError):
            compare(out, other)

    def test_ratio_example(self, tmp_path):
        # a solution costing 7.70 against a baseline at 30.35 is ~3.9x better
        def fake(dirname, entries):
            d = tmp_path / dirname
            d.mkdir()
            (d / "summary.json").write_text(
                json.dumps({"dataset_digest": "x", "entries": entries, "gp": None})
            )
            return d
        a = fake("a", {"gp_best": {"n_h": 9, "n_d": 7, "cost": 7.70}})
        b = fake("b", {"comp3": {"n_h": 44, "n_d": 23, "cost": 30.35}})
        result = compare(a, b)
        assert result["ratio_b_over_a"] == pytest.approx(3.94, abs=0.01)
        assert result["dominance"]["a_dominates_b"] == 1


# sha256 of every file of two small reports, taken on Python 3.11 with numpy
# 2.4: the criterion-7 fractional run with GP, and a standard-model run with
# GP and a-priori marking.  The CI legs on the other Python versions check
# that report bytes do not depend on the interpreter.
PINNED_FRACTIONAL = {
    "archive.csv":
        "6da9f957ba1bb07d5401582a7bea81d6cc6e36c25944586ad633184f900e6215",
    "baselines.csv":
        "b32a48185c4457f6110817f83e527ab787cb87f779610fe0ff03f3dadc926160",
    "dataset.txt":
        "38d8195872ac02b1332593702a29472b15c82f2ead71878f6a95ad5a918b2584",
    "manifest.json":
        "d58d100a18935a29f7f819e117468f75647aa775f78339e502317c0c61f84619",
    "pareto.csv":
        "e16fe30cfd728efc0a71579e57a54590ad0a15ffce9287c263b4ccb54741e7cf",
    "solutions/comp1/allocations.csv":
        "23f943e92022b10e782f342da59db77cc9de42432456a282fb246e7ab4fd40ad",
    "solutions/comp1/occupancy.csv":
        "973a23bf4cde58ea94493305e5296e7ff3bd5080b3fc4e891f612ecf5662833b",
    "solutions/comp1/rosters.csv":
        "fa4ba4b8068af2e58e9e2e20f0232e9618f21a62fabd5f71ecf814e5a2ea7a54",
    "solutions/comp1/trajectory.csv":
        "b21668f3a400197bf2ccb8c88adc864e3118bd26d6b04f274b5791d2a70080dd",
    "solutions/comp2/allocations.csv":
        "e89e4ceb168e67151a741090559498d687734b199fa1c735d1f80602e852da77",
    "solutions/comp2/occupancy.csv":
        "265a5065873710602853107d9d052e29abfda8aa412ea128500dda6b52d9fa88",
    "solutions/comp2/rosters.csv":
        "77a584ef8f0456727366832dc9f58ec610b868b90dd62c16dfeed5faea9068c4",
    "solutions/comp2/trajectory.csv":
        "8284b8442de473c095f45d88b206528dfeb3fc4e87bb87f1b02e2b55a1d4be89",
    "solutions/comp3/allocations.csv":
        "1fb38b2926f1168edd700e137211a909c1a8d747907346b6cde5bf6f4fdd2ed3",
    "solutions/comp3/occupancy.csv":
        "2e6b330991603a766a8bb942fcc0be90e1e7262c725cfa7c16a3d3f858cf9258",
    "solutions/comp3/rosters.csv":
        "c0f1889e1846abe7e2f5873a0c8cfc37b6db997fa3abee4cd973624f4244530e",
    "solutions/comp3/trajectory.csv":
        "cf26a2678aa300dfc920daea277bf15680247453cfbf32f53be86f7aec76d8b8",
    "solutions/pareto_01/allocations.csv":
        "55afff3187f67f10adf26e9156bf4b75ee9fca94dafb3fc47835ae15948e3d4d",
    "solutions/pareto_01/occupancy.csv":
        "e42540c5280c0fda73d6ea8629b10093deceaedc992c1ef9af6292987ad77eed",
    "solutions/pareto_01/rosters.csv":
        "3b77c8797dc62e332d30052e448d6d07c268605ef8a60f47ead7b920b144875b",
    "solutions/pareto_01/trajectory.csv":
        "3d24f1ead701371f6f9cb2245c5597adf67c7eae9eb89b5643685c8c50d2f714",
    "solutions/pareto_01/vector.txt":
        "0e4cf2b294a97acd0d6b19f5c708d541e56abcc547c5e1f412cdbebdf543de72",
    "summary.json":
        "eb392f95f3053cd1cb249ed655825d1eaf2f5c2d404ea629bce8ec10e6b8b34d",
}
PINNED_STANDARD = {
    "archive.csv":
        "91cd8ea565636edb7b6b8569aa4d6558325621c20347a52f1a9a80925cf74941",
    "baselines.csv":
        "e321eea2d8462d65412b97c697981ac9634be3f05834e79b767b9be7b2304381",
    "dataset.txt":
        "6ae6a206d04d9cf126982f2490bc2e52f05824d1db75d11e172c9d27e617a2b7",
    "manifest.json":
        "e45e30c5be52d69610e1695f97483f006e0e4b4f27326d4dea69a59bcdf68c9a",
    "pareto.csv":
        "22eac77ab0010a1b690e197de9a0482076432aca8e12a585fc8e29e8d03b1c78",
    "solutions/comp1/allocations.csv":
        "8748a25b2f65a27bb8ea14c4e6858f7c70eeeb68dcbfd54c1223c40dae409ed9",
    "solutions/comp1/occupancy.csv":
        "fde5027d071ec372cd2ef262bf62a7e118865b3e8b5723d8bf69374d9642d95f",
    "solutions/comp1/rosters.csv":
        "ec9220f4ec2e89bfdae908d2cda088878d961d67f446a2d7ac5c024daf6a227a",
    "solutions/comp2/allocations.csv":
        "3b55e1481dc7c2c58e5d1e29b582f4838ea478f6439af5d8160b77b21dc205a8",
    "solutions/comp2/occupancy.csv":
        "5e1757a27add47e3b9a1fed7a782ad95a8ba8dd02d6373ccf2b61d40a2ef7e46",
    "solutions/comp2/rosters.csv":
        "a54e6f6539d2f81669a531c12a76097f11c985357419ce4e8a7339f49e7c35bc",
    "solutions/comp3/allocations.csv":
        "64eff0d857875692b88e6b8d73ea9fab71d070a3549984df22dd16751e20096e",
    "solutions/comp3/occupancy.csv":
        "08fd16ddf3909db2a7c43ebd9a702d60561f1dfcd8847582c9eeb60b90ddc6fd",
    "solutions/comp3/rosters.csv":
        "b0de6f2767e78bbd8b0ff39e0b918dc42059b80e76f52bde16e40a1a3e198f61",
    "solutions/pareto_01/allocations.csv":
        "575efadb4034ff3c1780fe91b1dee841f2b026487f6974c29176753a5e536a18",
    "solutions/pareto_01/occupancy.csv":
        "0be0ef445052bba7d218db59e22f6f8efc4c2d2212edd88635859827b16bc4ae",
    "solutions/pareto_01/rosters.csv":
        "833be34b242385b7129cfc44ad2d6b802bfb2e744f492c8f8973deafdfc044b5",
    "solutions/pareto_01/vector.txt":
        "d2daa3e91da3cd8559080bbd45c953cd41563fab4270729aacd52f9901bf43fa",
    "solutions/pareto_02/allocations.csv":
        "11f48edd340994d74b6eca2640d92d63bf3f9eabc013f1e9605d9ee9fae48c98",
    "solutions/pareto_02/occupancy.csv":
        "af4863533bb9e0a6e6e8dbe6657c4540aac939d60caeeee1437bb3c950246884",
    "solutions/pareto_02/rosters.csv":
        "e9453ab04a667ecc001aa765c1a29bc0f0088e99ad4f6a9fe1b58ff078ce199d",
    "solutions/pareto_02/vector.txt":
        "617f91e014989a02f717fba50392ecdd5df5ab9a76208048d2cc81aefc26f0bd",
    "solutions/pareto_03/allocations.csv":
        "4e9dad63406de67a7e9ad10c761fa11cb65f4cf050e1a5ae58a18104622c1fd0",
    "solutions/pareto_03/occupancy.csv":
        "37065b4ea8295c22fa1fc09bb8f97064342ea0058f80cc2165a7b06693ae3be0",
    "solutions/pareto_03/rosters.csv":
        "041a7094273e485e850699c62ee13773c0eb6d0d4b64f86df8c20e37997ded9d",
    "solutions/pareto_03/vector.txt":
        "0cbab47510653653beb6251939682e54e7faf9e489100f197d8ce96385694dbd",
    "summary.json":
        "772fedbe2a0100f1d00989e88f7bd22b9947964cc77aa615e5e239f75175a282",
}



def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize(
    "spec, expected",
    [
        (
            dict(
                model="partial", generate_seed=12345, s=4, priors=dict(PRIORS),
                pir_seeds=(1, 2), population=60, budget=2_000,
            ),
            PINNED_FRACTIONAL,
        ),
        (
            dict(
                model="full", generate_seed=777, s=None, q=10,
                apriori_infected=0.3, apriori_immune=0.021, apriori_seed=777,
                pir_seeds=(1, 2), population=30, budget=200, pn_iterations=20_000,
            ),
            PINNED_STANDARD,
        ),
    ],
    ids=["fractional", "standard"],
)
def test_report_bytes_are_pinned(tmp_path, spec, expected):
    run_experiment(ExperimentSpec(**spec), tmp_path / "r")
    files = tree_bytes(tmp_path / "r")
    got = {
        rel.replace(os.sep, "/"): hashlib.sha256(data).hexdigest()
        for rel, data in files.items()
    }
    assert got == expected
    # every JSON document of a report parses strictly: no NaN or Infinity
    for rel, data in files.items():
        if rel.endswith(".json"):
            json.loads(data, parse_constant=_refuse_constant)
