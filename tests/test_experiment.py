"""Report generation: file shapes, replay determinism, comparisons."""

import csv
import json
import os
from pathlib import Path

import pytest

from lockdownsched.allocation import round_robin
from lockdownsched.dataset import generate_dataset, load_dataset
from lockdownsched.experiment import (
    ExperimentSpec,
    compare,
    run_experiment,
    run_from_manifest,
    spec_from_json,
    spec_to_json,
)
from lockdownsched.simulator import simulate

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


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "run"
    spec = partial_spec()
    summary = run_experiment(spec, out)
    return spec, out, summary


class TestSpec:
    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            partial_spec(dataset_path="x.txt").validate()
        with pytest.raises(ValueError):
            partial_spec(generate_seed=None).validate()

    def test_model_params(self):
        with pytest.raises(ValueError):
            partial_spec(s=1).validate()
        with pytest.raises(ValueError):
            ExperimentSpec(model="full", generate_seed=1, q=None).validate()
        with pytest.raises(ValueError):
            partial_spec(baselines=("comp9",)).validate()
        with pytest.raises(ValueError, match="population"):
            partial_spec(population=2).validate()

    def test_json_round_trip(self):
        spec = partial_spec(pir_seeds=(3, 4), seed_len=10)
        again = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
        assert again == spec


class TestRunExperiment:
    def test_nonempty_out_dir_refused(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "stale.csv").write_text("leftover\n")
        with pytest.raises(ValueError, match="not empty"):
            run_experiment(partial_spec(), out)
        assert (out / "stale.csv").exists()

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
        isolated = {int(r[1]) for r in rows if r[0] == "isolated"}
        assert isolated == set().union(*outcome.isolated_by_day)

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
