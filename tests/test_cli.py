"""Command-line behaviour: flags, exit codes, report wiring."""

import json
from dataclasses import fields

import pytest

from lockdownsched.cli import _spec_from_args, build_parser, main
from lockdownsched.experiment import ExperimentSpec


def run_args(out, extra=()):
    return [
        "run",
        "--generate", "777",
        "--model", "partial",
        "--s", "4",
        "--priors", "20=0.01;40=0.03;50=0.02",
        "--pirs", "1",
        "--pop", "30",
        "--budget", "200",
        "--out", str(out),
        *extra,
    ]


def _with_entry(name, value):
    """A summary.json damage: entries[name] set to value."""
    return lambda s: {**s, "entries": {**s["entries"], name: value}}


class TestRun:
    def test_every_flag_is_a_spec_field(self):
        # _spec_from_args passes parsed values on by name, so a flag whose
        # dest is not a field would be dropped silently
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        run = sub.choices["run"]
        dests = {a.dest for a in run._actions if a.dest != "help"}
        names = {f.name for f in fields(ExperimentSpec)}
        assert dests - names == {"out", "pirs", "seed_list"}
        assert names - dests == {"pir_seeds"}

    @pytest.mark.parametrize(
        "flags, spec",
        [
            (["--model", "partial"], ExperimentSpec(model="partial", generate_seed=5)),
            (["--model", "full", "--q", "4"],
             ExperimentSpec(model="full", q=4, generate_seed=5)),
        ],
        ids=["partial", "full"],
    )
    def test_defaults_are_the_spec_defaults(self, flags, spec):
        args = build_parser().parse_args(["run", "--generate", "5", *flags, "--out", "r"])
        assert _spec_from_args(args) == spec

    def test_exit_zero_and_report(self, tmp_path, capsys):
        assert main(run_args(tmp_path / "r")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["model"] == "partial"
        assert "gp_best" in summary["entries"]
        assert (tmp_path / "r" / "manifest.json").exists()

    def test_seed_list_overrides_pirs(self, tmp_path, capsys):
        assert main(run_args(tmp_path / "r", ["--seed-list", "9,10"])) == 0
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["spec"]["pir_seeds"] == [9, 10]

    def test_baselines_subset(self, tmp_path, capsys):
        args = run_args(tmp_path / "r", ["--baselines", "comp3"])
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary["entries"]) == {"comp3", "gp_best"}

    def test_baselines_tolerate_spaces(self, tmp_path, capsys):
        args = ["run", "--generate", "3", "--model", "partial",
                "--baselines", " comp1, comp3 ,", "--out", str(tmp_path / "r")]
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary["entries"]) == {"comp1", "comp3"}

    def test_bad_seed_list_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(run_args(out, ["--seed-list", "1,x"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad --seed-list '1,x', expected integers")
        assert not out.exists()

    def test_repeated_baseline_writes_nothing(self, tmp_path, capsys):
        # a repeated variant would be simulated and listed twice in baselines.csv
        args = ["run", "--generate", "3", "--model", "partial",
                "--baselines", "comp1,comp1", "--out", str(tmp_path / "r")]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: baseline 'comp1' given twice")
        assert not list(tmp_path.iterdir())

    def test_source_flags_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(run_args(tmp_path / "r", ["--dataset", "also.txt"]))

    def test_full_model_flags(self, tmp_path, capsys):
        args = [
            "run",
            "--generate", "777",
            "--model", "full",
            "--q", "5",
            "--apriori-infected", "0.053",
            "--apriori-immune", "0.021",
            "--apriori-seed", "777",
            "--pn-iterations", "20000",
            "--baselines", "comp1",
            "--out", str(tmp_path / "f"),
        ]
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["model"] == "full"
        assert summary["model_param"] == 5

    def test_bad_priors_exit_one(self, tmp_path, capsys):
        assert main(run_args(tmp_path / "r", ["--priors", "25=0.5"])) == 1
        assert "error:" in capsys.readouterr().err

    def test_unparseable_priors_name_the_format(self, tmp_path, capsys):
        assert main(run_args(tmp_path / "r", ["--priors", "20=abc"])) == 1
        err = capsys.readouterr().err
        assert "20=abc" in err and "AGE=FRACTION" in err

    def test_nonempty_out_dir_refused(self, tmp_path, capsys):
        out = tmp_path / "r"
        out.mkdir()
        (out / "keep.txt").write_text("precious\n")
        assert main(run_args(out)) == 1
        assert "not empty" in capsys.readouterr().err
        assert (out / "keep.txt").read_text() == "precious\n"

    def test_bad_evolution_settings_write_nothing(self, tmp_path, capsys):
        # a population below 4 is refused before the baselines are written
        out = tmp_path / "r"
        args = ["run", "--generate", "1", "--model", "partial", "--s", "4",
                "--pirs", "1", "--pop", "2", "--budget", "5", "--out", str(out)]
        assert main(args) == 1
        assert "population" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_negative_pirs_writes_nothing(self, tmp_path, capsys):
        # a negative count would otherwise give no run seeds, as 0 does, and
        # a baselines-only report
        args = ["run", "--generate", "3", "--model", "partial", "--pirs", "-2",
                "--out", str(tmp_path / "r")]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: --pirs must not be negative")
        assert not list(tmp_path.iterdir())
        args[args.index("-2")] = "0"  # no evolution, on purpose
        assert main(args) == 0
        assert "gp_best" not in json.loads(capsys.readouterr().out)["entries"]

    @pytest.mark.parametrize("iterations", ["0", "-5"])
    def test_pn_iterations_below_one_write_nothing(self, tmp_path, capsys, iterations):
        out = tmp_path / "r"
        args = ["run", "--generate", "1", "--model", "full", "--q", "4",
                "--pn-iterations", iterations, "--baselines", "comp1",
                "--out", str(out)]
        assert main(args) == 1
        assert "pn_iterations" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.iterdir())  # no staging directory either

    @pytest.mark.parametrize("flag", ["--apriori-infected", "--apriori-immune"])
    def test_apriori_fractions_need_the_full_model(self, tmp_path, capsys, flag):
        # the fractional model never marks persons
        out = tmp_path / "r"
        args = ["run", "--generate", "1", "--model", "partial", flag, "0.5",
                "--baselines", "comp1", "--out", str(out)]
        assert main(args) == 1
        assert "fractions" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("model", ["partial", "full"])
    @pytest.mark.parametrize(
        "fractions", [("7", "0"), ("0", "-0.1"), ("0.6", "0.5"), ("nan", "0")]
    )
    def test_bad_apriori_fractions_write_nothing(self, tmp_path, capsys, model, fractions):
        out = tmp_path / "r"
        args = ["run", "--generate", "1", "--model", model, "--q", "4",
                "--apriori-infected", fractions[0], "--apriori-immune", fractions[1],
                "--baselines", "comp1", "--out", str(out)]
        assert main(args) == 1
        assert "fractions" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestReplayAndCompare:
    def test_round_trip(self, tmp_path, capsys):
        assert main(run_args(tmp_path / "a")) == 0
        capsys.readouterr()
        assert main(["replay", str(tmp_path / "a" / "manifest.json"),
                     "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["ratio_b_over_a"] == 1.0

    def test_compare_digest_mismatch_exit_one(self, tmp_path, capsys):
        assert main(run_args(tmp_path / "a")) == 0
        other = run_args(tmp_path / "c")
        other[2] = "778"
        assert main(other) == 0
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "c")]) == 1
        assert "different datasets" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda m: {k: v for k, v in m.items() if k != "spec"}, "'spec'"),
            (lambda m: {k: v for k, v in m.items() if k != "dataset_digest"},
             "'dataset_digest'"),
            (lambda m: {**m, "spec": {k: v for k, v in m["spec"].items() if k != "model"}},
             "'model'"),
            (lambda m: {**m, "spec": {**m["spec"], "colour": "red"}}, "'colour'"),
            (lambda m: [m], "format"),
            (lambda m: {**m, "spec": {**m["spec"], "population": "500"}},
             "'population'"),
            (lambda m: {**m, "spec": {**m["spec"], "priors": 5}}, "'priors'"),
            (lambda m: {**m, "spec": {**m["spec"], "pir_seeds": [1.5]}},
             "'pir_seeds'"),
            (lambda m: {**m, "spec": {**m["spec"], "priors": [[20, 1.5]]}},
             "prior 1.5 outside"),
            (lambda m: {**m, "spec": {**m["spec"], "priors": [[25, 0.3]]}},
             "age 25 not one of"),
            (lambda m: {**m, "spec": {**m["spec"], "baselines": ["comp2", "comp2"]}},
             "baseline 'comp2' given twice"),
            (lambda m: {**m, "spec": 7}, "'spec'"),
            (lambda m: {**m, "dataset_file": 5}, "'dataset_file'"),
            # the fractional model never marks persons, so the spec refuses
            # the fractions whether the run starts from the CLI or a manifest
            (lambda m: {**m, "spec": {**m["spec"], "apriori_infected": 0.1}},
             "a-priori fractions"),
        ],
        ids=["no-spec", "no-digest", "no-model", "unknown-key", "not-an-object",
             "string-count", "priors-not-pairs", "float-seed", "prior-above-one",
             "unknown-age", "repeated-baseline", "spec-not-an-object",
             "dataset-file-not-a-string", "fractions-on-the-fractional-model"],
    )
    def test_malformed_manifest_exit_one(self, tmp_path, capsys, damage, named):
        assert main(run_args(tmp_path / "a", ["--pirs", "0"])) == 0
        path = tmp_path / "a" / "manifest.json"
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        capsys.readouterr()
        assert main(["replay", str(path), "--out", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert [p.name for p in tmp_path.iterdir()] == ["a"]

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda s: {k: v for k, v in s.items() if k != "entries"}, "'entries'"),
            (lambda s: {k: v for k, v in s.items() if k != "dataset_digest"},
             "'dataset_digest'"),
            (lambda s: {**s, "entries": [1]}, "'entries'"),
            (lambda s: [s], "'dataset_digest'"),
            (_with_entry("comp1", {"n_h": 1, "n_d": 0}), "entry 'comp1' key 'cost'"),
            (_with_entry("comp1", 7), "entry 'comp1' key 'cost'"),
            (_with_entry("comp2", {"n_h": 1, "n_d": 0, "cost": "x"}), "entry 'comp2' key 'cost'"),
            (_with_entry("comp3", {"n_h": True, "n_d": 0, "cost": 1}), "entry 'comp3' key 'n_h'"),
            (lambda s: {**s, "gp": {"records": 1}}, "'gp'"),
            (lambda s: {**s, "gp": {"pareto": [{"n_h": 1, "n_d": None}]}},
             "gp pareto point 0 key 'n_d'"),
        ],
        ids=["no-entries", "no-digest", "entries-not-an-object", "not-an-object",
             "entry-without-cost", "entry-not-an-object", "cost-not-a-number",
             "count-a-boolean", "gp-without-pareto", "pareto-point-without-n_d"],
    )
    def test_malformed_summary_exit_one(self, tmp_path, capsys, damage, named):
        assert main(run_args(tmp_path / "a", ["--pirs", "0"])) == 0
        assert main(run_args(tmp_path / "b", ["--pirs", "0"])) == 0
        path = tmp_path / "b" / "summary.json"
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and named in err

    def test_missing_manifest_exit_one(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err
