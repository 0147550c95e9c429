"""Command-line behaviour: flags, exit codes, report wiring."""

import json

import pytest

from lockdownsched.cli import main


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


class TestRun:
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

    def test_missing_manifest_exit_one(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err
