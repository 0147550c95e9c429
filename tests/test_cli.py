"""Command-line behaviour: flags, exit codes, report wiring and refusals.

Each command's refusals are one table, and every row of every table keeps
the one contract in assert_refused.
"""

import json
import shutil
from dataclasses import fields
from pathlib import Path

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


def _tree(root):
    """Every path under root, with a file's bytes or None for a directory."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


def assert_refused(argv, capsys, named):
    """The refusal contract, run in a working directory that holds only the
    row's inputs: exit code 1, stderr that starts with ``error:`` and names
    the rule, key or file, no traceback, and nothing written: no report, no
    hidden staging sibling and no parent directory of ``--out``."""
    before = _tree(Path.cwd())
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err
    assert _tree(Path.cwd()) == before


@pytest.fixture(scope="module")
def base_report(tmp_path_factory):
    """A baselines-only report that each refusal row copies into a/."""
    out = tmp_path_factory.mktemp("base") / "a"
    assert main(run_args(out, ["--pirs", "0"])) == 0
    return out


def _json_edit(name, change):
    """A report damage: the JSON document in file name replaced by change(doc)."""
    def damage(report):
        path = report / name
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
    return damage


def _manifest(change):
    return _json_edit("manifest.json", change)


def _summary(change):
    return _json_edit("summary.json", change)


def _with_entry(name, value):
    """A summary.json damage: entries[name] set to value."""
    return _summary(lambda s: {**s, "entries": {**s["entries"], name: value}})


def _write(name, text):
    """A report damage: file name holds text."""
    return lambda report: (report / name).write_text(text)


def _retune_first_person(report):
    """dataset.txt still parses, but person 0 has another health level."""
    path = report / "dataset.txt"
    first, rest = path.read_text().split("\n", 1)
    pid, age, health, tail = first.split(" ", 3)
    path.write_text(" ".join((pid, age, repr(float(health) - 1.0), tail)) + "\n" + rest)


# flags after "run --generate 1 --out refused/r", run beside a copy of the
# base report in a/
RUN_REFUSALS = [
    # a later --out replaces the earlier one
    pytest.param(["--model", "partial", "--out", "a"], "output directory a is not empty",
                 id="out-not-empty"),
    pytest.param(["--model", "partial", "--seed-list", "1,x"],
                 "bad --seed-list '1,x', expected integers", id="seed-list-not-integers"),
    # a repeated variant would be simulated and listed twice in baselines.csv
    pytest.param(["--model", "partial", "--baselines", "comp1,comp1"],
                 "baseline 'comp1' given twice", id="repeated-baseline"),
    # a repeated seed would evolve and rank the same PIR twice
    pytest.param(["--model", "partial", "--seed-list", "1,1"], "PIR seed 1 given twice",
                 id="repeated-pir-seed"),
    # manifest.json could not record a NaN or infinite target as strict JSON
    *(
        pytest.param(["--model", "partial", "--target-fitness", value],
                     "target_fitness must be finite", id=f"target-fitness-{value}")
        for value in ("nan", "inf")
    ),
    # no death count is negative, so the run would spend its whole budget
    pytest.param(["--model", "partial", "--target-nd", "-1"],
                 "target_nd must not be negative", id="negative-target-nd"),
    pytest.param(["--model", "partial", "--priors", "25=0.5"], "age 25 not one of",
                 id="unknown-age"),
    pytest.param(["--model", "partial", "--priors", "20=abc"],
                 "bad priors entry '20=abc', expected AGE=FRACTION", id="unparseable-priors"),
    # the last value would be kept silently
    pytest.param(["--model", "partial", "--priors", "20=0.1;20=0.2"],
                 "age 20 given twice in the priors", id="repeated-prior-age"),
    # numpy refuses a negative seed without naming the flag, and the p_n
    # table's seed only once the report is staged
    pytest.param(["--model", "partial", "--generate", "-1"],
                 "generate_seed must not be negative", id="negative-generate-seed"),
    pytest.param(["--model", "full", "--q", "4", "--apriori-infected", "0.1",
                  "--apriori-seed", "-3"],
                 "apriori_seed must not be negative", id="negative-apriori-seed"),
    pytest.param(["--model", "full", "--q", "4", "--apriori-infected", "0.1",
                  "--pn-seed", "-2", "--pn-iterations", "100"],
                 "pn_seed must not be negative", id="negative-pn-seed"),
    pytest.param(["--model", "partial", "--pirs", "1", "--pop", "2"],
                 "population must be at least 4", id="population-below-four"),
    # a negative count would otherwise give no run seeds, as 0 does, and a
    # baselines-only report
    pytest.param(["--model", "partial", "--pirs", "-2"], "--pirs must not be negative",
                 id="negative-pirs"),
    *(
        pytest.param(["--model", "full", "--q", "4", "--pn-iterations", n],
                     "pn_iterations must be at least 1", id=f"pn-iterations-{case}")
        for case, n in (("zero", "0"), ("negative", "-5"))
    ),
    # the fractional model never marks persons
    *(
        pytest.param(["--model", "partial", flag, "0.5"],
                     "a-priori fractions apply to the full model only",
                     id=f"{flag[2:]}-on-the-fractional-model")
        for flag in ("--apriori-infected", "--apriori-immune")
    ),
    # nor builds a p_n table or draws its a-priori persons, so these would
    # only be recorded
    *(
        pytest.param(["--model", "partial", flag, value],
                     f"{flag[2:].replace('-', '_')} applies to the full model only",
                     id=f"{flag[2:]}-on-the-fractional-model")
        for flag, value in (("--q", "3"), ("--pn-iterations", "7"), ("--pn-seed", "9"),
                            ("--apriori-seed", "5"))
    ),
    *(
        pytest.param(["--model", model, "--q", "4", "--apriori-infected", infected,
                      "--apriori-immune", immune], named, id=f"fractions-{case}-{model}")
        for model in ("partial", "full")
        for case, infected, immune, named in (
            ("above-one", "7", "0", "fractions must lie in [0, 1]"),
            ("negative", "0", "-0.1", "fractions must lie in [0, 1]"),
            ("sum-above-one", "0.6", "0.5", "fractions sum above 1"),
            ("nan", "nan", "0", "fractions must lie in [0, 1]"),
        )
    ),
]


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

    def test_zero_pirs_runs_baselines_only(self, base_report):
        # the base report is a run with --pirs 0, which evolves nothing on purpose
        summary = json.loads((base_report / "summary.json").read_text())
        assert set(summary["entries"]) == {"comp1", "comp2", "comp3"}
        assert summary["gp"] is None

    @pytest.mark.parametrize("flags, named", RUN_REFUSALS)
    def test_refused(self, base_report, tmp_path, monkeypatch, capsys, flags, named):
        monkeypatch.chdir(tmp_path)
        shutil.copytree(base_report, "a")
        assert_refused(["run", "--generate", "1", "--out", "refused/r", *flags],
                       capsys, named)


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

    @pytest.mark.parametrize(
        "damage, named",
        [
            (_manifest(lambda m: {k: v for k, v in m.items() if k != "spec"}), "'spec'"),
            (_manifest(lambda m: {k: v for k, v in m.items() if k != "dataset_digest"}),
             "'dataset_digest'"),
            (_manifest(lambda m: {**m, "spec": {k: v for k, v in m["spec"].items()
                                               if k != "model"}}),
             "'model'"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "colour": "red"}}), "'colour'"),
            (_manifest(lambda m: [m]), "format"),
            (_manifest(lambda m: {**m, "format": True}), "format"),
            (_manifest(lambda m: {**m, "format": 1.0}), "format"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "population": "500"}}),
             "'population'"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "priors": 5}}), "'priors'"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "pir_seeds": [1.5]}}),
             "'pir_seeds'"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "priors": [[20, 1.5]]}}),
             "prior 1.5 outside"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "priors": [[25, 0.3]]}}),
             "age 25 not one of"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"],
                                               "baselines": ["comp2", "comp2"]}}),
             "baseline 'comp2' given twice"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "pir_seeds": [2, 2]}}),
             "PIR seed 2 given twice"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "target_fitness": float("nan")}}),
             "'target_fitness'"),
            (_manifest(lambda m: {**m, "spec": 7}), "'spec'"),
            (_manifest(lambda m: {**m, "dataset_file": 5}), "'dataset_file'"),
            # the fractional model never marks persons, so the spec refuses
            # the fractions whether the run starts from the CLI or a manifest
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "apriori_infected": 0.1}}),
             "a-priori fractions"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "q": 4}}),
             "q applies to the full model only"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "apriori_seed": 5}}),
             "apriori_seed applies to the full model only"),
            (_manifest(lambda m: {**m, "spec": {**m["spec"], "priors": [[20, 0.1], [20, 0.2]]}}),
             "age 20 given twice in the priors"),
            *(
                (_manifest(lambda m, key=key: {**m, "spec": {**m["spec"], key: -2}}),
                 f"{key} must not be negative")
                for key in ("generate_seed", "apriori_seed", "pn_seed")
            ),
            (_write("manifest.json", "x"), "a/manifest.json is not JSON"),
            (lambda report: (report / "manifest.json").unlink(), "a/manifest.json"),
            # refused once the dataset is read, before --out's parent is made
            (_retune_first_person, "digest does not match the manifest"),
        ],
        ids=["no-spec", "no-digest", "no-model", "unknown-key", "not-an-object",
             "boolean-format", "float-format",
             "string-count", "priors-not-pairs", "float-seed", "prior-above-one",
             "unknown-age", "repeated-baseline", "repeated-pir-seed", "nan-target-fitness",
             "spec-not-an-object",
             "dataset-file-not-a-string", "fractions-on-the-fractional-model",
             "q-on-the-fractional-model", "apriori-seed-on-the-fractional-model",
             "repeated-prior-age", "negative-generate-seed",
             "negative-apriori-seed", "negative-pn-seed",
             "not-json", "no-manifest", "dataset-changed"],
    )
    def test_malformed_manifest_exit_one(self, base_report, tmp_path, monkeypatch, capsys,
                                         damage, named):
        monkeypatch.chdir(tmp_path)
        shutil.copytree(base_report, "a")
        damage(Path("a"))
        assert_refused(["replay", "a/manifest.json", "--out", "refused/replayed"],
                       capsys, named)

    @pytest.mark.parametrize(
        "damage, named",
        [
            (_summary(lambda s: {k: v for k, v in s.items() if k != "entries"}),
             "b/summary.json key 'entries'"),
            (_summary(lambda s: {k: v for k, v in s.items() if k != "dataset_digest"}),
             "b/summary.json key 'dataset_digest'"),
            (_summary(lambda s: {**s, "entries": [1]}), "b/summary.json key 'entries'"),
            (_summary(lambda s: [s]), "b/summary.json key 'dataset_digest'"),
            (_with_entry("comp1", {"n_h": 1, "n_d": 0}),
             "b/summary.json entry 'comp1' key 'cost'"),
            (_with_entry("comp1", 7), "b/summary.json entry 'comp1' key 'cost'"),
            (_with_entry("comp2", {"n_h": 1, "n_d": 0, "cost": "x"}),
             "b/summary.json entry 'comp2' key 'cost'"),
            (_with_entry("comp3", {"n_h": True, "n_d": 0, "cost": 1}),
             "b/summary.json entry 'comp3' key 'n_h'"),
            (_with_entry("comp1", {"n_h": 1, "n_d": 0, "cost": float("nan")}),
             "b/summary.json entry 'comp1' key 'cost'"),
            (_summary(lambda s: {**s, "gp": {"records": 1}}), "b/summary.json key 'gp'"),
            (_summary(lambda s: {**s, "gp": {"pareto": [{"n_h": 1, "n_d": None}]}}),
             "b/summary.json gp pareto point 0 key 'n_d'"),
            (_summary(lambda s: {**s, "gp": {"pareto": [{"n_h": float("inf"), "n_d": 0}]}}),
             "b/summary.json gp pareto point 0 key 'n_h'"),
            (_write("summary.json", "{\n"), "b/summary.json is not JSON"),
            (_summary(lambda s: {**s, "dataset_digest": "0" * 64}),
             "reports describe different datasets"),
        ],
        ids=["no-entries", "no-digest", "entries-not-an-object", "not-an-object",
             "entry-without-cost", "entry-not-an-object", "cost-not-a-number",
             "count-a-boolean", "nan-cost", "gp-without-pareto", "pareto-point-without-n_d",
             "infinite-pareto-n_h",
             "not-json", "different-datasets"],
    )
    def test_malformed_summary_exit_one(self, base_report, tmp_path, monkeypatch, capsys,
                                        damage, named):
        monkeypatch.chdir(tmp_path)
        shutil.copytree(base_report, "a")
        shutil.copytree(base_report, "b")
        damage(Path("b"))
        assert_refused(["compare", "a", "b"], capsys, named)
