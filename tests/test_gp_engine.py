"""Evolution loop behaviour: determinism, emission rules, archive merging."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lockdownsched import gp_engine
from lockdownsched._simcore import bound_array, counts_for_slots, decode_slots
from lockdownsched.allocation import AllocationPlan, decode
from lockdownsched.dataset import (
    generate_dataset,
    mark_apriori_infection,
    parse_dataset,
    request_index,
)
from lockdownsched.experiment import ExperimentSpec
from lockdownsched.full_infection import PnTable, build_pn_table
from lockdownsched.gp_engine import (
    Archive,
    GpConfig,
    SolutionRecord,
    evolve_pir,
    pareto_front,
    run_pirs,
)
from lockdownsched.gp_tree import FUNCTION_CODES, KIND_NAMES, eval_tree, random_tree
from lockdownsched.simulator import (
    MODEL_FULL,
    MODEL_PARTIAL,
    fitness_value,
    simulate,
)

from scalar_oracles import (
    bound_vector,
    decode_loop,
    evolve_pir_whole_budget,
    kill_tournament_by_randrange,
    tournament_by_randrange,
)
from test_gp_tree import POPULATION_SIZES, constant, node, sconstant


def sha256_of_plan(ds, slots):
    """A record's plan_digest, computed as the benchmark's check computes it."""
    h = hashlib.sha256(ds.digest().encode())
    h.update(np.asarray(slots, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def small_ds():
    ds = generate_dataset(seed=99)
    return ds.with_taxonomy({20: 0.01, 40: 0.03, 50: 0.02})


@pytest.fixture(scope="module")
def small_full_ds():
    ds = generate_dataset(seed=99)
    return mark_apriori_infection(ds, 0.053, 0.021, seed=99)


@pytest.fixture(scope="module")
def tiny_table():
    return build_pn_table(5, 20_000, seed=0)


def quick_config(**over):
    base = dict(model=MODEL_PARTIAL, s=4, population=30, budget=300)
    base.update(over)
    return GpConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GpConfig(population=3)
        with pytest.raises(ValueError):
            GpConfig(budget=0)
        with pytest.raises(ValueError):
            GpConfig(model="nope")
        with pytest.raises(ValueError):
            GpConfig(model=MODEL_PARTIAL, s=1)
        with pytest.raises(ValueError):
            GpConfig(model=MODEL_FULL, q=None)
        # no fitness is above 0.0, so no run could reach such a target
        with pytest.raises(ValueError, match="target_fitness must not be above 0.0"):
            GpConfig(target_fitness=0.5)
        assert GpConfig(target_fitness=0.0).target_fitness == 0.0
        with pytest.raises(ValueError, match="pn_iterations"):
            ExperimentSpec(model=MODEL_FULL, q=4, generate_seed=1, pn_iterations=0)


class TestEvolvePir:
    def test_deterministic(self, small_ds):
        cfg = quick_config()
        a = evolve_pir(small_ds, cfg, seed=5)
        b = evolve_pir(small_ds, cfg, seed=5)
        assert a == b

    def test_seed_changes_run(self, small_ds):
        cfg = quick_config()
        a = evolve_pir(small_ds, cfg, seed=5)
        b = evolve_pir(small_ds, cfg, seed=6)
        assert a != b

    def test_sink_gets_strict_improvements_only(self, small_ds):
        got = []
        best = evolve_pir(small_ds, quick_config(), seed=7, sink=got.append)
        assert got, "at least the first finite best is emitted"
        fits = [r.fitness for r in got]
        assert fits == sorted(fits)
        assert len(set(fits)) == len(fits)
        assert got[-1] == best

    def test_record_reproducible_by_simulation(self, small_ds):
        best = evolve_pir(small_ds, quick_config(), seed=11)
        plan = decode(best.vector, small_ds)
        outcome = simulate(small_ds, plan, MODEL_PARTIAL, s=4)
        assert outcome.counts() == (best.n_h, best.n_d)
        assert fitness_value(*outcome.counts()) == best.fitness
        assert best.plan_digest == sha256_of_plan(small_ds, plan.slots)

    def test_improves_over_initial(self, small_ds):
        got = []
        evolve_pir(small_ds, quick_config(budget=2000), seed=3, sink=got.append)
        assert len(got) >= 2
        assert got[-1].fitness > got[0].fitness

    def test_target_fitness_stops_early(self, small_ds):
        # a target below any real fitness stops the run at the first best
        got = []
        evolve_pir(
            small_ds,
            quick_config(budget=100_000, target_fitness=-1e9),
            seed=3,
            sink=got.append,
        )
        assert len(got) == 1

    def test_full_model_runs(self, small_full_ds, tiny_table):
        cfg = GpConfig(model=MODEL_FULL, q=5, population=20, budget=150)
        best = evolve_pir(small_full_ds, cfg, seed=2, table=tiny_table)
        plan = decode(best.vector, small_full_ds)
        outcome = simulate(small_full_ds, plan, MODEL_FULL, table=tiny_table)
        assert outcome.counts() == (best.n_h, best.n_d)

    @pytest.mark.parametrize("table_q", [None, 4])
    def test_full_model_needs_a_matching_table(
        self, small_full_ds, monkeypatch, table_q
    ):
        calls = counting_evaluations(monkeypatch)
        table = None if table_q is None else build_pn_table(table_q, 10, seed=0)
        cfg = GpConfig(model=MODEL_FULL, q=5, population=20, budget=150)
        with pytest.raises(ValueError, match="q=5"):
            evolve_pir(small_full_ds, cfg, seed=2, table=table)
        with pytest.raises(ValueError, match="q=5"):
            run_pirs(small_full_ds, cfg, (1, 2), table=table)
        assert calls[0] == 0

    def test_seeding_phase_reaches_length(self, small_ds):
        cfg = quick_config(budget=4000, seed_len=12)
        best = evolve_pir(small_ds, cfg, seed=1)
        assert len(best.vector) >= 12
        assert math.isfinite(best.fitness)


class TestFitnessMemo:
    def test_one_simulation_per_distinct_plan(self, small_ds, monkeypatch):
        decoded, simulated = set(), []
        decode_slots, counts_for_slots = gp_engine.decode_slots, gp_engine.counts_for_slots

        def decode_spy(ri, bounded):
            slots = decode_slots(ri, bounded)
            decoded.add(slots.tobytes())
            return slots

        def counts_spy(ctx, slots):
            simulated.append(slots.tobytes())
            return counts_for_slots(ctx, slots)

        monkeypatch.setattr(gp_engine, "decode_slots", decode_spy)
        monkeypatch.setattr(gp_engine, "counts_for_slots", counts_spy)
        cfg = quick_config()
        evolve_pir(small_ds, cfg, seed=5)
        assert len(simulated) == len(set(simulated)) == len(decoded)
        # many offspring repeat a plan already scored
        assert len(simulated) < cfg.population + cfg.budget

    def test_full_memo_starts_over(self, small_ds, monkeypatch):
        expected = evolve_pir(small_ds, quick_config(), seed=5)
        evaluators = []
        real_init = gp_engine._Evaluator.__init__

        def init(self, *args):
            real_init(self, *args)
            evaluators.append(self)

        monkeypatch.setattr(gp_engine._Evaluator, "__init__", init)
        monkeypatch.setattr(gp_engine, "MEMO_ENTRIES", 3)
        best = evolve_pir(small_ds, quick_config(), seed=5)
        [evaluator] = evaluators
        assert 1 <= len(evaluator.memo) <= 3
        assert best == expected

    # improvement streams recorded before the fitness memo and the list-based
    # week loops existed: (fitness, N_H, N_D, plan digest prefix) per record
    PINNED_PARTIAL = [
        (-19.2, 27, 15, "9c28b566d8fca477"),
        (-11.05, 13, 10, "8592166a39ce657c"),
        (-10.35, 11, 10, "ebfbd295580d4b99"),
        (-9.4, 12, 8, "339940ed71173714"),
        (-6.4, 9, 5, "4db0025afa8c10bd"),
    ]
    PINNED_FULL = [
        (-1.4, 4, 0, "b1ec3cbb50779c6c"),
        (-0.65, 0, 1, "87416a25f49020a0"),
        (0.0, 0, 0, "58748b42a90dbb61"),
    ]

    @staticmethod
    def stream(ds, cfg, seed, **kw):
        got = []
        best = evolve_pir(ds, cfg, seed, got.append, **kw)
        rows = [(r.fitness, r.n_h, r.n_d, r.plan_digest[:16]) for r in got]
        return rows, best

    def test_pinned_partial_run(self, small_ds):
        rows, best = self.stream(small_ds, quick_config(), 5)
        assert rows == self.PINNED_PARTIAL
        assert best.vector == (
            0.0001, 0.9960784313725526, 0.5254901960784314, 1e-05,
            0.9450980392156862, 0.8588235294117647, 0.0001,
            0.5254901960784314, 0.3333333333333333,
        )

    def test_pinned_full_run(self, tiny_table):
        ds = mark_apriori_infection(generate_dataset(seed=99), 0.2, 0.021, seed=99)
        cfg = GpConfig(model=MODEL_FULL, q=5, population=20, budget=150)
        rows, best = self.stream(ds, cfg, 2, table=tiny_table)
        assert rows == self.PINNED_FULL
        assert best.vector == (
            0.0001, 0.7294117647058823, 0.7019607843137265,
            0.41960784313725696, 0.5438596491228069,
        )


def counting_evaluations(monkeypatch):
    """Patch _Evaluator.evaluate to count its calls; returns the counter."""
    calls = [0]
    real = gp_engine._Evaluator.evaluate

    def evaluate(self, tree):
        calls[0] += 1
        return real(self, tree)

    monkeypatch.setattr(gp_engine._Evaluator, "evaluate", evaluate)
    return calls


class TestWarmUp:
    """Runs with seed_len, pinned before the loop was split into phases.

    Scoring starts when the warm-up ends, so the evaluation count is the
    population plus the offspring left in the budget: it pins how many
    offspring the warm-up bred.
    """

    PINNED = {
        # seed -> (evaluations, records, best vector); warm-up ends after 71,
        # 62 and 93 of the 400 offspring.  Seed 0 is the one whose warm-up
        # breaks a tie in length by tree size when it picks the best to spare
        0: (
            349,
            [
                (-47.35, 61, 40, "2c4bef21b827d158"),
                (-44.35, 58, 37, "aebf34ecaf21cf3e"),
                (-41.45, 59, 32, "bdc0e8f11d861f9d"),
                (-36.05, 51, 28, "e33c67c4d1581837"),
                (-35.45, 53, 26, "5530847bcbb52c98"),
                (-27.85, 48, 17, "3977030a64a89b5f"),
                (-24.35, 38, 17, "e60cbfd6aae82807"),
                (-21.85, 29, 18, "4fabfe7f4a67d0bf"),
                (-21.5, 28, 18, "bbdc2cc97994dcb6"),
                (-16.9, 26, 12, "bf77b7d233f936e1"),
                (-15.55, 24, 11, "5eb1d2a088ecbc4c"),
                (-13.2, 21, 9, "e534d01264b15741"),
                (-12.45, 17, 10, "dc5f5532a3412480"),
                (-12.05, 14, 11, "83cb955271ba068f"),
                (-10.8, 16, 8, "e3fbe6f475dc33a5"),
                (-8.8, 14, 6, "8d33b3eaf2d543f1"),
                (-8.75, 12, 7, "0a0df36d9af9aff4"),
                (-8.45, 13, 6, "9102fec941c7fa4c"),
                (-7.65, 7, 8, "82a5e092d0d0e4ef"),
            ],
            (
                0.0001, 0.8980392156862745, 0.5764705882352956, 0.8980392156862745,
                0.0784313725490196, 0.4, 0.6521027331289488, 0.8980392156862745,
                0.6521027331289488, 0.8666666666666667, 0.8666666666666667, 0.0001,
                0.7058823529411765, 0.5, 0.7543859649123021, 0.2823529411764706, 0.0001,
                0.0784313725490196, 0.8666666666666667, 0.1803921568627451,
                0.20784313725490197, 0.04186508705496905, 0.6521027331289488,
                0.15306122448964743, 0.7058823529411765, 0.7058823529411765, 0.5,
                0.7543859649123021, 0.0784313725490196,
            ),
        ),
        1: (
            358,
            [
                (-16.15, 22, 13, "a05719062da62177"),
                (-14.8, 20, 12, "373b5380bb38a3b5"),
                (-13.45, 18, 11, "9346f9a7652d9b65"),
                (-12.85, 20, 9, "63cbb64267646601"),
                (-12.1, 16, 10, "43ca72c84db14f2c"),
                (-12.0, 12, 12, "aa91d64ae0084177"),
                (-10.0, 10, 10, "01fe75b55e22cdb6"),
                (-8.7, 10, 8, "d6d00b2fd9dce652"),
                (-8.35, 9, 8, "8bd6f9914fa38370"),
                (-7.7, 9, 7, "a92d108ff7d953d3"),
                (-7.35, 8, 7, "8f765f8129e763d5"),
            ],
            (
                0.0001, 0.0001, 0.8549019607843137, 0.6862745098039216,
                0.6862745098039216, 0.0001, 0.5976232698961965, 0.0001,
                0.9941176470588218, 0.5976232698961965, 0.5976232698961965,
            ),
        ),
        2: (
            327,
            [
                (-31.7, 46, 24, "35db9597af0ce387"),
                (-29.9, 39, 25, "b790ee7a5f6ab16a"),
                (-27.6, 38, 22, "b497ca5551e42f32"),
                (-25.9, 35, 21, "4e5821387292d5b5"),
                (-23.95, 35, 18, "6bc25262727976ee"),
                (-22.9, 32, 18, "f748f7d70700073a"),
                (-20.15, 26, 17, "41834bf877be539d"),
                (-19.55, 28, 15, "c95fb08a64e9b7cc"),
                (-14.85, 22, 11, "c5becf8acb660524"),
                (-14.55, 23, 10, "41f0406b9277e16c"),
                (-14.4, 17, 13, "b4529a60d35839e4"),
                (-14.15, 20, 11, "c4fc6189c3e2bacd"),
                (-12.15, 18, 9, "b6895a4dc421d6bf"),
                (-10.5, 17, 7, "0c3682148fc98b4b"),
                (-10.45, 15, 8, "f87f969161478b21"),
                (-10.3, 9, 11, "87033c996fe73b03"),
                (-10.15, 16, 7, "e079abadcc083c1b"),
                (-8.8, 14, 6, "9102a84a503955c2"),
                (-8.45, 13, 6, "aed655695f9d426b"),
                (-8.1, 12, 6, "8b537b03f892fa30"),
                (-7.8, 13, 5, "383b81b394e4c532"),
                (-7.05, 9, 6, "9d34926272a36225"),
                (-6.4, 9, 5, "c8a8575363786cb5"),
                (-6.05, 8, 5, "63cceef365e07c0b"),
            ],
            (
                0.0001, 0.9254901960784314, 0.0001, 0.0001, 0.5215686274509803,
                0.5215686274509803, 0.0001, 0.0001, 0.0001, 0.6179775280898876,
                0.9355736825980401, 0.0001, 0.5529411764705883, 0.5215686274509803,
                0.6235294117647059, 0.6235294117647059, 0.6235294117647059, 0.0001,
                0.0001, 0.5381463911019111, 0.5529411764705883, 0.9568627450980393,
                0.9254901960784314, 0.9254901960784314, 0.0001,
            ),
        ),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pinned_warm_up(self, small_ds, monkeypatch, seed):
        calls = counting_evaluations(monkeypatch)
        cfg = GpConfig(model=MODEL_PARTIAL, s=4, population=20, budget=400, seed_len=12)
        rows, best = TestFitnessMemo.stream(small_ds, cfg, seed)
        assert (calls[0], rows, best.vector) == self.PINNED[seed]

    def test_warm_up_spends_the_budget(self, small_ds, monkeypatch):
        # no population prints 40 values within 25 offspring; the run then
        # scores the population it has and emits that best
        calls = counting_evaluations(monkeypatch)
        cfg = GpConfig(model=MODEL_PARTIAL, s=4, population=20, budget=25, seed_len=40)
        rows, best = TestFitnessMemo.stream(small_ds, cfg, 1)
        assert calls[0] == 20
        assert rows == [(-19.6, 30, 14, "1be285ad1d953987")]
        assert best.vector == (
            0.0001, 0.0001, 0.38823529411764707, 0.6554133025759334, 0.0001,
            0.9941176470588218, 0.6554133025759334, 0.18823529411764706,
            0.023252595155709342, 0.6554133025759334,
        )

    def test_full_model_warm_up_then_target(self, monkeypatch, tiny_table):
        # the warm-up completes, and the third record meets target_nd = 0
        # 49 offspring later
        calls = counting_evaluations(monkeypatch)
        ds = mark_apriori_infection(generate_dataset(seed=99), 0.4, 0.021, seed=99)
        cfg = GpConfig(
            model=MODEL_FULL, q=5, population=20, budget=300, seed_len=8, target_nd=0
        )
        rows, best = TestFitnessMemo.stream(ds, cfg, 4, table=tiny_table)
        assert calls[0] == 69
        assert rows == [
            (-17.75, 47, 2, "4cf303062a00aca0"),
            (-14.95, 39, 2, "d6a2b60727622fd0"),
            (-14.0, 40, 0, "358409f8848ae555"),
        ]
        assert best.vector == (
            0.0001, 0.0001, 0.0001, 0.8941176470588239, 0.0001, 0.823529411764706,
            0.823529411764706, 0.0001, 0.0001, 0.5, 0.12156862745098039,
            0.6794136250100564, 0.12156862745098039, 0.8323925041331677,
            0.8838235294117638, 0.0001, 0.0001, 0.019792387543252594, 0.0001,
            0.0001, 0.6119402985074625,
        )


class TestStopAtZero:
    """evolve_pir against the loop that spent its whole budget: the same
    sink stream and best, and no offspring scored after the first 0.0."""

    # world -> the fractional model's priors or the standard model's a-priori
    # infected fraction, config changes, PIR seeds, and when the run first
    # scores 0.0: in its initial population, on a bred offspring, or never
    WORLDS = {
        # the evolve_full benchmark's world
        "benchmark-full": (None, dict(model=MODEL_FULL, q=4, population=100, budget=100),
                           (1, 2, 3), "initial"),
        "few-infected-partial": ({20: 0.001, 40: 0.003, 50: 0.002}, {}, (1, 2), "initial"),
        # test_pinned_full_run's world
        "pinned-full": (0.2, dict(model=MODEL_FULL, q=5, population=20, budget=150),
                        (2,), "bred"),
        "some-infected-partial": ({20: 0.003, 40: 0.009, 50: 0.006}, {}, (1, 3), "bred"),
        "quick-partial": ({20: 0.01, 40: 0.03, 50: 0.02}, {}, (5,), "never"),
        "many-infected-full": (0.4, dict(model=MODEL_FULL, q=5, population=20, budget=150),
                               (2,), "never"),
    }

    @staticmethod
    def world(name, tiny_table):
        infection, over, seeds, solved = TestStopAtZero.WORLDS[name]
        if name == "benchmark-full":
            ds = generate_dataset(12345).with_taxonomy({20: 0.01, 40: 0.03, 50: 0.02})
            ds = mark_apriori_infection(ds, 0.053, 0.021, seed=777)
            table = build_pn_table(4, 100_000, seed=0)
        elif over.get("model") == MODEL_FULL:
            ds = mark_apriori_infection(generate_dataset(seed=99), infection, 0.021, seed=99)
            table = tiny_table
        else:
            ds, table = generate_dataset(seed=99).with_taxonomy(infection), None
        return ds, quick_config(**over), seeds, table, solved

    @pytest.mark.parametrize("name", list(WORLDS))
    def test_matches_the_whole_budget_loop(self, monkeypatch, tiny_table, name):
        ds, cfg, seeds, table, solved = self.world(name, tiny_table)
        real = gp_engine._Evaluator.evaluate
        for seed in seeds:
            scores = []

            def logged(self, tree):
                scores.append(real(self, tree))
                return scores[-1]

            monkeypatch.setattr(gp_engine._Evaluator, "evaluate", logged)
            want = []
            want_best = evolve_pir_whole_budget(
                ds, cfg, seed, want.append, pir_id=3, table=table
            )
            monkeypatch.undo()
            calls = counting_evaluations(monkeypatch)
            got = []
            best = evolve_pir(ds, cfg, seed, got.append, pir_id=3, table=table)
            monkeypatch.undo()
            assert (got, best) == (want, want_best)
            assert len(scores) == cfg.population + cfg.budget
            first = next((i for i, (f, _, _) in enumerate(scores) if f >= 0.0), None)
            if solved == "initial":
                assert first < cfg.population
                assert calls[0] == cfg.population
            elif solved == "bred":
                j = first - cfg.population + 1  # the first offspring to score 0.0
                assert j >= 1
                assert calls[0] == cfg.population + j
            else:
                assert first is None
                assert calls[0] == cfg.population + cfg.budget
            assert (best.fitness >= 0.0) == (first is not None)

    def test_later_pirs_still_run(self):
        # both PIRs are solved in their initial populations, and each one's
        # record still goes to the archive
        ds, cfg, seeds, table, _ = self.world("few-infected-partial", None)
        arch = run_pirs(ds, cfg, seeds, table=table)
        assert [(r.pir_id, r.fitness) for r in arch.records] == [(0, 0.0), (1, 0.0)]


class TestNonFiniteStart:
    def test_first_finite_offspring_is_the_first_record(self, small_ds, monkeypatch):
        cfg = quick_config()
        real = gp_engine._Evaluator.evaluate
        scores = []

        def evaluate(self, tree):
            scores.append(real(self, tree))
            if len(scores) <= cfg.population:  # the initial population
                return (-math.inf, -1, -1)
            return scores[-1]

        monkeypatch.setattr(gp_engine._Evaluator, "evaluate", evaluate)
        got = []
        best = evolve_pir(small_ds, cfg, seed=5, sink=got.append)
        first = next(s for s in scores[cfg.population :] if math.isfinite(s[0]))
        assert (got[0].fitness, got[0].n_h, got[0].n_d) == first
        plan = decode(got[0].vector, small_ds)
        outcome = simulate(small_ds, plan, MODEL_PARTIAL, s=4)
        assert outcome.counts() == (got[0].n_h, got[0].n_d)
        assert fitness_value(*outcome.counts()) == got[0].fitness
        assert got[0].plan_digest == sha256_of_plan(small_ds, plan.slots)
        assert got[-1] == best

    def test_never_finite_raises(self, small_ds, monkeypatch):
        monkeypatch.setattr(
            gp_engine._Evaluator, "evaluate", lambda self, tree: (-math.inf, -1, -1)
        )
        with pytest.raises(
            RuntimeError, match="evolution produced no finite-fitness individual"
        ):
            evolve_pir(small_ds, quick_config(budget=50), seed=5)


def printing(values, tail=None):
    """Tree printing [0.0001, *values]: a right-nested AddRecord chain.

    A value is an int for a Constant or any subtree, such as -1 * 0 for -0.0.
    """
    tree = tail if tail is not None else constant(0)
    for v in values:  # the innermost record is written first
        tree = node("AddRecord", v if isinstance(v, tuple) else constant(v), tree)
    return tree


class TestScoringPath:
    """evaluate() against the unmemoised pipeline: tree, bound, decode, week."""

    @pytest.fixture(params=[MODEL_PARTIAL, MODEL_FULL])
    def world(self, request, small_ds, small_full_ds, tiny_table):
        if request.param == MODEL_PARTIAL:
            return small_ds, quick_config(), None
        return small_full_ds, GpConfig(model=MODEL_FULL, q=5), tiny_table

    @staticmethod
    def old_score(evaluator, tree):
        raw = np.asarray(eval_tree(tree), dtype=np.float64)
        if not np.isfinite(raw).all():
            return (-math.inf, -1, -1)
        slots = decode_slots(evaluator.ri, bound_array(raw))
        n_h, n_d = counts_for_slots(evaluator.ctx, slots)
        return (fitness_value(n_h, n_d, evaluator.config.w_c), n_h, n_d)

    def test_random_trees(self, world):
        ds, cfg, table = world
        evaluator = gp_engine._Evaluator(ds, cfg, table)
        rng = random.Random(17)
        trees = [
            random_tree(rng, rng.randint(1, 8), rng.choice(["grow", "full"]))
            for _ in range(150)
        ]
        for tree in trees + trees[:40]:  # the repeats are memo hits
            assert evaluator.evaluate(tree) == self.old_score(evaluator, tree)
        # both kinds of key: printed vectors, shorter than a plan, and plans
        n = evaluator.ri.n_requests
        assert {len(k) < n for k in evaluator.memo} == {True, False}

    def test_edge_vectors(self, world):
        ds, cfg, table = world
        evaluator = gp_engine._Evaluator(ds, cfg, table)
        n = evaluator.ri.n_requests
        big = constant(128)
        for _ in range(8):
            big = node("MultiplyNumber", big, big)  # 128 ** 256 = inf
        neg_zero = node("MultiplyNumber", constant(-1), constant(0))
        cases = [
            (printing([3, big]), False),
            (printing([node("SubtractNumber", big, big)]), False),  # NaN
            (printing([neg_zero, 7, neg_zero]), True),
            (printing([0, 7, 0]), True),
            (printing([(i % 200) - 90 for i in range(n // 8 - 2)]), True),
            (printing([(i % 200) - 90 for i in range(n // 8 - 1)]), False),
            (printing([sconstant(i % 256) for i in range(n + 5)]), False),
        ]
        # a vector key takes 8 bytes a value and must stay shorter than the
        # n-byte plan key: n // 8 - 1 printed values get one, n // 8 do not
        assert n % 8 == 0
        assert len(eval_tree(cases[4][0])) == n // 8 - 1
        assert len(eval_tree(cases[5][0])) == n // 8

        def vector_keys():
            return sum(len(k) < n for k in evaluator.memo)

        for tree, keyed in cases:
            before = vector_keys()
            assert evaluator.evaluate(tree) == self.old_score(evaluator, tree)
            assert vector_keys() == before + keyed
            printed = np.asarray(eval_tree(tree), dtype=np.float64)
            assert (printed.tobytes() in evaluator.memo) == keyed
        # a NaN or an infinity never enters either memo
        assert all(math.isfinite(f) for f, _, _ in evaluator.memo.values())

    def test_same_vector_decoded_once(self, small_ds, monkeypatch):
        decoded, simulated = [], []
        decode_real, counts_real = gp_engine.decode_slots, gp_engine.counts_for_slots

        def decode_spy(ri, bounded):
            decoded.append(1)
            return decode_real(ri, bounded)

        def counts_spy(ctx, slots):
            simulated.append(1)
            return counts_real(ctx, slots)

        monkeypatch.setattr(gp_engine, "decode_slots", decode_spy)
        monkeypatch.setattr(gp_engine, "counts_for_slots", counts_spy)
        evaluator = gp_engine._Evaluator(small_ds, quick_config(), None)
        a = printing([5, sconstant(40)], tail=constant(1))
        b = printing([5, sconstant(40)], tail=node("AddNumber", constant(2), constant(3)))
        printed = [0.0001, 5.0, 40 / 255.0]
        assert eval_tree(a) == eval_tree(b) == printed
        assert evaluator.evaluate(a) == evaluator.evaluate(b)
        assert (len(decoded), len(simulated)) == (1, 1)
        # a vector that only bounds alike is decoded again but not simulated
        c = printing([6, sconstant(40)], tail=constant(1))
        assert evaluator.evaluate(c) == evaluator.evaluate(a)
        assert (len(decoded), len(simulated)) == (2, 1)


# trees of every node kind over both kinds of constant, for Hypothesis to shrink
_trees = st.recursive(
    st.one_of(st.integers(-127, 128).map(constant), st.integers(0, 255).map(sconstant)),
    lambda sub: st.builds(
        node, st.sampled_from([KIND_NAMES[code] for code in FUNCTION_CODES]), sub, sub
    ),
    max_leaves=40,
)
_HUGE = constant(128)
for _ in range(8):
    _HUGE = node("MultiplyNumber", _HUGE, _HUGE)  # 128 ** 256 = inf


# 11 requests whose persons share establishments in wide windows, so the
# plan decides who meets whom
ELEVEN_REQUESTS = """
1 20 9.5 0 AF1:MD1 | AF1 | PF1
2 40 6.0 1 AF1 | AF1:ND1 | AF1
3 70 4.5 0 AF1:MD1 | | AF1
4 30 7.0 0 | |
"""


@pytest.fixture(scope="module")
def eleven_requests():
    """The 11-request dataset with one evaluator and simulate() keywords per
    model.  The priors and a table that infects every exposed susceptible
    make the counts depend on the plan in a world of four persons."""
    ds = parse_dataset(ELEVEN_REQUESTS).with_taxonomy({20: 0.1, 40: 0.5, 70: 0.6})
    assert request_index(ds).n_requests == 11
    table = PnTable(q=5, probs=(1.0,) * 20)
    return ds, [
        (gp_engine._Evaluator(ds, quick_config(), None), MODEL_PARTIAL, {"s": 4}),
        (
            gp_engine._Evaluator(ds, GpConfig(model=MODEL_FULL, q=5), table),
            MODEL_FULL,
            {"table": table},
        ),
    ]


@settings(max_examples=150, deadline=None)
@given(tree=_trees)
@example(tree=printing([3, _HUGE]))
@example(tree=printing([node("SubtractNumber", _HUGE, _HUGE)]))  # NaN
def test_evaluate_matches_the_scalar_pipeline(eleven_requests, tree):
    """evaluate() and record() against eval_tree, the scalar bounding and
    decoding loops and the reference simulator, memo and all."""
    ds, evaluators = eleven_requests
    raw = eval_tree(tree)
    for evaluator, model, kwargs in evaluators:
        got = evaluator.evaluate(tree)
        if not all(map(math.isfinite, raw)):
            assert got == (-math.inf, -1, -1)
            with pytest.raises(ValueError):
                bound_array(raw)
            continue
        bounded = bound_vector(raw)
        plan = AllocationPlan(decode_loop(bounded, ds))
        n_h, n_d = simulate(ds, plan, model, engine="reference", **kwargs).counts()
        assert got == (fitness_value(n_h, n_d, evaluator.config.w_c), n_h, n_d)
        rec = evaluator.record(tree, got, 0, 0)
        assert rec.vector == bounded
        assert rec.plan_digest == sha256_of_plan(ds, plan.slots)


@pytest.mark.parametrize("size", POPULATION_SIZES)
def test_tournaments_match_the_oracles(size):
    # few distinct scores and sizes, so ties decide many rounds; a kill
    # tournament that draws only the protected index draws again
    rng = random.Random(size)
    scores = [rng.choice((-math.inf, -3.0, -1.5, 0.0)) for _ in range(size)]
    sizes = [rng.choice((3, 5, 7)) for _ in range(size)]
    a, b = random.Random(7), random.Random(7)
    k = gp_engine.TOURNAMENT_SIZE
    for _ in range(500):
        best = gp_engine._tournament(a, scores, sizes, k)
        assert best == tournament_by_randrange(b, scores, sizes, k)
        protect = rng.randrange(size)
        victim = gp_engine._kill_tournament(a, scores, sizes, protect)
        assert victim == kill_tournament_by_randrange(b, scores, sizes, protect)
    assert a.getstate() == b.getstate()


class TestArchive:
    def test_run_pirs_merges_and_ranks(self, small_ds):
        arch = run_pirs(small_ds, quick_config(), seeds=[1, 2, 3])
        assert isinstance(arch, Archive)
        fits = [r.fitness for r in arch.records]
        assert fits == sorted(fits, reverse=True)
        assert {r.pir_id for r in arch.records} == {0, 1, 2}
        assert {r.seed for r in arch.records} == {1, 2, 3}

    def test_merge_order_invariance(self, small_ds):
        cfg = quick_config()
        collected = {}
        for pir_id, seed in enumerate([1, 2, 3]):
            recs = []
            evolve_pir(small_ds, cfg, seed, recs.append, pir_id=pir_id)
            collected[pir_id] = recs
        merged_a = sorted(
            collected[0] + collected[1] + collected[2],
            key=SolutionRecord.sort_key,
        )
        merged_b = sorted(
            collected[2] + collected[0] + collected[1],
            key=SolutionRecord.sort_key,
        )
        assert merged_a == merged_b
        arch = run_pirs(small_ds, cfg, seeds=[1, 2, 3])
        assert list(arch.records) == merged_a

    def test_equal_fitness_records_both_retained(self):
        a = SolutionRecord((0.5,), -1.0, 1, 1, 0, 1, "aa")
        b = SolutionRecord((0.7,), -1.0, 1, 1, 1, 2, "bb")
        merged = sorted([a, b], key=SolutionRecord.sort_key)
        assert len(merged) == 2

    def test_pareto_non_domination(self, small_ds):
        arch = run_pirs(small_ds, quick_config(budget=800), seeds=[1, 2])
        assert arch.pareto
        for rec in arch.pareto:
            for other in arch.records:
                strictly_better = (
                    other.n_d <= rec.n_d
                    and other.n_h <= rec.n_h
                    and (other.n_d < rec.n_d or other.n_h < rec.n_h)
                )
                assert not strictly_better

    def test_pareto_points_unique_and_sorted(self):
        recs = [
            SolutionRecord((0.1,), -2.0, 2, 1, 0, 1, "a"),
            SolutionRecord((0.2,), -2.0, 2, 1, 1, 1, "b"),
            SolutionRecord((0.3,), -3.0, 1, 3, 0, 1, "c"),
            SolutionRecord((0.4,), -9.0, 9, 9, 0, 1, "d"),
        ]
        front = pareto_front(recs)
        points = [(r.n_d, r.n_h) for r in front]
        assert points == [(1, 2), (3, 1)]
        assert front[0].plan_digest == "a"

    def test_early_stop_skips_later_pirs(self, small_ds):
        cfg = quick_config(budget=100_000, target_fitness=-1e9)
        arch = run_pirs(small_ds, cfg, seeds=[5, 6, 7])
        assert {r.pir_id for r in arch.records} == {0}


class TestPlanDigest:
    def test_digest_covers_dataset_and_slots(self, small_ds):
        slots = (0,) * request_index(small_ds).n_requests
        ds_hash = hashlib.sha256(small_ds.digest().encode())
        before = ds_hash.hexdigest()
        d1 = gp_engine._slots_digest(ds_hash, slots)
        assert d1 == sha256_of_plan(small_ds, slots)
        assert ds_hash.hexdigest() == before  # every record reuses the dataset half
        other = small_ds.with_taxonomy({20: 0.5})
        other_hash = hashlib.sha256(other.digest().encode())
        assert gp_engine._slots_digest(other_hash, slots) != d1
        assert gp_engine._slots_digest(ds_hash, (1,) + slots[1:]) != d1
