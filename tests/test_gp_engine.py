"""Evolution loop behaviour: determinism, emission rules, archive merging."""

import math
import random

import numpy as np
import pytest

from lockdownsched import gp_engine
from lockdownsched._simcore import bound_array, counts_for_slots, decode_slots
from lockdownsched.allocation import AllocationPlan, decode
from lockdownsched.dataset import generate_dataset, mark_apriori_infection
from lockdownsched.full_infection import build_pn_table
from lockdownsched.gp_engine import (
    Archive,
    GpConfig,
    SolutionRecord,
    evolve_pir,
    pareto_front,
    plan_digest,
    run_pirs,
)
from lockdownsched.gp_tree import (
    GpNode,
    constant,
    eval_tree_fast,
    make_vm_buffers,
    node,
    random_tree,
    sconstant,
)
from lockdownsched.simulator import (
    MODEL_FULL,
    MODEL_PARTIAL,
    fitness,
    fitness_value,
    simulate,
)


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
        assert fitness(outcome) == best.fitness
        assert best.plan_digest == plan_digest(small_ds, plan.slots)

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

    def test_seeding_phase_reaches_length(self, small_ds):
        cfg = quick_config(budget=4000, seed_len=12)
        best = evolve_pir(small_ds, cfg, seed=1)
        assert len(best.vector) >= 12
        assert math.isfinite(best.fitness)


class TestFitnessMemo:
    def test_one_simulation_per_distinct_plan(self, small_ds, monkeypatch):
        decoded, simulated = set(), []
        decode_slots, counts_for_slots = gp_engine.decode_slots, gp_engine.counts_for_slots

        def decode_spy(ctx, bounded):
            slots = decode_slots(ctx, bounded)
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
        monkeypatch.setattr(gp_engine, "MEMO_ENTRIES", 3)
        evaluator = gp_engine._Evaluator(small_ds, quick_config(), None)
        best = evolve_pir(small_ds, quick_config(), seed=5, evaluator=evaluator)
        assert 1 <= len(evaluator.memo) <= 3
        assert best == evolve_pir(small_ds, quick_config(), seed=5)

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


def printing(values, tail=None):
    """Tree printing [0.0001, *values]: a right-nested AddRecord chain.

    A value is an int for a Constant or any subtree, such as -1 * 0 for -0.0.
    """
    tree = tail if tail is not None else constant(0)
    for v in values:  # the innermost record is written first
        tree = node("AddRecord", v if isinstance(v, GpNode) else constant(v), tree)
    return tree


class TestScoringPath:
    """evaluate() against the pipeline it replaced: VM, bound, decode, week."""

    @pytest.fixture(params=[MODEL_PARTIAL, MODEL_FULL])
    def world(self, request, small_ds, small_full_ds, tiny_table):
        if request.param == MODEL_PARTIAL:
            return small_ds, quick_config(), None
        return small_full_ds, GpConfig(model=MODEL_FULL, q=5), tiny_table

    @staticmethod
    def old_score(evaluator, tree, buffers):
        with np.errstate(all="ignore"):
            raw = eval_tree_fast(tree, *buffers)
        if not np.isfinite(raw).all():
            return (-math.inf, -1, -1)
        slots = decode_slots(evaluator.ctx, bound_array(raw))
        n_h, n_d = counts_for_slots(evaluator.ctx, slots)
        return (fitness_value(n_h, n_d, evaluator.config.w_c), n_h, n_d)

    def test_random_trees(self, world):
        ds, cfg, table = world
        evaluator = gp_engine._Evaluator(ds, cfg, table)
        buffers = make_vm_buffers()
        rng = random.Random(17)
        trees = [
            random_tree(rng, rng.randint(1, 8), rng.choice(["grow", "full"]))
            for _ in range(150)
        ]
        for tree in trees + trees[:40]:  # the repeats are memo hits
            assert evaluator.evaluate(tree) == self.old_score(evaluator, tree, buffers)
        assert evaluator.vector_memo and evaluator.memo

    def test_edge_vectors(self, world):
        ds, cfg, table = world
        evaluator = gp_engine._Evaluator(ds, cfg, table)
        buffers = make_vm_buffers()
        n = evaluator.ctx.n_requests
        big = constant(128)
        for _ in range(8):
            big = node("MultiplyNumber", big, big)  # 128 ** 256 = inf
        neg_zero = node("MultiplyNumber", constant(-1), constant(0))
        cases = [
            (printing([3, big]), False),
            (printing([node("SubtractNumber", big, big)]), False),  # NaN
            (printing([neg_zero, 7, neg_zero]), True),
            (printing([0, 7, 0]), True),
            (printing([(i % 200) - 90 for i in range(n // 8 - 1)]), True),
            (printing([(i % 200) - 90 for i in range(n // 8)]), False),
            (printing([sconstant(i % 256) for i in range(n + 5)]), False),
        ]
        assert len(eval_tree_fast(cases[4][0], *buffers)) == n // 8
        for tree, keyed in cases:
            before = len(evaluator.vector_memo)
            assert evaluator.evaluate(tree) == self.old_score(evaluator, tree, buffers)
            assert len(evaluator.vector_memo) == before + keyed
        # a NaN or an infinity never enters either memo
        assert all(math.isfinite(f) for f, _, _ in evaluator.memo.values())

    def test_same_vector_decoded_once(self, small_ds, monkeypatch):
        decoded, simulated = [], []
        decode_real, counts_real = gp_engine.decode_slots, gp_engine.counts_for_slots

        def decode_spy(ctx, bounded):
            decoded.append(1)
            return decode_real(ctx, bounded)

        def counts_spy(ctx, slots):
            simulated.append(1)
            return counts_real(ctx, slots)

        monkeypatch.setattr(gp_engine, "decode_slots", decode_spy)
        monkeypatch.setattr(gp_engine, "counts_for_slots", counts_spy)
        evaluator = gp_engine._Evaluator(small_ds, quick_config(), None)
        a = printing([5, sconstant(40)], tail=constant(1))
        b = printing([5, sconstant(40)], tail=node("AddNumber", constant(2), constant(3)))
        vm = make_vm_buffers()
        printed = [0.0001, 5.0, 40 / 255.0]
        assert eval_tree_fast(a, *vm).tolist() == eval_tree_fast(b, *vm).tolist() == printed
        assert evaluator.evaluate(a) == evaluator.evaluate(b)
        assert (len(decoded), len(simulated)) == (1, 1)
        # a vector that only bounds alike is decoded again but not simulated
        c = printing([6, sconstant(40)], tail=constant(1))
        assert evaluator.evaluate(c) == evaluator.evaluate(a)
        assert (len(decoded), len(simulated)) == (2, 1)


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
        plan = AllocationPlan(tuple([0] * small_ds.n_requests()))
        d1 = plan_digest(small_ds, plan.slots)
        other = small_ds.with_taxonomy({20: 0.5})
        assert plan_digest(other, plan.slots) != d1
        slots2 = (1,) + plan.slots[1:]
        assert plan_digest(small_ds, slots2) != d1
