"""Acceptance suite: one test per shipped guarantee, tolerances as stated.

Run with ``pytest -v`` so each criterion reports exactly one PASSED/FAILED
line.  Each test also enforces its own runtime budget.
"""

import os
import time

import pytest

from lockdownsched._simcore import bound_array
from lockdownsched.allocation import AllocationPlan, decode, round_robin
from lockdownsched.dataset import (
    generate_dataset,
    mark_apriori_infection,
    parse_dataset,
    request_index,
)
from lockdownsched.experiment import ExperimentSpec, run_experiment, run_from_manifest
from lockdownsched.full_infection import FULL_RULES, analytic_pn, build_pn_table
from lockdownsched.gp_engine import GpConfig, run_pirs
from lockdownsched.gp_tree import compile_postfix, eval_tree, run_vm
from lockdownsched.partial_infection import (
    PARTIAL_RULES,
    EncounterGroup,
    encounter_pressure,
    g_factor,
)
from lockdownsched.simulator import (
    fitness_value,
    full_isolation,
    full_outcome,
    partial_isolation,
    partial_outcome,
    simulate,
)
from lockdownsched.full_infection import Status

from scalar_oracles import brute_force_pressure, labeling_term
from test_gp_tree import GOLDEN_TRACE, build_golden_tree
from test_simulator import SEVEN


def group_of(levels, s):
    return EncounterGroup(tuple(enumerate(levels)), s)


def test_criterion_1_closed_form_encounter_probabilities():
    started = time.perf_counter()
    expected = {1: 0.25, 2: 0.4375, 3: 0.5781, 20: 0.9968}
    for n, value in expected.items():
        closed_form = 1.0 - (3.0 / 4.0) ** n
        group = group_of([0.0] + [1.0] * n, s=4)
        assert encounter_pressure(group) == pytest.approx(closed_form, abs=1e-4)
        assert closed_form == pytest.approx(value, abs=1e-4)
        if n <= 3:
            # the exhaustive oracle is only tractable for small groups;
            # beyond that the telescoping g-factor sum is the same number
            assert brute_force_pressure(group) == pytest.approx(
                closed_form, abs=1e-4
            )
        else:
            assert sum(g_factor(4, j) for j in range(1, n + 1)) == pytest.approx(
                closed_form, abs=1e-12
            )
    assert time.perf_counter() - started < 1.0


def test_criterion_2_worked_example_suite():
    started = time.perf_counter()
    seven = group_of([0.3, 0.6, 1.0, 0.0, 0.0, 0.0, 0.0], s=6)
    assert encounter_pressure(seven) == pytest.approx(0.285, abs=1e-3)
    assert encounter_pressure(
        group_of([0.03, 0.04, 0.01], s=4)
    ) == pytest.approx(0.0155, abs=1e-3)
    heavy = group_of([0.95, 0.98, 0.01], s=4)
    assert encounter_pressure(heavy) == pytest.approx(0.4189, abs=1e-3)
    assert encounter_pressure(
        group_of([0.01, 1.00, 0.01], s=4)
    ) == pytest.approx(0.2493, abs=1e-3)
    assert encounter_pressure(
        group_of([0.01, 0.98, 0.03, 0.05], s=4)
    ) == pytest.approx(0.2560, abs=1e-3)
    assert labeling_term(heavy, "ISI") == pytest.approx(0.0048, abs=1e-3)

    # four heavily infected persons: the sorted-contribution rule yields
    # 0.5620; the figure 0.5708 quoted alongside the original example is a
    # known transcription inconsistency and is intentionally not reproduced
    four = group_of([0.01, 0.98, 0.97, 0.99], s=4)
    p4 = encounter_pressure(four)
    assert p4 == pytest.approx(0.5620, abs=1e-3)
    assert abs(p4 - 0.5708) > 5e-3

    # the level update I' = p(1-I) + I, as both engines apply it when the
    # seven share one supermarket slot
    world = parse_dataset(SEVEN).with_taxonomy({20: 0.3, 30: 0.6, 40: 1.0})
    for engine in ("reference", "kernel"):
        updated = simulate(
            world, AllocationPlan((0,) * 7), "partial", s=6, engine=engine
        ).final_levels
        assert updated[2] == 1.0
        for pi in (3, 4, 5, 6):
            assert updated[pi] == pytest.approx(0.285, abs=1e-3)
        assert updated[0] == pytest.approx(0.5, abs=1e-3)
        assert updated[1] == pytest.approx(0.714, abs=1e-3)
    assert time.perf_counter() - started < 1.0


def test_criterion_3_monte_carlo_tables():
    for q in (5, 10, 30, 40):
        started = time.perf_counter()
        table = build_pn_table(q, 100_000, seed=0)
        for n in range(1, 21):
            oracle = analytic_pn(n, q)
            assert table.probs[n - 1] == pytest.approx(oracle, abs=0.015), (
                f"q={q} n={n}"
            )
        if q == 40:
            assert table.probs[0] == pytest.approx(0.3557, abs=0.01)
        assert time.perf_counter() - started < 30.0


# age: (isolate above, isolate above with low health, outcome above,
#       immune when health above, recover when health above)
FRACTIONAL_RULE_TABLE = {
    20: (0.97, 0.95, 0.95, 7.0, 3.0),
    30: (0.95, 0.92, 0.90, 8.0, 4.0),
    40: (0.92, 0.87, 0.85, 8.0, 4.0),
    50: (0.85, 0.80, 0.80, 8.0, 4.0),
    60: (0.75, 0.70, 0.75, 9.0, 5.0),
    70: (0.65, 0.60, 0.70, 9.5, 7.5),
    80: (0.65, 0.60, 0.65, None, 8.5),
}

# age: (isolate below after day 1, isolate below after day 2,
#       immune when health above, recover when health above)
STANDARD_RULE_TABLE = {
    20: (5.0, 5.5, 7.0, 3.0),
    30: (6.0, 6.5, 8.0, 3.5),
    40: (6.5, 7.0, 8.0, 4.0),
    50: (7.0, 8.0, 8.0, 4.0),
    60: (7.0, 8.0, 8.5, 4.5),
    70: (7.0, 8.0, 9.5, 7.0),
    80: (7.0, 8.0, None, 8.5),
}

EPS = 1e-6


def test_criterion_4_rule_table_boundaries():
    started = time.perf_counter()
    assert set(PARTIAL_RULES) == set(FRACTIONAL_RULE_TABLE)
    assert set(FULL_RULES) == set(STANDARD_RULE_TABLE)
    cases = 0

    for age, (iso_hi, iso_lo, out_thr, imm, rec) in FRACTIONAL_RULE_TABLE.items():
        # isolation band edges: above iso_hi always isolates; the
        # (iso_lo, iso_hi] band isolates only below the health cap
        checks = [
            (iso_hi + EPS, 9.9, True),
            (iso_hi, 9.9, False),
            (iso_hi, 7.0, True),
            (iso_lo + EPS, 7.0, True),
            (iso_lo + EPS, 7.0 + EPS, False),
            (iso_lo, 5.0, False),
        ]
        for level, health, expect in checks:
            assert partial_isolation(age, level, health) is expect, (age, level, health)
            cases += 1
        # outcome band edges: below out_thr nothing is reported; health
        # decides immune vs ICU recovery vs death, upper-inclusive
        assert partial_outcome(age, out_thr, 1.0) == "none"
        assert partial_outcome(age, out_thr + EPS, rec) == "icu_death"
        assert partial_outcome(age, out_thr + EPS, rec + EPS) == "icu_recovered"
        cases += 3
        if imm is None:
            assert partial_outcome(age, out_thr + EPS, 10.0) == "icu_recovered"
        else:
            assert partial_outcome(age, out_thr + EPS, imm) == "icu_recovered"
            assert partial_outcome(age, out_thr + EPS, imm + EPS) == "immune"
            cases += 1
        cases += 1

    for age, (day1, day2, imm, rec) in STANDARD_RULE_TABLE.items():
        checks = [
            (1, day1 - EPS, False),
            (2, day1 - EPS, True),
            (2, day1, False),
            (3, day2 - EPS, True),
            (3, day2, False),
        ]
        for days, health, expect in checks:
            assert full_isolation(age, days, health) is expect, (age, days, health)
            cases += 1
        assert full_outcome(age, Status.S, 1.0) == "none"
        assert full_outcome(age, Status.I, rec) == "icu_death"
        assert full_outcome(age, Status.I, rec + EPS) == "icu_recovered"
        cases += 3
        if imm is None:
            assert full_outcome(age, Status.I, 10.0) == "icu_recovered"
        else:
            assert full_outcome(age, Status.I, imm) == "icu_recovered"
            assert full_outcome(age, Status.I, imm + EPS) == "immune"
            cases += 1
        cases += 1

    assert cases >= 40
    assert time.perf_counter() - started < 1.0


NINE_REQUESTS = """\
1 20 9.0 0 MF1:PC1:NF1 | |
2 30 8.0 0 MS2:PC2:NS1 | |
3 40 7.0 0 AD1:PF2 | |
4 50 6.5 0 MF2 | |
"""


def test_criterion_5_baseline_clocks_and_fitness():
    ds = parse_dataset(NINE_REQUESTS)
    assert request_index(ds).n_requests == 9
    # slot clocks: 0=8-10h, 1=10-12h, 2=12-14h, 3=14-16h, 4=16-18h,
    # 5=18-20h, 6=20-22h, 7=22-24h
    assert round_robin(ds, "comp1").slots == (0, 2, 5, 0, 2, 5, 0, 2, 0)
    assert round_robin(ds, "comp2").slots == (0, 2, 5, 1, 4, 7, 0, 2, 1)
    assert round_robin(ds, "comp3").slots == (0, 2, 5, 1, 3, 6, 0, 4, 0)
    assert fitness_value(9, 7, 0.65) == -7.70
    assert fitness_value(3, 0, 0.65) == -1.05


CANONICAL_SEED = 12345
PRIORS = {20: 0.01, 40: 0.03, 50: 0.02}


def _baseline_cost(ds, model, **kwargs):
    outcome = simulate(ds, round_robin(ds, "comp3"), model, **kwargs)
    n_h, n_d = outcome.counts()
    return -fitness_value(n_h, n_d)


def test_criterion_6_evolved_plans_beat_round_robin():
    started = time.perf_counter()
    pir_seeds = tuple(range(1, 9))

    ds = generate_dataset(seed=CANONICAL_SEED).with_taxonomy(PRIORS)

    comp3_s4 = _baseline_cost(ds, "partial", s=4)
    cfg = GpConfig(
        model="partial", s=4, population=500, budget=200_000,
        target_fitness=-0.5 * comp3_s4,
    )
    best_s4 = run_pirs(ds, cfg, pir_seeds).records[0]
    assert -best_s4.fitness <= 0.5 * comp3_s4, (best_s4, comp3_s4)

    cfg6 = GpConfig(
        model="partial", s=6, population=500, budget=200_000, target_nd=0,
    )
    best_s6 = run_pirs(ds, cfg6, pir_seeds).records[0]
    assert best_s6.n_d == 0, best_s6

    full_ds = mark_apriori_infection(
        generate_dataset(seed=CANONICAL_SEED), 0.053, 0.021, seed=CANONICAL_SEED
    )
    table = build_pn_table(5, 100_000, seed=0)
    comp3_full = _baseline_cost(full_ds, "full", table=table)
    cfg_full = GpConfig(
        model="full", q=5, population=500, budget=200_000,
        target_fitness=-0.5 * comp3_full,
    )
    best_full = run_pirs(full_ds, cfg_full, pir_seeds, table=table).records[0]
    assert -best_full.fitness <= 0.5 * comp3_full, (best_full, comp3_full)

    # evolved plans must replay to their recorded outcome
    plan = decode(best_s4.vector, ds)
    assert simulate(ds, plan, "partial", s=4).counts() == (best_s4.n_h, best_s4.n_d)
    assert time.perf_counter() - started < 15 * 60


def test_criterion_7_manifest_replay_determinism(tmp_path):
    spec = ExperimentSpec(
        model="partial",
        generate_seed=CANONICAL_SEED,
        s=4,
        priors=dict(PRIORS),
        pir_seeds=(1, 2),
        population=60,
        budget=2_000,
    )
    original = tmp_path / "original"
    run_experiment(spec, original)
    replay_a = tmp_path / "replay_a"
    replay_b = tmp_path / "replay_b"
    run_from_manifest(original / "manifest.json", replay_a)
    run_from_manifest(original / "manifest.json", replay_b)
    compared = 0
    for root, _, files in os.walk(original):
        for name in files:
            rel = os.path.relpath(os.path.join(root, name), original)
            original_bytes = (original / rel).read_bytes()
            assert (replay_a / rel).read_bytes() == original_bytes, rel
            assert (replay_b / rel).read_bytes() == original_bytes, rel
            compared += 1
    assert compared >= 10


def test_criterion_8_tree_machine_golden_trace():
    trace = []
    value, state = run_vm(compile_postfix(build_golden_tree()), trace)
    assert state.result() == [0.0001, 16.0, 0.4]
    assert value == 0.0
    assert (state.p_r, state.p_z) == (3, 3)
    assert (state.m1, state.m2) == (3.0, 2.0)
    assert trace == GOLDEN_TRACE
    bounded = bound_array(eval_tree(build_golden_tree()))
    assert bounded.tolist() == [0.0001, 0.0001, 0.4]
