import functools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lockdownsched import _simcore, partial_infection
from lockdownsched._simcore import build_context
from lockdownsched.allocation import AllocationPlan, decode, round_robin
from lockdownsched.dataset import (
    AGE_GROUPS,
    INFECTED,
    establishment_id,
    generate_dataset,
    parse_dataset,
)
from lockdownsched.full_infection import (
    MAX_TABLE_N,
    PnTable,
    Status,
    build_pn_table,
)
from lockdownsched.partial_infection import EncounterGroup, encounter_pressure
from lockdownsched.simulator import (
    MODEL_FULL,
    MODEL_PARTIAL,
    OUTCOME_ICU_DEATH,
    OUTCOME_ICU_RECOVERED,
    OUTCOME_IMMUNE,
    OUTCOME_NONE,
    fitness_value,
    full_isolation,
    full_outcome,
    partial_isolation,
    partial_outcome,
    simulate,
)

from scalar_oracles import walk_requests


def attendees(outcome, day, slot, est):
    """The attendee count of one cell: occupancy holds one count per cell,
    numbered day * 96 + slot * 12 + establishment."""
    return outcome.occupancy[day * 96 + slot * 12 + est]


def make_table(p_by_n, q=5):
    probs = [0.9] * 20
    for n, p in p_by_n.items():
        probs[n - 1] = p
    return PnTable(q, tuple(probs))


SEVEN = """
1 20 9.0 0 MF1 | |
2 30 8.0 0 MF1 | |
3 40 6.0 0 MF1 | |
4 50 7.0 0 MF1 | |
5 50 7.0 0 MF1 | |
6 50 7.0 0 MF1 | |
7 50 7.0 0 MF1 | |
"""


@pytest.fixture()
def seven_ds():
    ds = parse_dataset(SEVEN)
    return ds.with_taxonomy({20: 0.3, 30: 0.6, 40: 1.0})


def expected_after_one_encounter(levels, s):
    p = encounter_pressure(EncounterGroup(tuple(enumerate(levels)), s))
    return [p * (1.0 - lvl) + lvl for lvl in levels]


class TestPartialSimulation:
    def test_shared_morning_slot_one_encounter(self, seven_ds):
        plan = AllocationPlan((0,) * 7)
        out = simulate(seven_ds, plan, MODEL_PARTIAL, s=6, engine="reference")
        start = [0.3, 0.6, 1.0, 0.0, 0.0, 0.0, 0.0]
        expected = expected_after_one_encounter(start, 6)
        assert list(out.final_levels) == pytest.approx(expected, abs=1e-12)
        # the third of the seven visitors crosses the isolation threshold
        assert out.final_levels[0] == pytest.approx(0.4993, abs=1e-3)
        assert out.final_levels[1] == pytest.approx(0.7139, abs=1e-3)
        assert out.isolation_day == (-1, -1, 0, -1, -1, -1, -1)
        assert out.classifications[2] == OUTCOME_ICU_RECOVERED
        assert out.counts() == (1, 0)
        assert attendees(out, 0, 0, 0) == 7
        assert fitness_value(*out.counts()) == -0.35

    def test_trajectory_shape_and_monotone(self, seven_ds):
        plan = AllocationPlan((0,) * 7)
        out = simulate(seven_ds, plan, MODEL_PARTIAL, s=6, engine="reference")
        assert len(out.trajectory) == 12
        assert all(len(row) == 7 for row in out.trajectory)
        for a, b in zip(out.trajectory, out.trajectory[1:]):
            assert all(x <= y + 1e-15 for x, y in zip(a, b))
        # age-50 average after the first four hours
        assert out.trajectory[0][3] == pytest.approx(out.final_levels[3])

    def test_three_person_low_levels_update(self):
        # one supermarket visit each, on Monday: one encounter at s=4
        text = "1 20 9.0 0 MF1 | |\n2 30 9.0 0 MF1 | |\n3 40 9.0 0 MF1 | |\n"
        ds = parse_dataset(text).with_taxonomy({20: 0.03, 30: 0.04, 40: 0.01})
        for engine in ("reference", "kernel"):
            out = simulate(ds, AllocationPlan((0,) * 3), MODEL_PARTIAL, s=4, engine=engine)
            assert out.final_levels[0] == pytest.approx(0.0450, abs=1e-3)
            assert out.final_levels[1] == pytest.approx(0.0549, abs=1e-3)
            assert out.final_levels[2] == pytest.approx(0.0253, abs=1e-3)

    def test_zero_priors_stay_zero(self, seven_ds):
        ds = seven_ds.with_taxonomy({})
        plan = AllocationPlan((0,) * 7)
        out = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
        assert set(out.final_levels) == {0.0}
        assert out.counts() == (0, 0)
        assert fitness_value(*out.counts()) == 0.0

    def test_separate_slots_no_spread(self, seven_ds):
        # slots 0 and 1 at distinct moments mean nobody shares a cell
        text = "\n".join(
            f"{i} 20 9.0 0 M{k}{1 + (i % 2)} | |"
            for i, k in zip(range(1, 7), "FCPDRS")
        )
        ds = parse_dataset(text).with_taxonomy({20: 0.25})
        out = simulate(
            ds, AllocationPlan((0,) * 6), MODEL_PARTIAL, s=4, engine="reference"
        )
        assert set(out.final_levels) == {0.25}
        assert out.counts() == (0, 0)

    def test_isolated_person_skips_later_days(self):
        text = """
        1 40 6.0 0 MF1 | MF1 |
        2 50 9.0 0 | MF1 |
        3 40 6.5 0 MF1 | |
        """
        ds = parse_dataset(text).with_taxonomy({40: 0.95})
        plan = AllocationPlan((0, 0, 0, 0))
        out = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
        # both age-40 visitors exceed 0.92 after meeting on Monday and
        # withdraw, so Tuesday's supermarket has a lone healthy visitor
        assert out.isolation_day == (0, -1, 0)
        assert attendees(out, 1, 0, 0) == 1
        assert out.final_levels[1] == 0.0

    def test_duplicate_requests_same_cell_count_once(self):
        text = "1 20 9.0 0 MF1:MF1 | |\n2 20 9.0 0 MF1 | |\n"
        ds = parse_dataset(text).with_taxonomy({20: 0.5})
        plan = AllocationPlan((0, 0, 0))
        out = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
        assert attendees(out, 0, 0, 0) == 2
        # pressure of a two-person encounter, not a phantom three-person one
        expected = expected_after_one_encounter([0.5, 0.5], 4)
        assert list(out.final_levels) == pytest.approx(expected)


class TestFullSimulation:
    def test_three_day_transmission_chain(self):
        text = """
        1 20 4.5 1 MF1 | MF1 | MF1
        2 20 8.0 0 MF1 | MF1 | MF1
        3 30 9.0 0 MF1 | MF1 | MF1
        4 30 9.5 0 MF1 | MF1 | MF1
        """
        ds = parse_dataset(text)
        table = make_table({1: 0.5, 2: 0.66})
        plan = AllocationPlan((0,) * 12)
        out = simulate(ds, plan, MODEL_FULL, table=table, engine="reference")
        # Monday: one infected, three susceptible, floor(0.5*3) = 1 catches it;
        # Tuesday: two infected infect one more; the index case isolates after
        # two full days; Wednesday's lone susceptible escapes (floor(0.66*1)=0)
        assert out.isolation_day == (1, -1, -1, -1)
        assert out.final_status[0] == ("I", 3)
        assert out.final_status[1] == ("I", 3)
        assert out.final_status[2] == ("I", 2)
        assert out.final_status[3] == ("S", 0)
        assert out.classifications == (
            OUTCOME_ICU_RECOVERED,
            OUTCOME_IMMUNE,
            OUTCOME_IMMUNE,
            OUTCOME_NONE,
        )
        assert out.counts() == (1, 0)
        assert attendees(out, 2, 0, 0) == 3

    def test_immune_flag_blocks_infection(self):
        text = """
        1 20 9.0 1 MF1 | |
        2 20 9.0 2 MF1 | |
        3 20 2.0 2 MF1 | |
        """
        ds = parse_dataset(text)
        out = simulate(
            ds,
            AllocationPlan((0, 0, 0)),
            MODEL_FULL,
            table=make_table({1: 1.0}),
            engine="reference",
        )
        assert out.final_status[1] == ("R", 0)
        assert out.final_status[2] == ("R", 0)
        # a-priori immune persons never reach the outcome bands
        assert out.counts() == (0, 0)
        assert out.classifications == (OUTCOME_IMMUNE, OUTCOME_NONE, OUTCOME_NONE)

    def test_apriori_infected_still_classified(self):
        ds = parse_dataset("1 80 2.0 1 | |\n")
        out = simulate(
            ds, AllocationPlan(()), MODEL_FULL, table=make_table({}), engine="reference"
        )
        assert out.classifications == (OUTCOME_ICU_DEATH,)
        assert out.counts() == (0, 1)
        assert fitness_value(*out.counts()) == -0.65


class TestRules:
    def test_partial_isolation_bands(self):
        assert partial_isolation(20, 0.98, 10.0)
        assert not partial_isolation(20, 0.96, 8.0)
        assert partial_isolation(20, 0.96, 7.0)
        assert not partial_isolation(20, 0.95, 7.0)
        assert partial_isolation(20, 0.97, 7.0)
        assert not partial_isolation(20, 0.97, 7.01)
        assert partial_isolation(60, 0.7001, 6.9)
        assert not partial_isolation(60, 0.70, 6.9)

    def test_full_isolation_bands(self):
        assert full_isolation(30, 2, 5.9)
        assert not full_isolation(30, 2, 6.0)
        assert not full_isolation(30, 1, 1.0)
        assert full_isolation(30, 3, 6.4)
        assert not full_isolation(30, 3, 6.5)

    def test_partial_outcomes(self):
        assert partial_outcome(80, 0.70, 9.0) == OUTCOME_ICU_RECOVERED
        assert partial_outcome(80, 0.70, 8.5) == OUTCOME_ICU_DEATH
        assert partial_outcome(20, 0.95, 1.0) == OUTCOME_NONE
        assert partial_outcome(20, 0.951, 3.0) == OUTCOME_ICU_DEATH
        assert partial_outcome(20, 0.951, 3.01) == OUTCOME_ICU_RECOVERED
        assert partial_outcome(20, 0.951, 7.01) == OUTCOME_IMMUNE
        assert partial_outcome(60, 0.76, 9.0) == OUTCOME_ICU_RECOVERED
        assert partial_outcome(60, 0.76, 9.01) == OUTCOME_IMMUNE

    def test_full_outcomes(self):
        assert full_outcome(20, Status.I, 2.5) == OUTCOME_ICU_DEATH
        assert full_outcome(20, Status.S, 2.5) == OUTCOME_NONE
        assert full_outcome(20, Status.R, 2.5) == OUTCOME_NONE
        assert full_outcome(80, Status.I, 10.0) == OUTCOME_ICU_RECOVERED
        assert full_outcome(70, Status.I, 9.51) == OUTCOME_IMMUNE


class TestFitness:
    def test_worked_values(self):
        assert fitness_value(9, 7) == -7.70
        assert fitness_value(3, 0) == -1.05
        assert fitness_value(44, 23) == -30.35
        assert fitness_value(0, 0) == 0.0

    def test_monotone_in_both_counts(self):
        assert fitness_value(2, 3) > fitness_value(3, 3)
        assert fitness_value(2, 3) > fitness_value(2, 4)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            fitness_value(1, 1, w_c=1.5)


class TestArgumentChecks:
    def test_model_parameter_requirements(self, seven_ds):
        plan = AllocationPlan((0,) * 7)
        with pytest.raises(ValueError):
            simulate(seven_ds, plan, MODEL_PARTIAL)
        with pytest.raises(ValueError):
            simulate(seven_ds, plan, MODEL_FULL)
        with pytest.raises(ValueError):
            simulate(seven_ds, plan, "other", s=4)
        with pytest.raises(ValueError):
            simulate(seven_ds, AllocationPlan((0,) * 6), MODEL_PARTIAL, s=4)
        for engine in ("turbo", "auto"):
            with pytest.raises(ValueError, match="engine"):
                simulate(seven_ds, plan, MODEL_PARTIAL, s=4, engine=engine)

    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    def test_plan_slots_must_be_whole_numbers(self, engine):
        # the kernel used to truncate such slots and the reference to seat
        # nobody, so the two engines scored one plan differently
        ds = generate_dataset(3).with_taxonomy({20: 0.05, 40: 0.1})
        slots = round_robin(ds, "comp3").slots
        walk = walk_requests(ds)
        shifted = AllocationPlan(tuple(slot + 0.5 for slot in slots))
        message = f"^slot {slots[0] + 0.5} is not a whole number for person 0 day 0$"
        with pytest.raises(ValueError, match=message):
            simulate(ds, shifted, MODEL_PARTIAL, s=4, engine=engine)
        pi, day, _ = walk[700]
        with_nan = AllocationPlan(slots[:700] + (math.nan,) + slots[701:])
        message = f"^slot nan is not a whole number for person {ds.persons[pi].id} day {day}$"
        with pytest.raises(ValueError, match=message):
            simulate(ds, with_nan, MODEL_PARTIAL, s=4, engine=engine)
        # whole numbers held as floats are slots like any other
        as_floats = AllocationPlan(tuple(float(slot) for slot in slots))
        assert simulate(ds, as_floats, MODEL_PARTIAL, s=4, engine=engine) == simulate(
            ds, AllocationPlan(slots), MODEL_PARTIAL, s=4, engine=engine
        )


def random_dataset(rng):
    ages = (20, 30, 40, 50, 60, 70, 80)
    rows = []
    for pid in range(1, rng.randint(8, 40)):
        age = rng.choice(ages)
        health = round(rng.uniform(1.0, 10.0), 1)
        flag = rng.choice((0, 0, 0, 1, 2))
        days = []
        for _ in range(3):
            reqs = [
                rng.choice("MPNA") + rng.choice("FCPDRS") + rng.choice("12")
                for _ in range(rng.randint(0, 3))
            ]
            days.append(":".join(reqs))
        rows.append(f"{pid} {age} {health} {flag} {days[0]} | {days[1]} | {days[2]}")
    ds = parse_dataset("\n".join(rows))
    priors = {
        age: round(rng.uniform(0.0, 0.9), 3) for age in ages if rng.random() < 0.6
    }
    return ds.with_taxonomy(priors)


# Worlds for the engine-agreement property: few establishments and windows,
# so cells crowd, and a row is (age, health, immunity flag, day requests).
_request = st.builds("{}{}1".format, st.sampled_from("MAPN"), st.sampled_from("FC"))
_person = st.tuples(
    st.sampled_from(AGE_GROUPS),
    st.sampled_from((1.0, 2.5, 4.0, 5.5, 6.5, 7.0, 8.0, 9.0, 10.0)),
    st.sampled_from((0, 0, 1, 1, 2)),
    st.tuples(*[st.lists(_request, max_size=3).map(":".join)] * 3),
)
_priors = st.dictionaries(
    st.sampled_from(AGE_GROUPS),
    st.sampled_from((-0.0, 0.2, 0.5, 0.9, 0.95, 0.99, 1.0)),
)
_vector = st.lists(st.floats(0.0001, 0.9999), min_size=1, max_size=6)


def world(rows, priors, ids=None):
    """A dataset of rows in order; person i has id ids[i], or i + 1."""
    ids = range(1, len(rows) + 1) if ids is None else ids
    lines = [
        f"{pid} {age} {health} {flag} {d0} | {d1} | {d2}"
        for pid, (age, health, flag, (d0, d1, d2)) in zip(ids, rows)
    ]
    return parse_dataset("\n".join(lines)).with_taxonomy(priors)


def crowd(n_infected):
    """n infected share one supermarket slot with two susceptibles, each
    listed twice on Monday, and one person requests nothing."""
    return (
        [(30, 9.0, 1, ("MF1:MF1", "MF1", "MF1"))] * n_infected
        + [(20, 8.0, 0, ("MF1:MF1", "MF1", ""))] * 2
        + [(50, 3.0, 0, ("", "", ""))]
    )


CROWD = crowd(22)
# sick, highly infected visitors isolate after Monday or Tuesday
ISOLATING = [
    (40, 5.0, 1, ("MF1", "MF1", "MF1")),
    (40, 6.0, 0, ("MF1:AC1", "MF1", "MF1")),
    (70, 9.0, 0, ("MF1", "MF1:MF1", "MF1")),
    (20, 4.0, 1, ("AC1", "AC1", "AC1")),
]


# four visitors of one supermarket slot on Monday, under the priors of
# ONE_CELL_PRIORS; -0.0 passes check_priors and must keep its sign
ONE_CELL = [(age, 9.0, 0, ("MF1", "", "")) for age in (20, 30, 40, 50)]
ONE_CELL_PRIORS = {
    "negative-zero": {20: -0.0, 30: -0.0},
    "negative-zero-mixed": {20: -0.0, 30: 0.5},
    # the pressure 5e-324 / 4 rounds to 0.0, which leaves every level alone
    "underflow": {20: -0.0, 30: 5e-324},
    "all-full": {age: 1.0 for age in AGE_GROUPS},
    "tied-minimum": {20: 0.2, 30: 0.2, 40: 0.6, 50: 0.9},
    "zeros-mixed": {30: 0.5, 40: 0.3},
}
# three meet daily; the sick, highly infected first one isolates after Monday
# (fractional) or Tuesday (standard), which leaves a group of two
SHRINKING = [
    (20, 4.0, 1, ("MF1", "MF1", "MF1")),
    (30, 9.0, 1, ("MF1", "MF1", "MF1")),
    (40, 9.0, 0, ("MF1", "MF1", "MF1")),
]
SHRINKING_PRIORS = {20: 0.99, 30: 0.2, 40: 0.5}


def bits(out):
    """What == on SimOutcome cannot see: the sign of a zero level."""
    return repr(out.final_levels), repr(out.trajectory), out.classifications


class TestEngineAgreement:
    TABLE = make_table({1: 0.31, 2: 0.52, 3: 0.66, 4: 0.74, 5: 0.81})

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_person, min_size=1, max_size=30), _priors, _vector)
    @example(CROWD, {30: 0.5}, [0.3])
    @example(crowd(20), {30: 0.5}, [0.3])
    @example(CROWD, {20: 0.2, 30: 0.99}, [0.7, 0.2])
    @example(CROWD, {age: 1.0 for age in AGE_GROUPS}, [0.3])
    @example(ISOLATING, {40: 0.95, 70: 0.5, 20: 0.99}, [0.1])
    @example(ISOLATING, {}, [0.6, 0.1])
    @example([(20, 1.0, 0, ("", "", ""))], {}, [0.5])  # no requests at all
    @example(ONE_CELL, ONE_CELL_PRIORS["negative-zero"], [0.3])
    @example(ONE_CELL, ONE_CELL_PRIORS["negative-zero-mixed"], [0.3])
    @example(ONE_CELL, ONE_CELL_PRIORS["underflow"], [0.3])
    @example(ONE_CELL, ONE_CELL_PRIORS["all-full"], [0.3])
    @example(ONE_CELL, ONE_CELL_PRIORS["tied-minimum"], [0.3])
    @example(ONE_CELL, ONE_CELL_PRIORS["zeros-mixed"], [0.3])
    @example(SHRINKING, SHRINKING_PRIORS, [0.3])
    def test_kernel_matches_reference_property(self, rows, priors, vector):
        ds = world(rows, priors)
        plan = decode(vector, ds)
        ref_p = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
        ker_p = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="kernel")
        assert ker_p == ref_p and bits(ker_p) == bits(ref_p)
        # I' = p(1-I) + I with p in [0, 1]: no level leaves [start, 1] and no
        # age group's average falls
        start = [ds.taxonomy_infection.get(p.age_group, 0.0) for p in ds.persons]
        for before, after in zip(start, ref_p.final_levels):
            assert before - 1e-15 <= after <= 1.0 + 1e-15
        for earlier, later in zip(ref_p.trajectory, ref_p.trajectory[1:]):
            assert all(x <= y + 1e-15 for x, y in zip(earlier, later))
        ref_f = simulate(ds, plan, MODEL_FULL, table=self.TABLE, engine="reference")
        assert simulate(ds, plan, MODEL_FULL, table=self.TABLE, engine="kernel") == ref_f

    def test_examples_reach_the_edge_cases(self):
        # the explicit examples above really hit the cases they are named for
        ds = world(CROWD, {age: 0.5 for age in AGE_GROUPS})
        plan = decode([0.3], ds)
        part = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="kernel")
        full = simulate(ds, plan, MODEL_FULL, table=self.TABLE, engine="kernel")
        assert attendees(part, 0, 0, 0) == 24
        # 22 infected exceed the 20-entry table, so p = 1 infects both
        assert full.final_status[22:24] == (("I", 3), ("I", 3))
        assert part.final_levels[24] == 0.5
        iso = world(ISOLATING, {40: 0.95, 70: 0.5, 20: 0.99})
        plan = decode([0.1], iso)
        part = simulate(iso, plan, MODEL_PARTIAL, s=4, engine="kernel")
        full = simulate(iso, plan, MODEL_FULL, table=self.TABLE, engine="kernel")
        assert part.isolation_day == (0, 0, -1, 0) and attendees(part, 1, 0, 0) < 3
        assert full.isolation_day == (1, -1, -1, 1)
        for name, priors in ONE_CELL_PRIORS.items():
            one = world(ONE_CELL, priors)
            part = simulate(one, decode([0.3], one), MODEL_PARTIAL, s=4, engine="kernel")
            assert attendees(part, 0, 0, 0) == 4
            # the -0.0 visitor keeps the sign unless some pressure reaches them
            kept = name in ("negative-zero", "underflow")
            assert (repr(part.final_levels[0]) == "-0.0") == kept
        shrink = world(SHRINKING, SHRINKING_PRIORS)
        plan = decode([0.3], shrink)
        part = simulate(shrink, plan, MODEL_PARTIAL, s=4, engine="kernel")
        full = simulate(shrink, plan, MODEL_FULL, table=self.TABLE, engine="kernel")
        assert [attendees(part, day, 0, 0) for day in range(3)] == [3, 2, 2]
        assert [attendees(full, day, 0, 0) for day in range(3)] == [3, 3, 2]
        assert (part.isolation_day, full.isolation_day) == ((0, -1, -1), (1, -1, -1))

    def test_kernel_matches_reference_partial_and_full(self):
        rng = random.Random(20210621)
        table = make_table({1: 0.31, 2: 0.52, 3: 0.66, 4: 0.74, 5: 0.81})
        for trial in range(12):
            ds = random_dataset(rng)
            vec = [rng.uniform(0.0001, 0.9999) for _ in range(rng.randint(1, 9))]
            plan = decode(vec, ds)
            ref_p = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
            ker_p = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="kernel")
            assert ref_p == ker_p
            ref_f = simulate(ds, plan, MODEL_FULL, table=table, engine="reference")
            ker_f = simulate(ds, plan, MODEL_FULL, table=table, engine="kernel")
            assert ref_f == ker_f

    def test_kernel_matches_reference_round_robin(self, seven_ds):
        for variant in ("comp1", "comp2", "comp3"):
            plan = round_robin(seven_ds, variant)
            ref = simulate(seven_ds, plan, MODEL_PARTIAL, s=6, engine="reference")
            ker = simulate(seven_ds, plan, MODEL_PARTIAL, s=6, engine="kernel")
            assert ref == ker

    def test_simulate_is_deterministic(self, seven_ds):
        plan = AllocationPlan((0,) * 7)
        a = simulate(seven_ds, plan, MODEL_PARTIAL, s=6)
        b = simulate(seven_ds, plan, MODEL_PARTIAL, s=6)
        assert a == b


def test_kernel_follows_the_isolation_health_cap(monkeypatch):
    # both engines read partial_infection.ISOLATION_HEALTH_CAP; raised to 9.0
    # it lets the 70-year-old of health 9.0 isolate in the lower band
    ds = world(ISOLATING, {40: 0.95, 70: 0.5, 20: 0.99})
    plan = decode([0.1], ds)
    before = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
    monkeypatch.setattr(partial_infection, "ISOLATION_HEALTH_CAP", 9.0)
    ref = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
    assert (before.isolation_day[2], ref.isolation_day[2]) == (-1, 0)
    assert simulate(ds, plan, MODEL_PARTIAL, s=4, engine="kernel") == ref


# name -> (table, its min_group): the benchmark's q=4 table, a crowded q=40
# one, the agreement table, an all-zero table (p = 1 only past its end) and
# one where a single infected person infects anyone they meet
STANDARD_TABLES = {
    "q4": (lambda: build_pn_table(4, 100_000, seed=0), 11),
    "q40": (lambda: build_pn_table(40, 20_000, seed=0), 4),
    "agreement": (lambda: TestEngineAgreement.TABLE, 4),
    "zeros": (lambda: make_table({n: 0.0 for n in range(1, 21)}), 22),
    "p1_one": (lambda: make_table({1: 1.0}), 2),
}


@functools.cache
def standard_table(name):
    return STANDARD_TABLES[name][0]()


def threshold_rows(table, size):
    """Monday rows: a supermarket cell of exactly size people in which the
    table infects someone, and a sports-club cell of size - 1 people."""
    probs = list(table.probs)
    n_inf = next(
        i
        for i in range(1, size)
        if int((probs[i - 1] if i <= len(probs) else 1.0) * (size - i)) >= 1
    )
    infected, susceptible = (30, 9.0, 1), (20, 8.0, 0)
    return [
        (*person, (kind, "", ""))
        for kind, n in (("MF1", size), ("MC1", size - 1))
        for person in [infected] * n_inf + [susceptible] * (n - n_inf)
    ]


class TestCellFilter:
    """The standard loop visits only cells of at least min_group people."""

    @pytest.mark.parametrize("name", sorted(STANDARD_TABLES))
    def test_min_group_matches_brute_force(self, name):
        table, expected = standard_table(name), STANDARD_TABLES[name][1]
        probs = list(table.probs)

        def p(n_inf):
            return probs[n_inf - 1] if n_inf <= len(probs) else 1.0

        brute = min(
            n_inf + n_sus
            for n_inf in range(1, 41)
            for n_sus in range(1, 41)
            if int(p(n_inf) * n_sus) >= 1
        )
        ds = parse_dataset("1 20 9.0 0 MF1 | |\n")
        assert build_context(ds, MODEL_FULL, table=table).min_group == brute
        assert brute == expected

    @pytest.mark.parametrize("n_persons", [1, 40])
    @pytest.mark.parametrize("name", sorted(STANDARD_TABLES))
    def test_probs_list_p_for(self, name, n_persons):
        # the loop reads p_n as probs[n] for any n a group can hold, and
        # min_group reads up to MAX_TABLE_N + 1 even with fewer persons
        table = standard_table(name)
        ds = parse_dataset(
            "".join(f"{pid} 20 9.0 0 MF1 | |\n" for pid in range(1, n_persons + 1))
        )
        probs = build_context(ds, MODEL_FULL, table=table).probs
        top = max(n_persons, MAX_TABLE_N + 1)
        assert probs[: top + 1] == [table.p_for(n) for n in range(top + 1)]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_person, min_size=1, max_size=30),
        _priors,
        _vector,
        st.sampled_from(sorted(STANDARD_TABLES)),
    )
    def test_kernel_matches_reference_across_tables(self, rows, priors, vector, name):
        ds = world(rows, priors)
        plan = decode(vector, ds)
        table = standard_table(name)
        ref = simulate(ds, plan, MODEL_FULL, table=table, engine="reference")
        assert simulate(ds, plan, MODEL_FULL, table=table, engine="kernel") == ref

    @pytest.mark.parametrize("name", sorted(STANDARD_TABLES))
    def test_cells_at_the_threshold(self, name):
        table, size = standard_table(name), STANDARD_TABLES[name][1]
        ds = world(threshold_rows(table, size), {})
        plan = decode([0.3], ds)  # every morning request lands in slot 0
        ref = simulate(ds, plan, MODEL_FULL, table=table, engine="reference")
        assert simulate(ds, plan, MODEL_FULL, table=table, engine="kernel") == ref
        store, club = establishment_id("F", 1), establishment_id("C", 1)
        assert (attendees(ref, 0, 0, store), attendees(ref, 0, 0, club)) == (size, size - 1)
        flags = [p.immunity_flag for p in ds.persons]
        status = [letter for letter, _ in ref.final_status]
        # the full cell infects someone; the one a person short cannot
        assert status[:size].count("I") > flags[:size].count(INFECTED)
        assert status[size:].count("I") == flags[size:].count(INFECTED)


def standard_agreement(ds, plan, table):
    """The reference outcome, once the kernel's outcome and counts_for_slots
    have matched it."""
    ref = simulate(ds, plan, MODEL_FULL, table=table, engine="reference")
    assert simulate(ds, plan, MODEL_FULL, table=table, engine="kernel") == ref
    ctx = build_context(ds, MODEL_FULL, table=table)
    slots = np.asarray(plan.slots, dtype=np.int64)
    assert _simcore.counts_for_slots(ctx, slots) == ref.counts()
    return ref


# rows with ids in reverse dataset order, in a shuffled order, or unique
# ids anywhere in 0..10**6
_renumbered = st.lists(_person, min_size=1, max_size=30).flatmap(
    lambda rows: st.tuples(
        st.just(rows),
        st.one_of(
            st.just(range(len(rows), 0, -1)),
            st.permutations(range(1, len(rows) + 1)),
            st.lists(
                st.integers(0, 10**6), min_size=len(rows), max_size=len(rows), unique=True
            ),
        ),
    )
)


class TestIdOrder:
    """The standard model infects the lowest person ids first, whatever the
    dataset order; the kernel must follow ids, not positions."""

    TABLE = TestEngineAgreement.TABLE  # min_group 4; p_2 = 0.52

    @settings(max_examples=150, deadline=None)
    @given(_renumbered, _vector, st.sampled_from(sorted(STANDARD_TABLES)))
    @example((CROWD, range(len(CROWD), 0, -1)), [0.3], "agreement")
    @example((ISOLATING, (40, 7, 0, 12)), [0.1], "p1_one")
    def test_kernel_matches_reference_in_any_id_order(self, renumbered, vector, name):
        rows, ids = renumbered
        ds = world(rows, {}, ids)
        standard_agreement(ds, decode(vector, ds), standard_table(name))

    @pytest.mark.parametrize("ids", [(6, 5, 4, 3, 2, 1), (10, 3, 7, 1, 9, 4)])
    def test_ids_pick_who_is_infected(self, ids):
        # two infected meet four susceptibles on Monday: int(0.52 * 4) = 2
        rows = [(30, 9.0, 1, ("MF1", "", ""))] * 2 + [(20, 8.0, 0, ("MF1", "", ""))] * 4
        ds = world(rows, {}, ids)
        ref = standard_agreement(ds, decode([0.3], ds), self.TABLE)
        lowest = sorted(range(2, 6), key=ids.__getitem__)[:2]
        ill = [pi for pi, (letter, _) in enumerate(ref.final_status) if letter == "I"]
        assert ill == sorted([0, 1, *lowest])

    @pytest.mark.parametrize("health, infects", [(4.0, False), (9.0, True)])
    def test_day1_isolation_drops_a_group_below_min_group(self, health, infects):
        # four meet on Wednesday only; the first, infected before the week,
        # isolates at the end of Tuesday when sick (health < 6.5 at age 40),
        # which leaves three, one short of min_group
        rows = [
            (40, health, 1, ("", "", "MF1")),
            (30, 9.0, 1, ("", "", "MF1")),
            (20, 8.0, 0, ("", "", "MF1")),
            (20, 8.0, 0, ("", "", "MF1")),
        ]
        ds = world(rows, {}, (3, 9, 2, 1))
        ref = standard_agreement(ds, decode([0.3], ds), self.TABLE)
        assert build_context(ds, MODEL_FULL, table=self.TABLE).min_group == 4
        store = establishment_id("F", 1)
        assert attendees(ref, 2, 0, store) == (4 if infects else 3)
        assert ref.isolation_day == ((-1 if infects else 1), -1, -1, -1)
        # the lower id of the two susceptibles is the one infected
        letters = [letter for letter, _ in ref.final_status[2:]]
        assert letters == (["S", "I"] if infects else ["S", "S"])

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [(20, 1.0, 1, ("", "", ""))] * 3,
            crowd(5),  # 8 persons: one whole byte of bits
            crowd(6),  # 9 persons
            [(20, 1.0, 1, ("", "", ""))] * 8 + crowd(20),
        ],
        ids=["no-persons", "no-requests", "eight", "nine", "idle-first"],
    )
    def test_persons_without_requests(self, rows):
        ds = world(rows, {}, range(len(rows), 0, -1))
        ref = standard_agreement(ds, decode([0.3], ds), self.TABLE)
        assert len(ref.final_status) == len(rows)


def test_outcome_round_shape(seven_ds):
    plan = AllocationPlan((0,) * 7)
    out = simulate(seven_ds, plan, MODEL_PARTIAL, s=6, engine="reference")
    assert out.n_hospitalized == 1
    assert out.isolation_day == (-1, -1, 0, -1, -1, -1, -1)
    assert len(out.classifications) == 7
    assert out.final_levels[0] == pytest.approx(0.4993, abs=1e-3)
    assert len(out.trajectory) == 12


def _group_averages_loop(ds, levels):
    """The dict loop _group_averages replaced: the oracle for its bincount."""
    sums = {age: 0.0 for age in AGE_GROUPS}
    counts = {age: 0 for age in AGE_GROUPS}
    for person, lvl in zip(ds.persons, levels):
        sums[person.age_group] += lvl
        counts[person.age_group] += 1
    return tuple(sums[a] / counts[a] if counts[a] else 0.0 for a in AGE_GROUPS)


def test_group_averages_match_the_dict_loop():
    rng = random.Random(5)
    for _ in range(200):
        ds = random_dataset(rng)
        # mixed magnitudes, so a different addition order shows in the bits
        levels = [rng.random() * 10.0 ** rng.randint(-12, 0) for _ in ds.persons]
        got = _simcore._group_averages(ds, levels)
        assert got == _group_averages_loop(ds, levels)
        # Python floats: repr of a numpy float would change trajectory.csv
        assert all(type(x) is float for x in got)
