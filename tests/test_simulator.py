import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lockdownsched import simulator
from lockdownsched._simcore import build_context
from lockdownsched.allocation import AllocationPlan, decode, round_robin
from lockdownsched.dataset import (
    AGE_GROUPS,
    INFECTED,
    establishment_id,
    parse_dataset,
)
from lockdownsched.full_infection import (
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
    fitness,
    fitness_value,
    full_isolation,
    full_outcome,
    partial_isolation,
    partial_outcome,
    simulate,
)


def make_table(p_by_n, q=5):
    probs = [0.9] * 20
    for n, p in p_by_n.items():
        probs[n - 1] = p
    return PnTable(q, 1, 0, tuple(probs))


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
    p = encounter_pressure(EncounterGroup.of(levels, s))
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
        assert out.isolated_by_day == (frozenset({3}), frozenset(), frozenset())
        assert out.classifications[2] == OUTCOME_ICU_RECOVERED
        assert out.counts() == (1, 0)
        assert out.occupancy[0][0][0] == 7
        assert fitness(out) == -0.35

    def test_trajectory_shape_and_monotone(self, seven_ds):
        plan = AllocationPlan((0,) * 7)
        out = simulate(seven_ds, plan, MODEL_PARTIAL, s=6, engine="reference")
        assert len(out.trajectory) == 12
        assert all(len(row) == 7 for row in out.trajectory)
        for a, b in zip(out.trajectory, out.trajectory[1:]):
            assert all(x <= y + 1e-15 for x, y in zip(a, b))
        # age-50 average after the first four hours
        assert out.trajectory[0][3] == pytest.approx(out.final_levels[3])

    def test_zero_priors_stay_zero(self, seven_ds):
        ds = seven_ds.with_taxonomy({})
        plan = AllocationPlan((0,) * 7)
        out = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
        assert set(out.final_levels) == {0.0}
        assert out.counts() == (0, 0)
        assert fitness(out) == 0.0

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
        assert out.isolated_by_day[0] == frozenset({1, 3})
        assert out.occupancy[1][0][0] == 1
        assert out.final_levels[1] == 0.0

    def test_duplicate_requests_same_cell_count_once(self):
        text = "1 20 9.0 0 MF1:MF1 | |\n2 20 9.0 0 MF1 | |\n"
        ds = parse_dataset(text).with_taxonomy({20: 0.5})
        plan = AllocationPlan((0, 0, 0))
        out = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
        assert out.occupancy[0][0][0] == 2
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
        assert out.isolated_by_day == (frozenset(), frozenset({1}), frozenset())
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
        assert out.occupancy[2][0][0] == 3

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
        assert fitness(out) == -0.65


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
    st.sampled_from(AGE_GROUPS), st.sampled_from((0.2, 0.5, 0.9, 0.95, 0.99, 1.0))
)
_vector = st.lists(st.floats(0.0001, 0.9999), min_size=1, max_size=6)


def world(rows, priors):
    lines = [
        f"{pid} {age} {health} {flag} {d0} | {d1} | {d2}"
        for pid, (age, health, flag, (d0, d1, d2)) in enumerate(rows, start=1)
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
    def test_kernel_matches_reference_property(self, rows, priors, vector):
        ds = world(rows, priors)
        plan = decode(vector, ds)
        ref_p = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
        assert simulate(ds, plan, MODEL_PARTIAL, s=4, engine="kernel") == ref_p
        ref_f = simulate(ds, plan, MODEL_FULL, table=self.TABLE, engine="reference")
        assert simulate(ds, plan, MODEL_FULL, table=self.TABLE, engine="kernel") == ref_f

    def test_examples_reach_the_edge_cases(self):
        # the explicit examples above really hit the cases they are named for
        ds = world(CROWD, {age: 0.5 for age in AGE_GROUPS})
        plan = decode([0.3], ds)
        part = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="kernel")
        full = simulate(ds, plan, MODEL_FULL, table=self.TABLE, engine="kernel")
        assert part.occupancy[0][0][0] == 24
        # 22 infected exceed the 20-entry table, so p = 1 infects both
        assert full.final_status[22:24] == (("I", 3), ("I", 3))
        assert part.final_levels[24] == 0.5
        iso = world(ISOLATING, {40: 0.95, 70: 0.5, 20: 0.99})
        plan = decode([0.1], iso)
        part = simulate(iso, plan, MODEL_PARTIAL, s=4, engine="kernel")
        full = simulate(iso, plan, MODEL_FULL, table=self.TABLE, engine="kernel")
        assert part.isolated_by_day[0] and part.occupancy[1][0][0] < 3
        assert full.isolated_by_day[1] == frozenset({1, 4})

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
    # both engines read simulator.ISOLATION_HEALTH_CAP; raised to 9.0 it lets
    # the 70-year-old of health 9.0 isolate in the lower band
    ds = world(ISOLATING, {40: 0.95, 70: 0.5, 20: 0.99})
    plan = decode([0.1], ds)
    before = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
    monkeypatch.setattr(simulator, "ISOLATION_HEALTH_CAP", 9.0)
    ref = simulate(ds, plan, MODEL_PARTIAL, s=4, engine="reference")
    assert 3 in ref.isolated_by_day[0] - before.isolated_by_day[0]
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
        monday = ref.occupancy[0][0]
        store, club = establishment_id("F", 1), establishment_id("C", 1)
        assert (monday[store], monday[club]) == (size, size - 1)
        flags = [p.immunity_flag for p in ds.persons]
        status = [letter for letter, _ in ref.final_status]
        # the full cell infects someone; the one a person short cannot
        assert status[:size].count("I") > flags[:size].count(INFECTED)
        assert status[size:].count("I") == flags[size:].count(INFECTED)


def test_outcome_json_round_shape(seven_ds):
    plan = AllocationPlan((0,) * 7)
    out = simulate(seven_ds, plan, MODEL_PARTIAL, s=6, engine="reference")
    doc = out.to_json(seven_ds)
    assert doc["n_hospitalized"] == 1
    assert doc["isolated_by_day"] == [[3], [], []]
    assert len(doc["persons"]) == 7
    assert doc["persons"][0]["infection"] == pytest.approx(0.4993, abs=1e-3)
    assert len(doc["trajectory"]) == 12
