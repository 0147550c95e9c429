import math

import pytest
from hypothesis import given, settings, strategies as st

from lockdownsched.partial_infection import EncounterGroup, encounter_pressure, g_factor

from scalar_oracles import brute_force_pressure, labeling_term


def group_of(levels, s):
    return EncounterGroup(tuple(enumerate(levels)), s)


def test_g_factor_worked_values():
    assert g_factor(4, 1) == pytest.approx(16 / 64, abs=1e-15)
    assert g_factor(4, 2) == pytest.approx(12 / 64, abs=1e-15)
    assert g_factor(4, 3) == pytest.approx(9 / 64, abs=1e-15)
    assert g_factor(6, 1) == pytest.approx(36 / 216, abs=1e-15)
    assert g_factor(6, 2) == pytest.approx(30 / 216, abs=1e-15)
    assert g_factor(6, 3) == pytest.approx(25 / 216, abs=1e-15)
    assert sum(g_factor(4, j) for j in (1, 2, 3)) == pytest.approx(0.578125, abs=1e-15)


def test_g_factor_rejects_bad_inputs():
    with pytest.raises(ValueError):
        g_factor(1, 1)
    with pytest.raises(ValueError):
        g_factor(4, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(1, 40))
def test_g_factor_telescoping_sum_and_decrease(s, n):
    factors = [g_factor(s, j) for j in range(1, n + 1)]
    assert all(a > b for a, b in zip(factors, factors[1:]))
    assert sum(factors) == pytest.approx(1 - ((s - 1) / s) ** n, abs=1e-12)


def test_pressure_seven_person_mixed_group():
    g = group_of([0.3, 0.6, 1.0, 0.0, 0.0, 0.0, 0.0], s=6)
    p = encounter_pressure(g)
    assert p == pytest.approx(61.5 / 216, abs=1e-12)
    assert p == pytest.approx(0.285, abs=1e-3)


def test_pressure_three_person_low_levels():
    p = encounter_pressure(group_of([0.03, 0.04, 0.01], s=4))
    assert p == pytest.approx(0.0155, abs=1e-3)
    assert p == pytest.approx(0.01546875, abs=1e-12)


def test_pressure_three_person_high_levels():
    p = encounter_pressure(group_of([0.95, 0.98, 0.01], s=4))
    assert p == pytest.approx(0.4189, abs=1e-3)


def test_pressure_three_person_with_tie_on_most_susceptible():
    p = encounter_pressure(group_of([0.01, 1.00, 0.01], s=4))
    assert p == pytest.approx(0.2493, abs=1e-3)
    assert p == pytest.approx(0.24935625, abs=1e-12)


def test_pressure_four_person_one_heavy():
    p = encounter_pressure(group_of([0.01, 0.98, 0.03, 0.05], s=4))
    assert p == pytest.approx(0.2560, abs=1e-3)


def test_pressure_four_person_three_heavy():
    p = encounter_pressure(group_of([0.01, 0.98, 0.97, 0.99], s=4))
    assert p == pytest.approx(0.5620, abs=1e-3)


def test_pressure_degenerate_groups():
    assert encounter_pressure(group_of([0.5], s=4)) == 0.0
    assert encounter_pressure(group_of([1.0, 1.0, 1.0], s=4)) == 0.0
    assert encounter_pressure(group_of([0.0, 0.0], s=4)) == 0.0


def test_brute_force_pure_cases():
    assert brute_force_pressure(group_of([0.0, 1.0], s=4)) == pytest.approx(0.25, abs=1e-12)
    assert brute_force_pressure(group_of([0.0, 1.0, 1.0], s=4)) == pytest.approx(0.4375, abs=1e-12)
    assert brute_force_pressure(group_of([0.0, 1.0, 1.0, 1.0], s=4)) == pytest.approx(
        0.578125, abs=1e-12)


def test_brute_force_rejects_large_instances():
    with pytest.raises(ValueError):
        brute_force_pressure(group_of([0.5] * 6, s=4))
    with pytest.raises(ValueError):
        brute_force_pressure(group_of([0.5, 0.5], s=7))


def test_labeling_terms_match_tabulated_contributions():
    ex2 = group_of([0.95, 0.98, 0.01], s=4)
    assert labeling_term(ex2, "ISI") == pytest.approx(0.0048, abs=1e-3)
    assert labeling_term(ex2, "IIS") == pytest.approx(0.4189, abs=1e-3)
    ex1 = group_of([0.03, 0.04, 0.01], s=4)
    assert labeling_term(ex1, "IIS") == pytest.approx(0.0155, abs=1e-3)
    assert labeling_term(ex1, "ISI") == pytest.approx(0.0090, abs=1e-3)
    assert labeling_term(ex1, "ISS") == pytest.approx(0.0074, abs=1e-3)
    ex4 = group_of([0.01, 0.98, 0.03, 0.05], s=4)
    assert labeling_term(ex4, "SIII") == pytest.approx(0.2560, abs=1e-3)
    assert labeling_term(ex4, "ISII") == pytest.approx(0.0004, abs=1e-3)
    assert labeling_term(ex4, "IISI") == pytest.approx(0.2481, abs=1e-3)
    assert labeling_term(ex4, "IIIS") == pytest.approx(0.2394, abs=1e-3)


levels_strategy = st.lists(
    st.one_of(
        st.just(0.0),
        st.just(1.0),
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=2,
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(levels_strategy, st.integers(2, 6))
def test_pressure_matches_enumeration_oracle(levels, s):
    g = group_of(levels, s)
    assert encounter_pressure(g) == pytest.approx(brute_force_pressure(g), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(levels_strategy, st.integers(2, 8))
def test_pressure_upper_bound(levels, s):
    g = group_of(levels, s)
    n = sum(1 for lvl in levels if lvl > 0)
    assert encounter_pressure(g) <= 1 - ((s - 1) / s) ** n + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(2, 10))
def test_pure_case_exactness(n, s):
    g = group_of([0.0] + [1.0] * n, s)
    assert encounter_pressure(g) == pytest.approx(1 - ((s - 1) / s) ** n, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12))
def test_two_infected_less_than_twice_one(s):
    p1 = encounter_pressure(group_of([0.0, 1.0], s))
    p2 = encounter_pressure(group_of([0.0, 1.0, 1.0], s))
    assert p2 < 2 * p1


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.floats(0.001, 0.999), min_size=2, max_size=6),
    st.integers(0, 5),
    st.floats(0.05, 0.8),
    st.integers(2, 8),
)
def test_raising_a_level_never_lowers_pressure_while_someone_is_susceptible(
        levels, raise_idx, bump, s):
    # with a fully susceptible participant present the reference S stays 1,
    # so higher infection levels can only push the pressure up
    levels = levels + [0.0]
    g1 = group_of(levels, s)
    raised = list(levels)
    k = raise_idx % (len(levels) - 1)
    raised[k] = min(1.0, raised[k] + bump)
    g2 = group_of(raised, s)
    assert encounter_pressure(g2) >= encounter_pressure(g1) - 1e-12


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.floats(0.001, 0.999), min_size=3, max_size=6),
    st.floats(0.05, 0.8),
    st.integers(2, 8),
)
def test_raising_a_non_reference_level_never_lowers_pressure(levels, bump, s):
    # in the everyone-carries-infection case the guarantee holds for all but
    # the most susceptible participant, whose S scales the whole sum
    g1 = group_of(levels, s)
    owner = min(range(len(levels)), key=lambda i: (levels[i], i))
    k = (owner + 1) % len(levels)
    raised = list(levels)
    raised[k] = min(1.0, raised[k] + bump)
    if min(raised[i] for i in range(len(raised)) if i != k) < raised[k]:
        # keep the reference participant the same after the bump
        g2 = group_of(raised, s)
        assert encounter_pressure(g2) >= encounter_pressure(g1) - 1e-12
