from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lockdownsched.dataset import (
    CANONICAL_PROFILE,
    Dataset,
    DatasetFormatError,
    DayStats,
    GroupProfile,
    IMMUNE,
    INFECTED,
    PopulationProfile,
    establishment_id,
    establishment_label,
    format_priors,
    generate_dataset,
    mark_apriori_infection,
    parse_dataset,
    parse_priors,
    parse_request_key,
    request_index,
    serialize_dataset,
    slot_label,
)


def test_parse_single_line_fields():
    ds = parse_dataset("20 30 9.4 0 AD2 : MF1")
    assert len(ds.persons) == 1
    p = ds.persons[0]
    assert (p.id, p.age_group, p.health, p.immunity_flag) == (20, 30, 9.4, 0)
    keys = [r.key for day in p.requests_by_day for r in day]
    assert keys == ["AD2", "MF1"]


def test_parse_request_key_fields():
    r = parse_request_key("AD2")
    assert (r.window, r.kind, r.index) == ("A", "D", 2)


@pytest.mark.parametrize("key,fragment", [
    ("XD2", "unknown window"),
    ("AZ2", "unknown establishment"),
    ("AD3", "index must be 1 or 2"),
    ("AD", "malformed"),
])
def test_parse_request_key_rejections(key, fragment):
    with pytest.raises(DatasetFormatError) as err:
        parse_request_key(key, lineno=7)
    assert fragment in str(err.value)
    assert "line 7" in str(err.value)


@pytest.mark.parametrize("line,fragment", [
    ("1 25 9.4 0 AD2", "age 25"),
    ("1 30 0.4 0 AD2", "health 0.4"),
    ("1 30 9.4 5 AD2", "flag 5"),
    ("1 30 9.4 0 AD2 | MF1 | NC2 | PS1", "day groups"),
    ("-1 30 9.4 0 AD2", "negative person id"),
    ("1 30", "prefix"),
    ("1 thirty 9.4 0 AD2", "bad numeric"),
])
def test_parse_line_rejections(line, fragment):
    with pytest.raises(DatasetFormatError) as err:
        parse_dataset(line)
    assert fragment in str(err.value)
    assert "line 1" in str(err.value)


def test_parse_reports_line_numbers_and_skips_comments():
    text = "# roster\n\n0 20 9.5 0 MF1 | PF1 | NC2\n5 30 9.4 0 XD2\n"
    with pytest.raises(DatasetFormatError) as err:
        parse_dataset(text)
    assert err.value.lineno == 4


def test_duplicate_ids_rejected():
    with pytest.raises(DatasetFormatError):
        parse_dataset("1 30 9.4 0 AD2\n1 40 8.0 0 MF1\n")


def test_serialize_parse_canonical_text_round_trip():
    ds = parse_dataset("20 30 9.4 0 AD2:MF1 | PF1 | NC2\n21 40 8.0 1 MS1 | |")
    text = serialize_dataset(ds)
    assert parse_dataset(text) == ds
    assert serialize_dataset(parse_dataset(text)) == text


def test_generated_round_trip_and_purity():
    ds1 = generate_dataset(1)
    ds2 = generate_dataset(1)
    assert ds1 == ds2
    assert parse_dataset(serialize_dataset(ds1)) == ds1
    assert generate_dataset(2) != ds1


def test_canonical_group_sizes_and_totals():
    ds = generate_dataset(1)
    sizes = {}
    for p in ds.persons:
        sizes[p.age_group] = sizes.get(p.age_group, 0) + 1
    assert [sizes[a] for a in (20, 30, 40, 50, 60, 70, 80)] == [35, 65, 49, 43, 27, 43, 20]
    per_day = [0, 0, 0]
    for p in ds.persons:
        for d in range(3):
            per_day[d] += len(p.requests_by_day[d])
    assert per_day == [586, 572, 546]
    assert ds.n_requests() == 1704


def test_generated_health_within_group_bounds():
    ds = generate_dataset(3)
    for p in ds.persons:
        g = CANONICAL_PROFILE.groups[p.age_group]
        assert g.health_min <= p.health <= g.health_max
    elderly = [p.health for p in ds.persons if p.age_group == 80]
    assert all(1.3 <= h <= 7.0 for h in elderly)


def test_generated_visit_counts_within_bounds():
    ds = generate_dataset(4)
    for p in ds.persons:
        g = CANONICAL_PROFILE.groups[p.age_group]
        for d in range(3):
            assert g.visits[d].minimum <= len(p.requests_by_day[d]) <= g.visits[d].maximum


def test_infeasible_profile_rejected():
    bad = PopulationProfile(
        groups={20: GroupProfile(5, 9.0, 9.5, 9.0, 0.1,
                                 (DayStats(2, 1, 3, 0.5),) * 3)},
        day_totals=(10, 10, 10),
    )
    with pytest.raises(ValueError):
        generate_dataset(1, bad)
    unreachable = PopulationProfile(
        groups={20: GroupProfile(2, 9.0, 9.0, 10.0, 0.1,
                                 (DayStats(2, 1, 3, 0.5),) * 3)},
        day_totals=(100, 4, 4),
    )
    with pytest.raises(ValueError):
        generate_dataset(1, unreachable)


def test_mark_apriori_counts_and_preference():
    ds = generate_dataset(1)
    marked = mark_apriori_infection(ds, 0.053, 6 / 282, seed=9)
    infected = [p for p in marked.persons if p.immunity_flag == INFECTED]
    immune = [p for p in marked.persons if p.immunity_flag == IMMUNE]
    assert len(infected) == 15
    assert len(immune) == 6
    # healthiest people are picked first: everyone healthier than the least
    # healthy flagged person is also flagged
    floor_health = min(p.health for p in infected + immune)
    unmarked = [p for p in marked.persons if p.immunity_flag == 0]
    assert all(p.health <= floor_health for p in unmarked)
    assert mark_apriori_infection(ds, 0.053, 6 / 282, seed=9) == marked


def test_mark_apriori_zero_and_errors():
    ds = generate_dataset(1)
    assert all(p.immunity_flag == 0 for p in mark_apriori_infection(ds, 0, 0, 1).persons)
    with pytest.raises(ValueError):
        mark_apriori_infection(ds, 0.7, 0.7, 1)
    with pytest.raises(ValueError):
        mark_apriori_infection(ds, -0.1, 0, 1)


def test_priors_round_trip():
    priors = parse_priors("20=0.03;30=0.01")
    assert priors == {20: 0.03, 30: 0.01}
    assert parse_priors(format_priors(priors)) == priors
    assert parse_priors("") == {}
    with pytest.raises(ValueError):
        parse_priors("25=0.03")
    with pytest.raises(ValueError):
        parse_priors("20=1.5")


def test_establishment_layout_and_labels():
    assert establishment_id("F", 1) == 0
    assert establishment_id("S", 2) == 11
    assert establishment_label(establishment_id("D", 2)) == "DOCTOR'S SURGERY 2"
    assert slot_label(1) == "10-12 HOURS"
    assert slot_label(5) == "18-20 HOURS"


def test_request_index_canonical_order():
    ds = parse_dataset("0 20 9.5 0 MF1:NC2 | PF1 |\n1 30 9.4 0 AD2 | | MS1")
    idx = request_index(ds)
    assert idx.n_requests == 5
    assert list(idx.person) == [0, 0, 0, 1, 1]
    assert list(idx.day) == [0, 0, 1, 0, 2]
    assert list(idx.window_base) == [0, 5, 2, 0, 0]
    assert list(idx.window_width) == [2, 3, 3, 8, 2]
    assert list(idx.establishment) == [0, 3, 0, 7, 10]
    walked = [(pi, day, req.key) for pi, day, req in ds.requests()]
    assert walked == [
        (0, 0, "MF1"), (0, 0, "NC2"), (0, 1, "PF1"), (1, 0, "AD2"), (1, 2, "MS1")
    ]


def test_request_index_built_once_per_dataset():
    ds = parse_dataset("0 20 9.5 0 MF1:NC2 | PF1 |\n1 30 9.4 0 AD2 | | MS1")
    idx = request_index(ds)
    assert request_index(ds) is idx
    assert ds.requests() is ds.requests()
    for other in (replace(ds), ds.with_taxonomy({20: 0.1})):
        assert request_index(other) is not idx
        assert list(request_index(other).person) == list(idx.person)
        assert other.requests() is not ds.requests()
        assert other.requests() == ds.requests()
    for arr in (idx.person, idx.window_base, idx.health, idx.person_id):
        with pytest.raises(ValueError):
            arr[0] = 1


request_strategy = st.builds(
    lambda w, k, i: (w, k, i),
    st.sampled_from("MPNA"),
    st.sampled_from("FCPDRS"),
    st.integers(1, 2),
)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_generation_round_trip_property(seed):
    small = PopulationProfile(
        groups={
            30: GroupProfile(4, 9.0, 8.1, 10.0, 0.29,
                             (DayStats(2.0, 1, 5, 0.7),) * 3),
            70: GroupProfile(3, 5.4, 2.1, 9.0, 3.31,
                             (DayStats(1.3, 1, 3, 0.3),) * 3),
        },
        day_totals=(10, 9, 8),
    )
    ds = generate_dataset(seed, small)
    assert parse_dataset(serialize_dataset(ds)) == ds
    assert generate_dataset(seed, small) == ds
