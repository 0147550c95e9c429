import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lockdownsched.dataset import (
    CANONICAL_PROFILE,
    CELLS,
    DAY_LABELS,
    ESTABLISHMENT_KINDS,
    WINDOWS,
    Dataset,
    DatasetFormatError,
    IMMUNE,
    INFECTED,
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

from scalar_oracles import walk_requests


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
    ("2147483648 30 9.4 0 AD2", "person id 2147483648 above 2147483647"),
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


@pytest.mark.parametrize("change,fragment", [
    # every id of 0..140 twice: the two engines scored such a world apart
    (lambda i, p: replace(p, id=i % 141), "duplicate person id 0"),
    # past the int32 id column, where request_index raised OverflowError
    (lambda i, p: replace(p, id=3_000_000_000 + i), "person id 3000000000 outside 0..2147483647"),
    (lambda i, p: replace(p, id=-1 - i), "person id -1 outside"),
    # the request index looked the age up with tuple.index
    (lambda i, p: replace(p, age_group=25), r"person 0: age 25 not one of \(20,"),
    (lambda i, p: replace(p, health=0.0), r"person 0: health 0.0 outside \[1.0, 10.0\]"),
    (lambda i, p: replace(p, health=math.nan), "person 0: health nan outside"),
    # evolution scored such a world, and simulate then refused its flag
    (lambda i, p: replace(p, immunity_flag=5), "person 0: immunity flag 5 not in 0/1/2"),
    # round_robin indexed past the third day
    (lambda i, p: replace(p, requests_by_day=p.requests_by_day + ((),)),
     "person 0: 4 request days, not 3"),
    (lambda i, p: replace(p, requests_by_day=p.requests_by_day[:2]),
     "person 0: 2 request days, not 3"),
])
def test_dataset_refuses_ids_the_text_format_refuses(change, fragment):
    persons = generate_dataset(3).persons
    with pytest.raises(ValueError, match=fragment):
        Dataset(tuple(change(i, p) for i, p in enumerate(persons)))


@pytest.mark.parametrize("priors,fragment", [
    ({25: 0.2}, "age 25 not one of"),
    # the two engines scored comp3 apart on a negative level
    ({20: -0.5, 30: 0.2, 40: 0.3}, r"prior -0.5 outside \[0, 1\]"),
    ({20: 1.5}, "prior 1.5 outside"),
    ({20: math.nan}, "prior nan outside"),
])
def test_dataset_refuses_priors_check_priors_refuses(priors, fragment):
    ds = generate_dataset(1)
    with pytest.raises(ValueError, match=fragment):
        ds.with_taxonomy(priors)
    with pytest.raises(ValueError, match=fragment):
        Dataset(ds.persons, priors)


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
    assert request_index(ds).n_requests == 1704


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
    # a later entry for the same age does not hide a bad one
    with pytest.raises(ValueError):
        parse_priors("20=1.5;20=0.3")
    # nor is an age given twice kept at its last value
    with pytest.raises(ValueError, match="age 20 given twice"):
        parse_priors("20=0.1;20=0.2")


def test_establishment_layout_and_labels():
    assert establishment_id("F", 1) == 0
    assert establishment_id("S", 2) == 11
    assert establishment_label(establishment_id("D", 2)) == "DOCTOR'S SURGERY 2"
    assert slot_label(1) == "10-12 HOURS"
    assert slot_label(5) == "18-20 HOURS"


def test_cells_number_and_label_the_week_grid():
    """A request's cell is day * 96 + slot * 12 + establishment, stated here
    from the walk over ds.persons, and CELLS labels each number."""
    ds = generate_dataset(0)
    walk = walk_requests(ds)
    for seed in range(5):
        rng = random.Random(seed)
        slots = [WINDOWS[r.window][0] + rng.randrange(WINDOWS[r.window][1]) for _, _, r in walk]
        expected = [
            day * 96 + slot * 12 + establishment_id(r.kind, r.index)
            for (_, day, r), slot in zip(walk, slots)
        ]
        assert request_index(ds).cells(slots).tolist() == expected
    assert len(CELLS) == 3 * 8 * 12
    for d in range(3):
        for s in range(8):
            for e in range(12):
                assert CELLS[d * 96 + s * 12 + e] == (
                    DAY_LABELS[d], s, slot_label(s), establishment_label(e)
                )


def test_request_index_canonical_order():
    ds = parse_dataset("0 20 9.5 0 MF1:NC2 | PF1 |\n1 30 9.4 0 AD2 | | MS1")
    idx = request_index(ds)
    assert idx.n_requests == 5
    assert list(idx.person) == [0, 0, 0, 1, 1]
    assert list(idx.day) == [0, 0, 1, 0, 2]
    assert list(idx.window_base) == [0, 5, 2, 0, 0]
    assert list(idx.window_width) == [2, 3, 3, 8, 2]
    assert list(idx.establishment) == [0, 3, 0, 7, 10]
    assert list(zip(idx.person.tolist(), idx.day.tolist(), idx.key)) == [
        (0, 0, "MF1"), (0, 0, "NC2"), (0, 1, "PF1"), (1, 0, "AD2"), (1, 2, "MS1")
    ]


def test_request_index_built_once_per_dataset():
    ds = parse_dataset("0 20 9.5 0 MF1:NC2 | PF1 |\n1 30 9.4 0 AD2 | | MS1")
    idx = request_index(ds)
    assert request_index(ds) is idx
    for other in (replace(ds), ds.with_taxonomy({20: 0.1})):
        assert request_index(other) is not idx
        assert request_index(other) is request_index(other)
        assert list(request_index(other).person) == list(idx.person)
    arrays = [v for v in vars(idx).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 9
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1


def test_request_facts_cover_every_valid_request():
    """Each of the 48 valid requests is one shared instance holding its facts."""
    keys = [w + k + i for w in WINDOWS for k in ESTABLISHMENT_KINDS for i in "12"]
    assert len(set(keys)) == 48
    shared = set()
    for key in keys:
        req = parse_request_key(key)
        assert parse_request_key(key) is req
        assert (req.window, req.kind, req.index, req.key) == (key[0], key[1], int(key[2]), key)
        assert (req.window_base, req.window_width) == WINDOWS[req.window]
        assert req.establishment == establishment_id(req.kind, req.index)
        shared.add(id(req))
    # parsed and generated datasets hold only those instances
    for ds in (generate_dataset(2), parse_dataset("1 20 9.5 0 MF1:AD2 | NS1")):
        assert {id(req) for _, _, req in walk_requests(ds)} <= shared


@pytest.mark.parametrize(
    "ds",
    [
        generate_dataset(11),
        parse_dataset("907 30 8.0 0 AF1:NS2 | | PD1\n12 80 3.5 2 | MC2\n450 50 6.5 1"),
        parse_dataset(""),
    ],
    ids=["generated", "gappy", "empty"],
)
def test_request_index_matches_the_per_request_loop(ds):
    """Every column, and row_prefix, equals what a walk over ds.persons
    reads from WINDOWS, establishment_id and the request's symbols."""
    idx = request_index(ds)
    walk = walk_requests(ds)
    keys = [f"{r.window}{r.kind}{r.index}" for _, _, r in walk]
    assert idx.n_requests == len(walk)
    assert idx.person.tolist() == [pi for pi, _, _ in walk]
    assert idx.day.tolist() == [day for _, day, _ in walk]
    assert idx.window_base.tolist() == [WINDOWS[r.window][0] for _, _, r in walk]
    assert idx.window_width.tolist() == [WINDOWS[r.window][1] for _, _, r in walk]
    assert idx.establishment.tolist() == [establishment_id(r.kind, r.index) for _, _, r in walk]
    assert idx.key == tuple(keys)
    assert idx.row_prefix == tuple(
        f"{ds.persons[pi].id},{day},{key}," for (pi, day, _), key in zip(walk, keys)
    )
    assert [a.dtype for a in (idx.person, idx.day, idx.window_base, idx.establishment)] == [
        np.int32, np.int8, np.int64, np.int8
    ]


request_strategy = st.builds(
    lambda w, k, i: (w, k, i),
    st.sampled_from("MPNA"),
    st.sampled_from("FCPDRS"),
    st.integers(1, 2),
)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_generation_round_trip_property(seed):
    ds = generate_dataset(seed)
    assert parse_dataset(serialize_dataset(ds)) == ds
    assert generate_dataset(seed) == ds


def test_serialized_text_cannot_go_stale():
    def fresh(d):
        # a new Dataset object has no kept text, so this serializes anew
        return serialize_dataset(Dataset(d.persons))

    ds = generate_dataset(3)
    text = serialize_dataset(ds)
    assert serialize_dataset(ds) is text
    taxed = ds.with_taxonomy({20: 0.3})
    assert serialize_dataset(taxed) is text
    # with_taxonomy builds the source's text, if it has none yet, to hand on
    other = generate_dataset(4)
    other_taxed = other.with_taxonomy({30: 0.2})
    assert serialize_dataset(other_taxed) == fresh(other)
    assert serialize_dataset(other) is serialize_dataset(other_taxed)
    derived = (
        replace(ds, persons=ds.persons[:-1]),
        replace(taxed, persons=ds.persons[1:]),
        mark_apriori_infection(taxed, 0.1, 0.05, seed=1),
        parse_dataset(text),
    )
    for d in derived:
        assert serialize_dataset(d) == fresh(d)
    assert [serialize_dataset(d) == text for d in derived] == [False, False, False, True]
    # the digest still covers the priors, which the kept text leaves out
    assert taxed.digest() != ds.digest()
    assert taxed.digest() != taxed.with_taxonomy({20: 0.4}).digest()
    assert taxed.with_taxonomy({}).digest() == ds.digest()


@pytest.mark.parametrize("key", ["XD2", "AZ2", "AD3", "AD", "MF12", "mf1"])
def test_parse_dataset_rejects_keys_as_parse_request_key_does(key):
    with pytest.raises(DatasetFormatError) as direct:
        parse_request_key(key, lineno=3)
    with pytest.raises(DatasetFormatError) as parsed:
        parse_dataset(f"1 30 9.4 0 MF1\n\n2 30 9.4 0 PF1 | NC2:{key}")
    assert str(parsed.value) == str(direct.value)
