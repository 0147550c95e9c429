import csv
import math
import random
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lockdownsched._simcore import bound_array
from lockdownsched.allocation import (
    AllocationPlan,
    decode,
    round_robin,
    validate_plan,
    write_plan_csv,
)
from lockdownsched.dataset import (
    N_ESTABLISHMENTS,
    N_SLOTS,
    WINDOWS,
    establishment_id,
    establishment_label,
    generate_dataset,
    parse_dataset,
    request_index,
    slot_label,
)

from scalar_oracles import bound_value, decode_loop, plan_map, read_plan_csv, walk_requests

TEXT = """
1 20 9.5 0 MF1:AD2 | NF1 | PC1:MS2
2 40 6.0 1 PF2 | MF1:NR1 | AF1
3 70 4.5 0 MP1 | | NS1
"""


@pytest.fixture()
def ds():
    return parse_dataset(TEXT)


def test_bound_value_examples():
    # bound_array is the package's rule; the scalar oracle must agree
    for bound in (bound_value, lambda x: bound_array([x])[0]):
        assert bound(-21.27625) == pytest.approx(0.27625)
        assert bound(29.00000) == pytest.approx(0.0001)
        assert bound(0.5) == 0.5
        assert bound(-0.25) == 0.25
        assert bound(0.0) == 0.0001
        with pytest.raises(ValueError):
            bound(math.inf)
        with pytest.raises(ValueError):
            bound(math.nan)


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_bound_value_always_open_interval(x):
    v = bound_array([x])[0]
    assert 0.0 < v < 1.0
    assert v == bound_value(x)


def test_bound_vector_limits(ds):
    assert bound_array([1.5, -2.25]).tolist() == [0.5, 0.25]
    # one non-finite value anywhere refuses the whole vector
    with pytest.raises(ValueError):
        bound_array([0.5] * 9 + [-math.inf])
    with pytest.raises(ValueError):
        decode([], ds)


@pytest.mark.parametrize("value", [-0.5, 1.5, -1e-300, math.nan, math.inf, -math.inf])
def test_decode_refuses_values_outside_the_unit_interval(ds, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            decode([0.5, value], ds)


def test_decode_takes_both_ends_of_the_unit_interval(ds):
    plan = decode([0.0, 1.0], ds)
    assert plan.slots == decode_loop([0.0, 1.0], ds)
    validate_plan(plan, ds)


def test_decode_window_examples(ds):
    # request order: person 1 day 0 = MF1, AD2; the A value 0.2763 sits in
    # the third eighth of the day
    plan = decode([0.9, 0.2763, 0.5], ds)
    assert plan.slots[0] == 1
    assert plan.slots[1] == 2


def test_decode_cycles_vector(ds):
    plan = decode([0.1, 0.6], ds)
    # 11 requests consume v1,v2,v1,... so equal windows repeat slots
    assert len(plan.slots) == 11
    # person 1 MF1 (v=0.1 -> 0) then AD2 (v=0.6 -> 4), NF1 (v=0.1 -> 5)
    assert plan.slots[0] == 0
    assert plan.slots[1] == 4
    assert plan.slots[2] == 5


def test_decode_always_valid(ds):
    for vec in ([0.0001], [0.9999], [0.5, 0.001, 0.999]):
        validate_plan(decode(vec, ds), ds)


@given(st.lists(st.floats(min_value=0.0001, max_value=0.9999), min_size=1, max_size=7))
def test_decode_valid_for_any_bounded_vector(vec):
    ds = parse_dataset(TEXT)
    validate_plan(decode(vec, ds), ds)


def test_round_robin_comp1(ds):
    plan = round_robin(ds, "comp1")
    # MF1 AD2 NF1 PC1 MS2 / PF2 MF1 NR1 AF1 / MP1 NS1
    assert plan.slots == (0, 0, 5, 2, 0, 2, 0, 5, 0, 0, 5)[: len(plan.slots)]
    assert set(plan.slots) == {0, 2, 5}


def test_round_robin_comp2_alternates_per_day(ds):
    plan = round_robin(ds, "comp2")
    m = plan_map(plan, ds)
    # Monday M-class order: person 1 MF1, person 1 AD2, person 2 PF2(P),
    # person 3 MP1 -> M-class sees MF1, AD2, MP1 -> 0, 1, 0
    assert m[(1, 0, 0)] == 0
    assert m[(1, 0, 1)] == 1
    assert m[(3, 0, 0)] == 0
    # afternoons alternate 2, 4
    assert m[(2, 0, 0)] == 2
    # Tuesday counters restart
    assert m[(2, 1, 0)] == 0


def test_round_robin_comp3_cycles(ds):
    plan = round_robin(ds, "comp3")
    m = plan_map(plan, ds)
    # Monday M-class: MF1, AD2, MP1 -> 0, 1, 0 (two thirds to the first slot)
    assert (m[(1, 0, 0)], m[(1, 0, 1)], m[(3, 0, 0)]) == (0, 1, 0)
    # night requests cycle 5, 6, 7 across days independently
    assert m[(1, 1, 0)] == 5


def test_round_robin_three_m_requests_split():
    ds3 = parse_dataset("1 20 9.0 0 MF1:MF2:MC1 | |\n")
    plan = round_robin(ds3, "comp3")
    assert plan.slots == (0, 1, 0)
    plan2 = round_robin(ds3, "comp2")
    assert plan2.slots == (0, 1, 0)


def test_round_robin_unknown_variant(ds):
    with pytest.raises(ValueError):
        round_robin(ds, "comp4")


def test_validate_rejects_bad_plans(ds):
    with pytest.raises(ValueError):
        validate_plan(AllocationPlan((0,) * (request_index(ds).n_requests - 1)), ds)
    bad = list(round_robin(ds, "comp1").slots)
    bad[2] = 0  # NF1 forced into the morning
    with pytest.raises(ValueError):
        validate_plan(AllocationPlan(tuple(bad)), ds)


def test_plan_csv_round_trip(tmp_path, ds):
    plan = round_robin(ds, "comp3")
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, ds, path)
    assert read_plan_csv(ds, path) == plan
    text = path.read_text()
    assert "SUPERMARKET 1, 8-10 HOURS" in text
    assert "DOCTOR'S SURGERY 2" in text


def test_plan_csv_rejects_mismatched_dataset(tmp_path, ds):
    plan = round_robin(ds, "comp1")
    path = tmp_path / "plan.csv"
    write_plan_csv(plan, ds, path)
    other = parse_dataset("1 20 9.5 0 MF1 | |\n")
    with pytest.raises(ValueError):
        read_plan_csv(other, path)


def test_windows_match_slot_layout():
    assert WINDOWS["M"] == (0, 2)
    assert WINDOWS["P"] == (2, 3)
    assert WINDOWS["N"] == (5, 3)
    assert WINDOWS["A"] == (0, 8)


# The per-request loops that validate_plan, round_robin and write_plan_csv
# replaced with array expressions: oracles for the tests below.

def _validate_plan_loop(plan, ds):
    walk = walk_requests(ds)
    if len(plan.slots) != len(walk):
        raise ValueError(
            f"plan has {len(plan.slots)} slots for {len(walk)} requests"
        )
    for slot, (pi, day, req) in zip(plan.slots, walk):
        base, width = WINDOWS[req.window]
        if not (math.isfinite(slot) and slot == math.floor(slot)):
            raise ValueError(
                f"slot {slot} is not a whole number "
                f"for person {ds.persons[pi].id} day {day}"
            )
        if not base <= slot < base + width:
            raise ValueError(
                f"slot {slot} outside window {req.window} "
                f"for person {ds.persons[pi].id} day {day}"
            )


def _round_robin_loop(ds, variant):
    cycle = {
        "comp1": {"M": (0,), "P": (2,), "N": (5,)},
        "comp2": {"M": (0, 1), "P": (2, 4), "N": (5, 7)},
        "comp3": {"M": (0, 1, 0), "P": (2, 3, 4), "N": (5, 6, 7)},
    }[variant]
    counters, slots = {}, []
    for _, day, req in walk_requests(ds):
        cls = "M" if req.window in ("M", "A") else req.window
        k = counters.get((day, cls), 0)
        counters[(day, cls)] = k + 1
        slots.append(cycle[cls][k % len(cycle[cls])])
    return tuple(slots)


def _write_plan_csv_loop(plan, ds, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("person", "day", "request", "slot", "where"))
        for slot, (pi, day, req) in zip(plan.slots, walk_requests(ds)):
            est = establishment_label(establishment_id(req.kind, req.index))
            where = f"{est}, {slot_label(slot)}"
            writer.writerow([ds.persons[pi].id, day, req.key, slot, where])


def _message(check, plan, ds):
    try:
        check(plan, ds)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validate_plan_matches_the_loop(seed):
    ds = generate_dataset(seed)
    rng = random.Random(seed)
    good = decode([rng.random() for _ in range(50)], ds).slots
    plans = [good, good[:-1], good + (0,), (), good[: len(good) // 2]]
    windows = [WINDOWS[req.window] for _, _, req in walk_requests(ds)]
    for n_bad in (1, 1, 1, 2, 3) * 20:
        bad = list(good)
        for pos in rng.sample(range(len(good)), n_bad):
            base, width = windows[pos]
            # just outside the window on either side, anywhere off the day,
            # or not a whole number at all
            bad[pos] = rng.choice([
                base - 1, base + width, -1, 8, 1000,
                base + 0.5, base - 1e-9, math.nan, math.inf, -math.inf,
            ])
        plans.append(tuple(bad))
    messages = [_message(_validate_plan_loop, AllocationPlan(p), ds) for p in plans]
    assert messages[0] is None
    assert all(m is not None for m in messages[1:])
    for slots, expected in zip(plans, messages):
        assert _message(validate_plan, AllocationPlan(slots), ds) == expected
    assert any("outside window" in m for m in messages[5:])
    assert any("is not a whole number" in m for m in messages[5:])
    # a float that is a whole number is a slot like any other
    validate_plan(AllocationPlan(tuple(map(float, good))), ds)


def test_write_plan_csv_checks_before_creating_the_file(tmp_path, ds):
    bad = list(round_robin(ds, "comp1").slots)
    bad[2] = 0  # NF1 forced into the morning
    path = tmp_path / "plan.csv"
    with pytest.raises(ValueError, match="slot 0 outside window N for person 1 day 1"):
        write_plan_csv(AllocationPlan(tuple(bad)), ds, path)
    assert not path.exists()


def test_whole_float_slots_write_the_int_plans_csv(tmp_path):
    # whole slots held as floats must not make float cells, which cannot
    # index the row suffixes
    ds = parse_dataset("1 20 9.5 0 MF1:AD2 | NF1 |")
    plan = round_robin(ds, "comp1")
    as_floats = AllocationPlan(tuple(map(float, plan.slots)))
    checked = validate_plan(as_floats, ds)
    assert checked.dtype == "int64" and checked.tolist() == list(plan.slots)
    write_plan_csv(plan, ds, tmp_path / "int.csv")
    write_plan_csv(as_floats, ds, tmp_path / "float.csv")
    assert (tmp_path / "float.csv").read_bytes() == (tmp_path / "int.csv").read_bytes()


def _random_plan(ds, rng):
    """A slot drawn uniformly from each request's window."""
    return AllocationPlan(tuple(
        rng.randrange(base, base + width)
        for base, width in (WINDOWS[req.window] for _, _, req in walk_requests(ds))
    ))


def _assert_plan_csv_matches_the_loop(tmp_path, plan, ds):
    write_plan_csv(plan, ds, tmp_path / "new.csv")
    _write_plan_csv_loop(plan, ds, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("seed", [0, 12345])
def test_round_robin_and_plan_csv_match_the_loops(tmp_path, seed):
    ds = generate_dataset(seed)
    plans = [decode([0.1, 0.7, 0.45], ds)]
    assert plans[0].slots == decode_loop([0.1, 0.7, 0.45], ds)
    for variant in ("comp1", "comp2", "comp3"):
        plan = round_robin(ds, variant)
        assert plan.slots == _round_robin_loop(ds, variant)
        assert all(type(slot) is int for slot in plan.slots)
        plans.append(plan)
    rng = random.Random(seed)
    plans += [_random_plan(ds, rng) for _ in range(4)]
    # the random plans put requests in every (slot, establishment) cell
    reached = {
        (slot, establishment_id(req.kind, req.index))
        for plan in plans[4:]
        for slot, (_, _, req) in zip(plan.slots, walk_requests(ds))
    }
    assert len(reached) == N_SLOTS * N_ESTABLISHMENTS
    for plan in plans:
        _assert_plan_csv_matches_the_loop(tmp_path, plan, ds)


# non-contiguous ids out of order, a person with no requests, empty days
GAPPY_TEXT = """
907 30 8.0 0 AF1:NS2 | | PD1
12 80 3.5 2 | MC2:AC2
450 50 6.5 1
3 20 9.9 0 | | AR1:MP2:NF2
88 60 7.0 0 AS1 | AD1:PR2 |
"""


def test_plan_csv_matches_the_loop_on_parsed_datasets(tmp_path):
    rng = random.Random(3)
    for text in (GAPPY_TEXT, "5 20 9.0 0", ""):  # and no requests, no persons
        ds = parse_dataset(text)
        plans = [_random_plan(ds, rng) for _ in range(20)]
        plans += [round_robin(ds, variant) for variant in ("comp1", "comp2", "comp3")]
        for plan in plans:
            _assert_plan_csv_matches_the_loop(tmp_path, plan, ds)
