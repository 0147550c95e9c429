"""Array bounding, decoding and the week loop agree exactly with the scalar
oracles and the reference simulator."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lockdownsched._simcore import (
    bound_array,
    build_context,
    counts_for_slots,
    decode_slots,
)
from lockdownsched import gp_engine, partial_infection
from lockdownsched.allocation import AllocationPlan, decode, round_robin
from lockdownsched.dataset import (
    AGE_GROUPS,
    INFECTED,
    N_CELLS,
    Dataset,
    Person,
    generate_dataset,
    mark_apriori_infection,
    parse_dataset,
    parse_priors,
    request_index,
)
from lockdownsched.full_infection import build_pn_table
from lockdownsched.gp_engine import GpConfig, run_pirs
from lockdownsched.partial_infection import PARTIAL_RULES
from lockdownsched.simulator import (
    MODEL_FULL,
    MODEL_PARTIAL,
    partial_isolation,
    partial_outcome,
    simulate,
)

from scalar_oracles import bound_vector, decode_loop

TEXT = """
1 20 9.5 0 MF1:AD2 | NF1 | PC1:MS2
2 40 6.0 1 PF2 | MF1:NR1 | AF1
3 70 4.5 0 MP1 | | NS1
4 30 7.0 0 | |
"""
N_REQUESTS = 11

# raw program outputs: any finite float, exact integers, signed zeros, and
# magnitudes of 1e16 and more, where every double is an integer
raw_value = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(-(10**6), 10**6).map(float),
    st.sampled_from((0.0, -0.0)),
    st.floats(1e16, 1e308).flatmap(lambda x: st.sampled_from((x, -x))),
)
raw_vector = st.lists(raw_value, min_size=1, max_size=3 * N_REQUESTS)


@pytest.fixture(scope="module")
def ds():
    ds = parse_dataset(TEXT)
    assert request_index(ds).n_requests == N_REQUESTS
    return ds


@settings(max_examples=300, deadline=None)
@given(raw_vector)
@example([3.0, -7.0, 0.0, -0.0, 1e16, -1e16, 2.0**60, 1e308])
@example([-21.27625])
def test_bound_array_matches_bound_vector(values):
    raw = np.array(values, dtype=np.float64)
    kept = raw.copy()
    out = bound_array(raw)
    assert out.tolist() == list(bound_vector(values))
    assert np.array_equal(raw, kept, equal_nan=True)  # input left untouched


def test_bound_array_folds_integers_and_zeros():
    values = [4.0, -4.0, 0.0, -0.0, 1e16, -3e20, 0.25]
    assert bound_array(np.array(values)).tolist() == [0.0001] * 6 + [0.25]


@settings(max_examples=300, deadline=None)
@given(raw_vector)
@example([0.5])
@example([0.9999999999999999])
@example([0.0001 * k for k in range(1, 3 * N_REQUESTS + 1)])
def test_decode_slots_matches_decode(ds, values):
    bounded = bound_vector(values)
    slots = decode_slots(request_index(ds), np.array(bounded))
    assert slots.dtype == np.int64
    assert slots.tolist() == list(decode_loop(bounded, ds))
    assert decode(bounded, ds).slots == decode_loop(bounded, ds)


def test_counts_match_reference_at_benchmark_scale():
    # the benchmark's standard-model world: 282 persons, 1704 requests, the
    # q=4 table, whose min_group of 11 skips most occupied cells
    ds = mark_apriori_infection(generate_dataset(12345), 0.053, 0.021, seed=777)
    table = build_pn_table(4, 100_000, seed=0)
    ctx = build_context(ds, MODEL_FULL, table=table)
    assert ctx.min_group == 11
    rng = random.Random(31)
    plans = [round_robin(ds, variant) for variant in ("comp1", "comp2", "comp3")]
    for i in range(30):
        # length-1 vectors send every request of a window to one slot
        length = 1 if i < 6 else rng.randint(2, 40)
        plans.append(decode([rng.uniform(0.0001, 0.9999) for _ in range(length)], ds))
    skipped = visited = infected = 0
    for plan in plans:
        slots = np.asarray(plan.slots)
        ref = simulate(ds, plan, MODEL_FULL, table=table, engine="reference")
        assert counts_for_slots(ctx, slots) == ref.counts()
        assert simulate(ds, plan, MODEL_FULL, table=table, engine="kernel") == ref
        # the kernel keeps a cell by its request count, as _visitor_masks does
        requests = np.bincount(ctx.requests.cells(slots), minlength=N_CELLS)
        skipped += int(((requests > 0) & (requests < ctx.min_group)).sum())
        visited += int((requests >= ctx.min_group).sum())
        infected += [st for st, _ in ref.final_status].count("I")
    # the filter both skips and keeps cells, and the plans do transmit
    assert skipped > 0 and visited > 0
    seeded = sum(p.immunity_flag == INFECTED for p in ds.persons)
    assert infected > len(plans) * seeded


@pytest.mark.parametrize("model", [MODEL_PARTIAL, MODEL_FULL])
def test_counts_match_reference_on_bred_plans(monkeypatch, model):
    # every plan the benchmark's first evolve operation of the model scores:
    # one PIR of population 100, budget 100 and seed 1 on that model's world,
    # so the plans are bred ones, as evolution meets them
    ds = generate_dataset(12345)
    if model == MODEL_PARTIAL:
        ds = ds.with_taxonomy(parse_priors("20=0.01;40=0.03;50=0.02"))
        params = {"s": 4}
        config = GpConfig(model=model, s=4, w_c=0.65, population=100, budget=100)
    else:
        ds = mark_apriori_infection(ds, 0.053, 0.021, seed=777)
        params = {"table": build_pn_table(4, 100_000, seed=0)}
        config = GpConfig(model=model, q=4, w_c=0.65, population=100, budget=100)
    scored = []

    def spy(ctx, slots):
        counts = counts_for_slots(ctx, slots)
        scored.append((slots.copy(), counts))
        return counts

    monkeypatch.setattr(gp_engine, "counts_for_slots", spy)
    run_pirs(ds, config, (1,), table=params.get("table"))
    assert scored
    infected = []
    for slots, counts in scored:
        plan = AllocationPlan(tuple(slots.tolist()))
        ref = simulate(ds, plan, model, engine="reference", **params)
        assert counts == ref.counts()
        if model == MODEL_FULL:
            infected.append([st for st, _ in ref.final_status].count("I"))
    # some plans send people to the ICU
    assert max(sum(counts) for _, counts in scored) > 0
    if model == MODEL_FULL:
        # the week infects over a hundred on some plans and nobody on others
        seeded = sum(p.immunity_flag == INFECTED for p in ds.persons)
        assert min(infected) == seeded and max(infected) > 100


@pytest.mark.parametrize("field", ["iso_low", "iso_high", "out_threshold"])
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_per_person_levels_at_the_band_edges(field, step):
    # one person per (age group, health) around the isolation health cap, no
    # requests, and every age group's level at its rule's field or one double
    # either side: the end-of-day pass and the ill test decide on the levels
    # alone, as the reference's predicates do
    cap = partial_infection.ISOLATION_HEALTH_CAP
    healths = (1.0, cap - 0.1, cap, cap + 0.1, 10.0)
    persons = tuple(
        Person(len(healths) * a + h, age, health, 0, ((), (), ()))
        for a, age in enumerate(AGE_GROUPS)
        for h, health in enumerate(healths)
    )
    priors = {}
    for age in AGE_GROUPS:
        edge = getattr(PARTIAL_RULES[age], field)
        priors[age] = math.nextafter(edge, step * math.inf) if step else edge
    ds = Dataset(persons, priors)
    fields = build_context(ds, MODEL_PARTIAL, s=4).outcome(ds, np.zeros(0, dtype=np.int64))
    for p, iso_day, label in zip(persons, fields["isolation_day"], fields["classifications"]):
        level = priors[p.age_group]
        assert (iso_day == 0) == partial_isolation(p.age_group, level, p.health)
        assert (label != "none") == (partial_outcome(p.age_group, level, p.health) != "none")
