"""Array bounding, decoding and the week loop agree exactly with the scalar
allocation code and the reference simulator."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lockdownsched._simcore import (
    _buckets,
    bound_array,
    build_context,
    counts_for_slots,
    decode_slots,
)
from lockdownsched.allocation import bound_vector, decode, round_robin
from lockdownsched.dataset import (
    INFECTED,
    generate_dataset,
    mark_apriori_infection,
    parse_dataset,
)
from lockdownsched.full_infection import build_pn_table
from lockdownsched.simulator import MODEL_FULL, simulate

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
    assert ds.n_requests() == N_REQUESTS
    return ds


@pytest.fixture(scope="module")
def ctx(ds):
    return build_context(ds, "partial", s=4)


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
def test_decode_slots_matches_decode(ds, ctx, values):
    bounded = bound_vector(values)
    slots = decode_slots(ctx, np.array(bounded))
    assert slots.dtype == np.int64
    assert slots.tolist() == list(decode(bounded, ds).slots)


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
        sizes = _buckets(ctx, slots)[0]
        skipped += int(((sizes >= 2) & (sizes < ctx.min_group)).sum())
        visited += int((sizes >= ctx.min_group).sum())
        infected += [st for st, _ in ref.final_status].count("I")
    # the filter both skips and keeps cells, and the plans do transmit
    assert skipped > 0 and visited > 0
    seeded = sum(p.immunity_flag == INFECTED for p in ds.persons)
    assert infected > len(plans) * seeded
