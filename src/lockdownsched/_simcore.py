"""The week loops behind the evolutionary fast path and simulate().

The plain-Python engine in simulator.py is the readable reference; the loops
here replay the exact same arithmetic, in the exact same order, over plain
Python lists prepared once per dataset and model by build_context.  Each run
buckets the requests by (day, slot, establishment) cell with one stable
int16 sort (_buckets) and walks the week in cell order, so its outputs are
bit-identical to the reference's.  The standard-model loop visits only cells
with at least ctx.min_group distinct members, the smallest group in which
the table can infect anyone; smaller cells change nothing but occupancy,
which simulate_outcome derives after the week from the buckets and the
isolation days.  Evolution scores every plan it has not met before through
counts_for_slots, so this is the hot path; bounding and decoding are
whole-array numpy expressions.
"""

from __future__ import annotations

import math

import numpy as np

from . import simulator
from .dataset import (
    AGE_GROUPS,
    N_DAYS,
    N_ESTABLISHMENTS,
    N_SLOTS,
    Dataset,
    request_index,
)
from .full_infection import Status
from .partial_infection import g_factor
from .simulator import (
    FULL_RULES,
    MODEL_FULL,
    MODEL_PARTIAL,
    OUTCOME_LABELS,
    PARTIAL_RULES,
    SimOutcome,
    _group_averages,
)

CELLS_PER_DAY = N_SLOTS * N_ESTABLISHMENTS
N_CELLS = N_DAYS * CELLS_PER_DAY


class SimContext:
    """Per dataset + model inputs of the week loops, converted once."""

    __slots__ = (
        "model",
        "n_persons",
        "n_requests",
        "req_person",
        "req_cell",
        "window_base",
        "window_width",
        "person_id",
        "age_idx",
        "health",
        "levels0",
        "status0",
        "gcoef",
        "probs",
        "min_group",
        "rules",
    )


def build_context(ds: Dataset, model: str, *, s=None, table=None) -> SimContext:
    ri = request_index(ds)
    ctx = SimContext()
    ctx.model = model
    ctx.n_persons = ri.n_persons
    ctx.n_requests = ri.n_requests
    ctx.req_person = ri.person
    # cell of a request in slot 0; its slot adds slot * N_ESTABLISHMENTS.
    # int16 holds every cell (N_CELLS - 1 = 287) and sorts by radix
    ctx.req_cell = (
        ri.day.astype(np.int64) * CELLS_PER_DAY + ri.establishment.astype(np.int64)
    ).astype(np.int16)
    ctx.window_base = ri.window_base.astype(np.int64)
    ctx.window_width = ri.window_width.astype(np.int64)
    ctx.person_id = ri.person_id.tolist()
    age_index = {age: i for i, age in enumerate(AGE_GROUPS)}
    ctx.age_idx = [age_index[p.age_group] for p in ds.persons]
    ctx.health = ri.health.tolist()

    if model == MODEL_PARTIAL:
        if s is None or s < 2:
            raise ValueError("fractional model needs s >= 2")
        ctx.levels0 = [
            float(ds.taxonomy_infection.get(p.age_group, 0.0)) for p in ds.persons
        ]
        ctx.status0 = None
        # same Python expression as the reference, so the bits agree
        ctx.gcoef = [g_factor(s, j) for j in range(1, ctx.n_persons + 2)]
        ctx.probs = None
        ctx.min_group = None
        rules = [PARTIAL_RULES[a] for a in AGE_GROUPS]
        ctx.rules = (
            [r.iso_high for r in rules],
            [r.iso_low for r in rules],
            [r.out_threshold for r in rules],
            [math.inf if r.immune_above is None else r.immune_above for r in rules],
            [r.recover_above for r in rules],
            simulator.ISOLATION_HEALTH_CAP,
        )
    elif model == MODEL_FULL:
        if table is None:
            raise ValueError("standard model needs a meeting-probability table")
        # the dataset's immunity flags 0/1/2 are the codes of Status.S/I/R;
        # the loop keeps them as plain ints, which it compares faster
        ctx.status0 = [p.immunity_flag for p in ds.persons]
        ctx.levels0 = None
        ctx.gcoef = None
        ctx.probs = list(table.probs)
        ctx.min_group = _min_group(ctx.probs)
        rules = [FULL_RULES[a] for a in AGE_GROUPS]
        ctx.rules = (
            [r.day1_health for r in rules],
            [r.day2_health for r in rules],
            [math.inf if r.immune_above is None else r.immune_above for r in rules],
            [r.recover_above for r in rules],
        )
    else:
        raise ValueError(f"unknown model {model!r}")
    return ctx


def bound_array(raw_vector) -> np.ndarray:
    """allocation.bound_vector over an array: fold into (0,1), 0 -> 0.0001."""
    v = np.abs(np.asarray(raw_vector, dtype=np.float64)) % 1.0
    v[v <= 0.0] = 0.0001
    return v


def decode_slots(ctx: SimContext, bounded_vector) -> np.ndarray:
    """allocation.decode over arrays: one slot per request, cycling the vector."""
    v = np.asarray(bounded_vector, dtype=np.float64)
    w = ctx.window_width
    picks = v[np.arange(ctx.n_requests) % v.shape[0]]
    return ctx.window_base + np.minimum((picks * w).astype(np.int64), w - 1)


def _min_group(probs) -> int:
    """Fewest distinct visitors (n_inf + n_sus, both >= 1) that can infect."""
    max_n = len(probs)
    total = 2
    while True:
        for n_inf in range(1, total):
            # the standard loop's own expression, so the bits agree
            p = 1.0 if n_inf > max_n else probs[n_inf - 1]
            if int(p * (total - n_inf)) >= 1:
                return total
        total += 1  # ends by max_n + 2, where p = 1.0 infects one


def _buckets(ctx: SimContext, slots):
    """(sizes, bounds, members) of the cells of a slot assignment.

    members lists the distinct person indices of each cell's requests in
    request order, cell after cell; cell c holds members[bounds[c]:bounds[c+1]]
    and sizes[c] of them.
    """
    keys = ctx.req_cell + N_ESTABLISHMENTS * np.asarray(slots, dtype=np.int16)
    order = np.argsort(keys, kind="stable")
    cell = keys[order]
    person = ctx.req_person[order]
    # a person's requests are contiguous and the sort is stable, so a repeat
    # within a cell can only follow its first appearance directly
    first = np.ones(cell.shape[0], dtype=bool)
    first[1:] = (cell[1:] != cell[:-1]) | (person[1:] != person[:-1])
    sizes = np.bincount(cell[first], minlength=N_CELLS)
    bounds = np.zeros(N_CELLS + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return sizes, bounds, person[first]


def _partial_week(ctx: SimContext, slots):
    n = ctx.n_persons
    _, bounds, members = _buckets(ctx, slots)
    bounds, members = bounds.tolist(), members.tolist()
    age_idx, health, gcoef = ctx.age_idx, ctx.health, ctx.gcoef
    iso_high, iso_low, out_thr, immune_above, recover_above, health_cap = ctx.rules

    levels = list(ctx.levels0)
    isolated = [False] * n
    iso_day = [-1] * n
    snapshots = []  # levels every four hours, for the report's trajectory

    for day in range(N_DAYS):
        for slot in range(N_SLOTS):
            first = (day * N_SLOTS + slot) * N_ESTABLISHMENTS
            for cell in range(first, first + N_ESTABLISHMENTS):
                lo, hi = bounds[cell], bounds[cell + 1]
                if hi - lo < 2:
                    continue
                group = [pi for pi in members[lo:hi] if not isolated[pi]]
                m = len(group)
                if m < 2:
                    continue
                lv = [levels[pi] for pi in group]
                n_inf = 0
                all_full = True
                for x in lv:
                    if x > 0.0:
                        n_inf += 1
                    if x < 1.0:
                        all_full = False
                if n_inf == 0 or all_full:
                    continue
                if n_inf == m:
                    # the most susceptible scales everyone else's level; which
                    # of several tied owners is dropped leaves the same values
                    ranked = sorted(lv, reverse=True)
                    s_max = 1.0 - ranked.pop()
                else:
                    s_max = 1.0
                    ranked = sorted((x for x in lv if x > 0.0), reverse=True)
                pressure = 0.0
                for j, x in enumerate(ranked):
                    pressure += s_max * x * gcoef[j]
                if pressure == 0.0:
                    continue
                for pi in group:
                    levels[pi] = pressure * (1.0 - levels[pi]) + levels[pi]
            if slot % 2 == 1:
                snapshots.append(levels[:])
        for pi in range(n):
            if isolated[pi]:
                continue
            x = levels[pi]
            g = age_idx[pi]
            if x > iso_high[g] or (
                x > iso_low[g] and x <= iso_high[g] and health[pi] <= health_cap
            ):
                isolated[pi] = True
                iso_day[pi] = day

    class_code = [0] * n
    n_h = n_d = 0
    for pi in range(n):
        g = age_idx[pi]
        if levels[pi] > out_thr[g]:
            if health[pi] > immune_above[g]:
                class_code[pi] = 1
            elif health[pi] > recover_above[g]:
                class_code[pi] = 2
                n_h += 1
            else:
                class_code[pi] = 3
                n_d += 1
    return levels, snapshots, iso_day, class_code, n_h, n_d


def _full_week(ctx: SimContext, slots):
    n = ctx.n_persons
    min_group = ctx.min_group
    sizes, bounds, members = _buckets(ctx, slots)
    # a group is a subset of its cell, so a smaller cell cannot infect anyone
    busy = np.flatnonzero(sizes >= min_group)
    spans = [[] for _ in range(N_DAYS)]  # member ranges of each day's cells
    starts, ends = bounds[busy].tolist(), bounds[busy + 1].tolist()
    for cell, lo, hi in zip(busy.tolist(), starts, ends):
        spans[cell // CELLS_PER_DAY].append((lo, hi))
    members = members.tolist()
    age_idx, health, person_id, probs = ctx.age_idx, ctx.health, ctx.person_id, ctx.probs
    day1_health, day2_health, immune_above, recover_above = ctx.rules
    max_n = len(probs)

    status = list(ctx.status0)
    infected = [pi for pi, st in enumerate(status) if st == 1]
    days = [0] * n
    isolated = [False] * n
    iso_day = [-1] * n

    for day in range(N_DAYS):
        for lo, hi in spans[day]:
            group = [pi for pi in members[lo:hi] if not isolated[pi]]
            if len(group) < min_group:
                continue
            n_inf = 0
            sus = []
            for pi in group:
                st = status[pi]
                if st == 1:
                    n_inf += 1
                elif st == 0:
                    sus.append(pi)
            if n_inf == 0 or not sus:
                continue
            p = 1.0 if n_inf > max_n else probs[n_inf - 1]
            k = int(p * len(sus))
            if k <= 0:
                continue
            # infect the k susceptibles with the lowest person ids
            sus.sort(key=person_id.__getitem__)
            for pi in sus[:k]:
                status[pi] = 1
                days[pi] = 0
                infected.append(pi)
        for pi in infected:
            # the infection clock keeps counting even in isolation
            days[pi] += 1
            if isolated[pi]:
                continue
            g = age_idx[pi]
            if (days[pi] > 1 and health[pi] < day1_health[g]) or (
                days[pi] > 2 and health[pi] < day2_health[g]
            ):
                isolated[pi] = True
                iso_day[pi] = day

    class_code = [0] * n
    n_h = n_d = 0
    for pi in infected:
        g = age_idx[pi]
        if health[pi] > immune_above[g]:
            class_code[pi] = 1
        elif health[pi] > recover_above[g]:
            class_code[pi] = 2
            n_h += 1
        else:
            class_code[pi] = 3
            n_d += 1
    return status, days, iso_day, class_code, n_h, n_d


def run_slots(ctx: SimContext, slots):
    """Raw week-loop outputs for a slot assignment (one entry per request).

    Fractional model: (levels, snapshots, iso_day, class_code, n_h, n_d);
    standard model: (status, days, iso_day, class_code, n_h, n_d).  iso_day
    is the day a person isolated at the end of, or -1.  The standard loop
    visits only cells of at least ctx.min_group distinct members; occupancy
    is left to simulate_outcome.
    """
    if ctx.model == MODEL_PARTIAL:
        return _partial_week(ctx, slots)
    return _full_week(ctx, slots)


def counts_for_slots(ctx: SimContext, slots: np.ndarray) -> tuple:
    """(N_H, N_D) fast path used by the evolutionary loop."""
    out = run_slots(ctx, slots)
    return out[-2], out[-1]


def simulate_outcome(ds: Dataset, plan, model: str, *, s=None, table=None):
    """Week-loop equivalent of simulator.simulate(engine="reference")."""
    ctx = build_context(ds, model, s=s, table=table)
    state, extra, iso_day, codes, n_h, n_d = run_slots(ctx, plan.slots)
    by_day = [set() for _ in range(N_DAYS)]
    for pi, d in enumerate(iso_day):
        if d >= 0:
            by_day[d].add(ds.persons[pi].id)
    # a member attends cell c of day d unless they isolated before day d
    sizes, _, members = _buckets(ctx, plan.slots)
    cell = np.repeat(np.arange(N_CELLS), sizes)
    iso = np.asarray(iso_day, dtype=np.int64)[members]
    present = (iso < 0) | (iso >= cell // CELLS_PER_DAY)
    occupancy = np.bincount(cell[present], minlength=N_CELLS).tolist()
    rows = [
        tuple(occupancy[c : c + N_ESTABLISHMENTS])
        for c in range(0, N_CELLS, N_ESTABLISHMENTS)
    ]
    common = dict(
        model=model,
        n_hospitalized=n_h,
        n_dead=n_d,
        isolated_by_day=tuple(frozenset(ids) for ids in by_day),
        classifications=tuple(OUTCOME_LABELS[c] for c in codes),
        occupancy=tuple(
            tuple(rows[d * N_SLOTS : (d + 1) * N_SLOTS]) for d in range(N_DAYS)
        ),
    )
    if model == MODEL_PARTIAL:
        return SimOutcome(
            final_levels=tuple(state),
            final_status=None,
            trajectory=tuple(_group_averages(ds, levels) for levels in extra),
            **common,
        )
    return SimOutcome(
        final_levels=None,
        final_status=tuple((Status(st).name, d) for st, d in zip(state, extra)),
        trajectory=None,
        **common,
    )
