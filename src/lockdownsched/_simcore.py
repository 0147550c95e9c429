"""The week loops behind the evolutionary fast path and simulate().

The plain-Python engine in simulator.py is the readable reference; the loops
here replay the exact same arithmetic, in the exact same order, over inputs
prepared once per dataset and model.  build_context holds this module's one
branch on the model: it returns a _PartialWeek or a _FullWeek, each holding
only its own model's inputs.  Each turns its model's age-group rules into
per-person values once, through _Week._per_person (ill_code, each person's
outcome code once ill; the standard week's isolation masks; the fractional
week's iso_level, partial_isolation with the health cap folded in, and
out_level), so neither week loop reads a rule table, a health or the cap.
Each has counts(slots), (N_H, N_D), and outcome(ds, slots), SimOutcome's
fields but the two counts, which buckets the plan once and runs the week once.

_buckets sorts a plan's requests into their cells (RequestIndex.cells) once,
with one stable int16 sort.  The fractional loop walks those buckets, as
plain Python lists, in cell order, and both outcomes count occupancy from
them.  It returns (levels, snapshots, iso_day (the day a person isolated at
the end of, or -1), the ill).

The standard loop holds sets of persons as the bits of Python ints: bit r is
the person of r-th lowest id, so a group's k lowest-id susceptibles are its
k lowest set bits.  _visitor_masks packs the visitors of each cell with at
least ctx.min_group requests, the smallest group in which the table can
infect anyone, into one int; a group is that mask less the isolated, and
p_n is ctx.probs[n], PnTable.p_for's values.  A person's isolation day is
fixed on the day they are infected, so the loop returns bitsets (the
infected, those infected on each day, those isolating at the end of each
day) and N_H, N_D, and _FullWeek.outcome spells the bitsets out per person.
Evolution scores every plan it has not met before through counts_for_slots,
so this is the hot path.

bound_array and decode_slots are the package's one rule for turning a
printed vector into a plan.  Evolution scores and records with both, and
allocation.decode, which rebuilds the reports' plans from the recorded
bounded vectors, wraps decode_slots.

This module imports only dataset and the two model modules, which own their
rules, and owns the model names, outcome labels and _group_averages.
"""

from __future__ import annotations

import numpy as np

from . import partial_infection
from .dataset import (
    AGE_GROUPS,
    CELLS_PER_DAY,
    N_CELLS,
    N_DAYS,
    N_ESTABLISHMENTS,
    N_SLOTS,
    Dataset,
    RequestIndex,
    request_index,
)
from .full_infection import FULL_RULES, MAX_TABLE_N, Status
from .partial_infection import PARTIAL_RULES, _g_prefix

MODEL_PARTIAL = "partial"
MODEL_FULL = "full"

OUTCOME_NONE = "none"
OUTCOME_IMMUNE = "immune"
OUTCOME_ICU_RECOVERED = "icu_recovered"
OUTCOME_ICU_DEATH = "icu_death"
OUTCOME_LABELS = (OUTCOME_NONE, OUTCOME_IMMUNE, OUTCOME_ICU_RECOVERED, OUTCOME_ICU_DEATH)


class _Week:
    """What both models' week loops read of a dataset, converted once."""

    def __init__(self, ds: Dataset, rules):
        ri = request_index(ds)
        self.requests = ri
        self.n_persons = len(ds.persons)
        self.rules = rules
        # each person's outcome once ill, simulator._health_band's band as a
        # code into OUTCOME_LABELS: 1 immune, 2 ICU recovered, 3 ICU death
        immune, recover = self._per_person("immune_above"), self._per_person("recover_above")
        self.ill_code = np.where(ri.health > immune, 1, np.where(ri.health > recover, 2, 3)).tolist()

    def _per_person(self, name: str) -> np.ndarray:
        """Each person's value of their age group's rule field name."""
        return np.array([getattr(r, name) for r in self.rules])[self.requests.age_index]

    def _fields(self, buckets, iso_day, ill) -> dict:
        """The fields both models' outcomes share: everyone in ill gets their
        ill_code, everyone else 0, "none"."""
        sizes, _, members = buckets
        codes = [0] * self.n_persons
        for pi in ill:
            codes[pi] = self.ill_code[pi]
        # a member attends cell c of day d unless they isolated before day d
        cell = np.repeat(np.arange(N_CELLS), sizes)
        iso = np.asarray(iso_day, dtype=np.int64)[members]
        present = (iso < 0) | (iso >= cell // CELLS_PER_DAY)
        occupancy = np.bincount(cell[present], minlength=N_CELLS)
        return dict(
            isolation_day=tuple(iso_day),
            classifications=tuple(OUTCOME_LABELS[c] for c in codes),
            occupancy=tuple(occupancy.tolist()),
        )


class _PartialWeek(_Week):
    """The fractional model's inputs: levels at the start and g factors."""

    def __init__(self, ds: Dataset, s: int):
        super().__init__(ds, [PARTIAL_RULES[a] for a in AGE_GROUPS])
        self.levels0 = [
            float(ds.taxonomy_infection.get(p.age_group, 0.0)) for p in ds.persons
        ]
        # the reference's own g factors, so the bits agree
        self.gcoef = _g_prefix(s, self.n_persons + 1)
        # simulator.partial_isolation as one level per person: above iso_high,
        # or above iso_low while health is at most the cap, whichever of the
        # two levels is lower
        high, low = self._per_person("iso_high"), self._per_person("iso_low")
        capped = self.requests.health <= partial_infection.ISOLATION_HEALTH_CAP
        self.iso_level = np.where(capped, np.minimum(low, high), high).tolist()
        self.out_level = self._per_person("out_threshold").tolist()

    def counts(self, slots) -> tuple:
        ill = _partial_week(self, _buckets(self, slots))[-1]
        codes = [self.ill_code[pi] for pi in ill]
        return codes.count(2), codes.count(3)

    def outcome(self, ds: Dataset, slots) -> dict:
        """SimOutcome's fields but the two counts."""
        buckets = _buckets(self, slots)
        levels, snapshots, iso_day, ill = _partial_week(self, buckets)
        return dict(
            self._fields(buckets, iso_day, ill),
            final_levels=tuple(levels),
            final_status=None,
            trajectory=tuple(_group_averages(ds, snap) for snap in snapshots),
        )


class _FullWeek(_Week):
    """The standard model's inputs, as person bitsets."""

    def __init__(self, ds: Dataset, table):
        super().__init__(ds, [FULL_RULES[a] for a in AGE_GROUPS])
        ri = self.requests
        # the dataset's immunity flags 0/1/2 are the codes of Status.S/I/R
        self.status0 = np.array([p.immunity_flag for p in ds.persons], dtype=np.int64)
        # p_n by n infected; a group holds at most n_persons, and _min_group
        # reads up to MAX_TABLE_N + 1, the first n with p = 1.0
        self.probs = [
            table.p_for(n) for n in range(max(self.n_persons, MAX_TABLE_N) + 2)
        ]
        self.min_group = _min_group(self.probs)
        # bit r of a bitset is the person of r-th lowest id, ties in dataset
        # order, so a group's k lowest-id susceptibles are its k lowest bits;
        # at least one byte, so that an empty dataset still has a width
        self.n_bytes = max(1, -(-self.n_persons // 8))
        self.bit_person = np.argsort(ri.person_id, kind="stable")
        bit = np.empty(self.n_persons, dtype=np.intp)
        bit[self.bit_person] = np.arange(self.n_persons)
        self.request_bit = bit[ri.person]
        self.start = (
            _mask(self, self.status0 == Status.I),
            _mask(self, self.status0 == Status.S),
        )
        # full_isolation: an infected person isolates at the end of the day
        # after their infection if health < day1_health, else at the end of
        # the one after that if health < day2_health; those infected before
        # the week count as infected on day 0
        day1 = ri.health < self._per_person("day1_health")
        day2 = ~day1 & (ri.health < self._per_person("day2_health"))
        self.isolate_next, self.isolate_later = _mask(self, day1), _mask(self, day2)
        # the persons N_H and N_D count once infected
        code = np.array(self.ill_code, dtype=np.int64)
        self.counted = (_mask(self, code == 2), _mask(self, code == 3))

    def counts(self, slots) -> tuple:
        return _full_week(self, _visitor_masks(self, slots))[-2:]

    def outcome(self, ds: Dataset, slots) -> dict:
        """SimOutcome's fields but the two counts, the week's bitsets spelled
        out per person."""
        infected, infected_on, isolating, _, _ = _full_week(
            self, _visitor_masks(self, slots)
        )
        status = self.status0.copy()
        days = np.zeros(self.n_persons, dtype=np.int64)
        iso_day = np.full(self.n_persons, -1, dtype=np.int64)
        ill = _persons(self, infected)
        status[ill] = 1
        for day, (new, leaving) in enumerate(zip(infected_on, isolating)):
            # the infection clock keeps counting even in isolation
            days[_persons(self, new)] = N_DAYS - day
            iso_day[_persons(self, leaving)] = day
        return dict(
            self._fields(_buckets(self, slots), iso_day.tolist(), ill.tolist()),
            final_levels=None,
            final_status=tuple(
                (Status(st).name, d) for st, d in zip(status.tolist(), days.tolist())
            ),
            trajectory=None,
        )


def build_context(ds: Dataset, model: str, *, s=None, table=None) -> _Week:
    """The week loops' inputs for one dataset and model; callers check the
    model, s and table first: simulate and GpConfig."""
    if model == MODEL_PARTIAL:
        return _PartialWeek(ds, s)
    return _FullWeek(ds, table)


def _mask(ctx: _FullWeek, flags) -> int:
    """The bitset of the persons whose flag (one per person, in dataset
    order) is set."""
    bits = np.packbits(np.asarray(flags, dtype=bool)[ctx.bit_person], bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


def _persons(ctx: _FullWeek, mask: int) -> np.ndarray:
    """The dataset positions of a bitset's persons, by ascending id."""
    raw = np.frombuffer(mask.to_bytes(ctx.n_bytes, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, count=ctx.n_persons, bitorder="little")
    return ctx.bit_person[bits.astype(bool)]


def bound_array(raw_vector) -> np.ndarray:
    """Fold a printed vector into (0,1) by dropping sign and integer part.

    An exact integer would fold to 0.0, which is outside the open interval,
    so it is nudged to 0.0001.  A NaN or an infinity raises ValueError.
    """
    v = np.asarray(raw_vector, dtype=np.float64)
    # checked before the fold, which would warn on them
    if not np.isfinite(v).all():
        raise ValueError("cannot bound a non-finite value")
    v = np.abs(v) % 1.0
    v[v <= 0.0] = 0.0001
    return v


def decode_slots(ri: RequestIndex, bounded_vector) -> np.ndarray:
    """One slot per request, cycling the vector over requests in order.

    A value v for a window of width W starting at slot b lands on
    b + min(floor(v*W), W-1); the min guard only matters at v == 1.0, which
    bounded vectors exclude anyway.
    """
    v = np.asarray(bounded_vector, dtype=np.float64)
    w = ri.window_width
    n = ri.n_requests
    picks = np.tile(v, -(-n // v.shape[0]))[:n]
    return ri.window_base + np.minimum((picks * w).astype(np.int64), w - 1)


def _min_group(probs) -> int:
    """Fewest distinct visitors (n_inf + n_sus, both >= 1) that can infect."""
    total = 2
    while True:
        for n_inf in range(1, total):
            # the standard loop's own expression, so the bits agree
            if int(probs[n_inf] * (total - n_inf)) >= 1:
                return total
        total += 1  # ends by MAX_TABLE_N + 2, where p = 1.0 infects one


def _buckets(ctx: _Week, slots):
    """(sizes, bounds, members) of the cells of a slot assignment.

    members lists the distinct person indices of each cell's requests in
    request order, cell after cell; cell c holds members[bounds[c]:bounds[c+1]]
    and sizes[c] of them.
    """
    keys = ctx.requests.cells(slots)
    order = np.argsort(keys, kind="stable")
    cell = keys[order]
    person = ctx.requests.person[order]
    # a person's requests are contiguous and the sort is stable, so a repeat
    # within a cell can only follow its first appearance directly
    first = np.ones(cell.shape[0], dtype=bool)
    first[1:] = (cell[1:] != cell[:-1]) | (person[1:] != person[:-1])
    sizes = np.bincount(cell[first], minlength=N_CELLS)
    bounds = np.zeros(N_CELLS + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return sizes, bounds, person[first]


def _partial_week(ctx: _PartialWeek, buckets):
    n = ctx.n_persons
    _, bounds, members = buckets
    bounds, members = bounds.tolist(), members.tolist()
    gcoef, iso_level = ctx.gcoef, ctx.iso_level

    levels = list(ctx.levels0)
    iso_day = [-1] * n
    snapshots = []  # levels every four hours, for the report's trajectory

    for day in range(N_DAYS):
        for slot in range(N_SLOTS):
            first = (day * N_SLOTS + slot) * N_ESTABLISHMENTS
            for cell in range(first, first + N_ESTABLISHMENTS):
                lo, hi = bounds[cell], bounds[cell + 1]
                if hi - lo < 2:
                    continue
                group = [pi for pi in members[lo:hi] if iso_day[pi] < 0]
                if len(group) < 2:
                    continue
                ranked = sorted([levels[pi] for pi in group], reverse=True)
                # nobody infected, or nobody susceptible
                if ranked[0] <= 0.0 or ranked[-1] >= 1.0:
                    continue
                # the most susceptible scales everyone else's level; which of
                # several tied owners is dropped leaves the same values, and a
                # zero lowest level gives 1.0, its term only a zero to the sum
                s_max = 1.0 - ranked.pop()
                pressure = 0.0
                for x, g in zip(ranked, gcoef):
                    pressure += s_max * x * g
                # a pressure that underflows to 0.0 would turn -0.0 into 0.0
                if pressure == 0.0:
                    continue
                for pi in group:
                    levels[pi] = pressure * (1.0 - levels[pi]) + levels[pi]
            if slot % 2 == 1:
                snapshots.append(levels[:])
        for pi in range(n):
            if iso_day[pi] < 0 and levels[pi] > iso_level[pi]:
                iso_day[pi] = day

    out_level = ctx.out_level
    ill = [pi for pi in range(n) if levels[pi] > out_level[pi]]
    return levels, snapshots, iso_day, ill


def _visitor_masks(ctx: _FullWeek, slots):
    """(masks, cuts): the visitor bitset of each cell of a plan whose request
    count reaches ctx.min_group, in cell order, and where each day's cells
    start and end in masks.  A smaller cell cannot hold the fewest distinct
    visitors that can infect anyone."""
    # widened first: the int16 cells would overflow once scaled by the width
    cell = ctx.requests.cells(slots).astype(np.intp)
    busy = np.flatnonzero(np.bincount(cell, minlength=N_CELLS) >= ctx.min_group)
    width = 8 * ctx.n_bytes
    grid = np.zeros((N_CELLS, width), dtype=bool)
    grid.ravel()[cell * width + ctx.request_bit] = True
    rows = np.packbits(grid[busy], axis=1, bitorder="little").tobytes()
    step = ctx.n_bytes
    masks = [int.from_bytes(rows[i : i + step], "little") for i in range(0, len(rows), step)]
    cuts = np.searchsorted(busy, np.arange(0, N_CELLS + 1, CELLS_PER_DAY)).tolist()
    return masks, cuts


def _full_week(ctx: _FullWeek, visits):
    masks, cuts = visits
    min_group, probs = ctx.min_group, ctx.probs
    isolate_next, isolate_later = ctx.isolate_next, ctx.isolate_later

    infected, susceptible = ctx.start
    present = (1 << ctx.n_persons) - 1  # everyone not yet isolated
    # infected_on[d]: persons infected on day d, where those infected before
    # the week count; isolating[d]: persons who isolate at the end of day d
    infected_on = []
    isolating = [0] * (N_DAYS + 2)
    new = infected

    for day in range(N_DAYS):
        for mask in masks[cuts[day] : cuts[day + 1]]:
            group = mask & present
            if group.bit_count() < min_group:
                continue
            sus = group & susceptible
            # p_0 is 0.0, so no infected or no susceptible gives k = 0
            k = int(probs[(group & infected).bit_count()] * sus.bit_count())
            if k == 0:
                continue
            # infect the k susceptibles with the lowest person ids
            rest = sus
            for _ in range(k):
                rest &= rest - 1
            hit = sus ^ rest
            susceptible ^= hit
            infected |= hit
            new |= hit
        infected_on.append(new)
        isolating[day + 1] |= new & isolate_next
        isolating[day + 2] |= new & isolate_later
        present &= ~isolating[day]
        new = 0

    recover, die = ctx.counted
    n_h, n_d = (infected & recover).bit_count(), (infected & die).bit_count()
    return infected, infected_on, isolating[:N_DAYS], n_h, n_d


def _group_averages(ds: Dataset, levels) -> tuple:
    """Mean level of each age group (0.0 if empty) as Python floats; bincount
    adds a group's levels in person order, as a left-to-right += loop does."""
    ri = request_index(ds)
    sums = np.bincount(ri.age_index, weights=levels, minlength=len(AGE_GROUPS))
    return tuple(
        total / count if count else 0.0
        for total, count in zip(sums.tolist(), ri.age_count)
    )


def counts_for_slots(ctx: _Week, slots: np.ndarray) -> tuple:
    """(N_H, N_D) fast path used by the evolutionary loop."""
    return ctx.counts(slots)
