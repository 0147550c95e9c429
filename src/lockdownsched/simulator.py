"""Three-day visit simulation under the fractional or the standard model.

A plan sends every visit request to one (day, slot, establishment) cell.
Cells are processed in day, slot, establishment order; everyone gathered in
a cell shares one encounter.  At the end of each day people who look too ill
go into self-isolation and skip all remaining visits.  After Wednesday the
outcome rules classify each person and the hospitalized/death counts are
folded into a single fitness value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocation import AllocationPlan, validate_plan
from .dataset import (
    AGE_GROUPS,
    N_DAYS,
    N_ESTABLISHMENTS,
    N_SLOTS,
    Dataset,
    establishment_id,
)
from .full_infection import InfectionStatus, PnTable, Status, transmit
from .partial_infection import EncounterGroup, encounter_pressure

MODEL_PARTIAL = "partial"
MODEL_FULL = "full"

# each fractional-model isolation band also requires poor health
ISOLATION_HEALTH_CAP = 7.0

OUTCOME_NONE = "none"
OUTCOME_IMMUNE = "immune"
OUTCOME_ICU_RECOVERED = "icu_recovered"
OUTCOME_ICU_DEATH = "icu_death"
OUTCOME_LABELS = (OUTCOME_NONE, OUTCOME_IMMUNE, OUTCOME_ICU_RECOVERED, OUTCOME_ICU_DEATH)


@dataclass(frozen=True)
class PartialRule:
    """Per-age-group thresholds for the fractional infection model.

    Isolation: I above iso_high, or inside (iso_low, iso_high] while health
    is at most ISOLATION_HEALTH_CAP.  Outcomes apply when I ends above
    out_threshold: health above immune_above escapes unharmed, above
    recover_above survives the ICU, anything lower dies.  Bands are
    lower-exclusive, upper-inclusive.
    """
    iso_high: float
    iso_low: float
    out_threshold: float
    immune_above: float | None
    recover_above: float


@dataclass(frozen=True)
class FullRule:
    """Per-age-group thresholds for the standard (all-or-nothing) model.

    Isolation (infected only): after one full day when health is below
    day1_health, after two when below day2_health.  Outcomes apply to every
    infected person, banded by health like the fractional rules.
    """
    day1_health: float
    day2_health: float
    immune_above: float | None
    recover_above: float


PARTIAL_RULES = {
    20: PartialRule(0.97, 0.95, 0.95, 7.0, 3.0),
    30: PartialRule(0.95, 0.92, 0.90, 8.0, 4.0),
    40: PartialRule(0.92, 0.87, 0.85, 8.0, 4.0),
    50: PartialRule(0.85, 0.80, 0.80, 8.0, 4.0),
    60: PartialRule(0.75, 0.70, 0.75, 9.0, 5.0),
    70: PartialRule(0.65, 0.60, 0.70, 9.5, 7.5),
    80: PartialRule(0.65, 0.60, 0.65, None, 8.5),
}

FULL_RULES = {
    20: FullRule(5.0, 5.5, 7.0, 3.0),
    30: FullRule(6.0, 6.5, 8.0, 3.5),
    40: FullRule(6.5, 7.0, 8.0, 4.0),
    50: FullRule(7.0, 8.0, 8.0, 4.0),
    60: FullRule(7.0, 8.0, 8.5, 4.5),
    70: FullRule(7.0, 8.0, 9.5, 7.0),
    80: FullRule(7.0, 8.0, None, 8.5),
}


def partial_isolation(age_group: int, level: float, health: float) -> bool:
    rule = PARTIAL_RULES[age_group]
    if level > rule.iso_high:
        return True
    return rule.iso_low < level <= rule.iso_high and health <= ISOLATION_HEALTH_CAP


def full_isolation(age_group: int, days_infected: int, health: float) -> bool:
    rule = FULL_RULES[age_group]
    if days_infected > 1 and health < rule.day1_health:
        return True
    return days_infected > 2 and health < rule.day2_health


def _health_band(health, immune_above, recover_above) -> str:
    if immune_above is not None and health > immune_above:
        return OUTCOME_IMMUNE
    if health > recover_above:
        return OUTCOME_ICU_RECOVERED
    return OUTCOME_ICU_DEATH


def partial_outcome(age_group: int, level: float, health: float) -> str:
    rule = PARTIAL_RULES[age_group]
    if level <= rule.out_threshold:
        return OUTCOME_NONE
    return _health_band(health, rule.immune_above, rule.recover_above)


def full_outcome(age_group: int, status: Status, health: float) -> str:
    if status != Status.I:
        return OUTCOME_NONE
    rule = FULL_RULES[age_group]
    return _health_band(health, rule.immune_above, rule.recover_above)


def fitness_value(n_h: int, n_d: int, w_c: float = 0.65) -> float:
    if not 0.0 <= w_c <= 1.0:
        raise ValueError("w_c must lie in [0, 1]")
    # rounding keeps scores like -7.70 exact instead of -7.699999999999999
    return round(-((1.0 - w_c) * n_h + w_c * n_d), 10) + 0.0


@dataclass(frozen=True)
class SimOutcome:
    """End-of-run record: counts, isolation history, states and occupancy."""
    model: str
    n_hospitalized: int
    n_dead: int
    isolated_by_day: tuple      # one frozenset of person ids per day
    classifications: tuple      # outcome label per person, dataset order
    final_levels: tuple | None  # fractional model: I per person
    final_status: tuple | None  # standard model: (status letter, days infected)
    trajectory: tuple | None    # fractional model: 4-hourly age-group averages
    occupancy: tuple            # [day][slot][establishment] attendee counts

    def counts(self) -> tuple:
        return self.n_hospitalized, self.n_dead

    def to_json(self, ds: Dataset) -> dict:
        doc = {
            "model": self.model,
            "n_hospitalized": self.n_hospitalized,
            "n_dead": self.n_dead,
            "isolated_by_day": [sorted(day) for day in self.isolated_by_day],
            "persons": [
                {"id": p.id, "outcome": out}
                for p, out in zip(ds.persons, self.classifications)
            ],
            "occupancy": [
                [list(slot) for slot in day] for day in self.occupancy
            ],
        }
        if self.model == MODEL_PARTIAL:
            for entry, lvl in zip(doc["persons"], self.final_levels):
                entry["infection"] = lvl
            doc["trajectory"] = [list(row) for row in self.trajectory]
        else:
            for entry, (status, days) in zip(doc["persons"], self.final_status):
                entry["status"] = status
                entry["days_infected"] = days
        return doc


def fitness(outcome: SimOutcome, w_c: float = 0.65) -> float:
    return fitness_value(outcome.n_hospitalized, outcome.n_dead, w_c)


def _request_cells(ds: Dataset, plan: AllocationPlan):
    """Person indices per (day, slot, establishment), in request order."""
    cells = {}
    for slot, (pi, day, req) in zip(plan.slots, ds.requests()):
        est = establishment_id(req.kind, req.index)
        cells.setdefault((day, slot, est), []).append(pi)
    return cells


def _gather(bucket, isolated):
    """Deduplicated non-isolated attendees, keeping first-appearance order."""
    group = []
    seen = set()
    for pi in bucket:
        if isolated[pi] or pi in seen:
            continue
        seen.add(pi)
        group.append(pi)
    return group


def _group_averages(ds: Dataset, levels) -> tuple:
    sums = {age: 0.0 for age in AGE_GROUPS}
    counts = {age: 0 for age in AGE_GROUPS}
    for person, lvl in zip(ds.persons, levels):
        sums[person.age_group] += lvl
        counts[person.age_group] += 1
    return tuple(
        sums[age] / counts[age] if counts[age] else 0.0 for age in AGE_GROUPS
    )


def _simulate_partial(ds: Dataset, plan: AllocationPlan, s: int):
    persons = ds.persons
    levels = [float(ds.taxonomy_infection.get(p.age_group, 0.0)) for p in persons]
    isolated = [False] * len(persons)
    cells = _request_cells(ds, plan)
    occupancy = [
        [[0] * N_ESTABLISHMENTS for _ in range(N_SLOTS)] for _ in range(N_DAYS)
    ]
    trajectory = []
    isolated_by_day = []
    for day in range(N_DAYS):
        for slot in range(N_SLOTS):
            for est in range(N_ESTABLISHMENTS):
                bucket = cells.get((day, slot, est))
                if not bucket:
                    continue
                group = _gather(bucket, isolated)
                occupancy[day][slot][est] = len(group)
                if len(group) < 2:
                    continue
                enc = EncounterGroup(
                    tuple((persons[pi].id, levels[pi]) for pi in group), s
                )
                pressure = encounter_pressure(enc)
                if pressure == 0.0:
                    continue
                for pi in group:
                    levels[pi] = pressure * (1.0 - levels[pi]) + levels[pi]
            if slot % 2 == 1:
                trajectory.append(_group_averages(ds, levels))
        newly = set()
        for pi, person in enumerate(persons):
            if not isolated[pi] and partial_isolation(
                person.age_group, levels[pi], person.health
            ):
                isolated[pi] = True
                newly.add(person.id)
        isolated_by_day.append(frozenset(newly))
    return levels, isolated_by_day, trajectory, occupancy


def _simulate_full(ds: Dataset, plan: AllocationPlan, table: PnTable):
    persons = ds.persons
    # the dataset's immunity flags 0/1/2 are the codes of Status.S/I/R
    states = [InfectionStatus(Status(p.immunity_flag), 0) for p in persons]
    isolated = [False] * len(persons)
    id_to_index = {p.id: i for i, p in enumerate(persons)}
    cells = _request_cells(ds, plan)
    occupancy = [
        [[0] * N_ESTABLISHMENTS for _ in range(N_SLOTS)] for _ in range(N_DAYS)
    ]
    isolated_by_day = []
    for day in range(N_DAYS):
        for slot in range(N_SLOTS):
            for est in range(N_ESTABLISHMENTS):
                bucket = cells.get((day, slot, est))
                if not bucket:
                    continue
                group = _gather(bucket, isolated)
                occupancy[day][slot][est] = len(group)
                if len(group) < 2:
                    continue
                encounter = [(persons[pi].id, states[pi]) for pi in group]
                for pid in transmit(encounter, table):
                    states[id_to_index[pid]] = InfectionStatus(Status.I, 0)
        newly = set()
        for pi, person in enumerate(persons):
            # the infection clock keeps counting even in isolation
            if states[pi].status == Status.I:
                states[pi] = InfectionStatus(Status.I, states[pi].days_infected + 1)
            if (
                not isolated[pi]
                and states[pi].status == Status.I
                and full_isolation(
                    person.age_group, states[pi].days_infected, person.health
                )
            ):
                isolated[pi] = True
                newly.add(person.id)
        isolated_by_day.append(frozenset(newly))
    return states, isolated_by_day, occupancy


def _freeze_occupancy(occupancy) -> tuple:
    return tuple(tuple(tuple(slot) for slot in day) for day in occupancy)


def simulate(
    ds: Dataset,
    plan: AllocationPlan,
    model: str,
    *,
    s: int | None = None,
    table: PnTable | None = None,
    engine: str = "kernel",
) -> SimOutcome:
    """Run the three-day simulation of a plan and classify everyone.

    The fractional model needs the sub-location count s; the standard model
    needs a meeting-probability table.  engine picks the implementation:
    "kernel" (the default) is the week loop that evolution scores with,
    "reference" the readable one below.  Both produce identical outcomes.
    """
    validate_plan(plan, ds)
    if model == MODEL_PARTIAL:
        if s is None or s < 2:
            raise ValueError("fractional model needs s >= 2")
    elif model == MODEL_FULL:
        if table is None:
            raise ValueError("standard model needs a meeting-probability table")
    else:
        raise ValueError(f"unknown model {model!r}")
    if engine not in ("kernel", "reference"):
        raise ValueError(f"unknown engine {engine!r}")

    if engine == "kernel":
        from . import _simcore

        return _simcore.simulate_outcome(ds, plan, model, s=s, table=table)

    if model == MODEL_PARTIAL:
        levels, isolated_by_day, trajectory, occupancy = _simulate_partial(ds, plan, s)
        classifications = tuple(
            partial_outcome(p.age_group, lvl, p.health)
            for p, lvl in zip(ds.persons, levels)
        )
        n_h = sum(1 for c in classifications if c == OUTCOME_ICU_RECOVERED)
        n_d = sum(1 for c in classifications if c == OUTCOME_ICU_DEATH)
        return SimOutcome(
            model=model,
            n_hospitalized=n_h,
            n_dead=n_d,
            isolated_by_day=tuple(isolated_by_day),
            classifications=classifications,
            final_levels=tuple(levels),
            final_status=None,
            trajectory=tuple(trajectory),
            occupancy=_freeze_occupancy(occupancy),
        )

    states, isolated_by_day, occupancy = _simulate_full(ds, plan, table)
    classifications = tuple(
        full_outcome(p.age_group, st.status, p.health)
        for p, st in zip(ds.persons, states)
    )
    n_h = sum(1 for c in classifications if c == OUTCOME_ICU_RECOVERED)
    n_d = sum(1 for c in classifications if c == OUTCOME_ICU_DEATH)
    return SimOutcome(
        model=model,
        n_hospitalized=n_h,
        n_dead=n_d,
        isolated_by_day=tuple(isolated_by_day),
        classifications=classifications,
        final_levels=None,
        final_status=tuple((st.status.name, st.days_infected) for st in states),
        trajectory=None,
        occupancy=_freeze_occupancy(occupancy),
    )
