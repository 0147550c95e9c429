"""Three-day visit simulation under the fractional or the standard model.

A plan sends every visit request to one (day, slot, establishment) cell.
Cells are processed in day, slot, establishment order; everyone gathered in
a cell shares one encounter.  At the end of each day people who look too ill
go into self-isolation and skip all remaining visits.  After Wednesday the
outcome rules classify each person and the hospitalized/death counts are
folded into a single fitness value.

simulate() runs _simcore's week loops or the readable reference here, whose
one walker, _walk_week, serves both models.  Each model's module owns its
rule table; the predicates here are the readable form of those tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import partial_infection
from ._simcore import (
    MODEL_FULL,
    MODEL_PARTIAL,
    OUTCOME_ICU_DEATH,
    OUTCOME_ICU_RECOVERED,
    OUTCOME_IMMUNE,
    OUTCOME_NONE,
    _group_averages,
    build_context,
)
from .allocation import AllocationPlan, validate_plan
from .dataset import N_DAYS, N_ESTABLISHMENTS, N_SLOTS, Dataset, request_index
from .full_infection import FULL_RULES, PnTable, Status, transmit
from .partial_infection import PARTIAL_RULES, EncounterGroup, encounter_pressure


def partial_isolation(age_group: int, level: float, health: float) -> bool:
    rule = PARTIAL_RULES[age_group]
    if level > rule.iso_high:
        return True
    cap = partial_infection.ISOLATION_HEALTH_CAP
    return rule.iso_low < level <= rule.iso_high and health <= cap


def full_isolation(age_group: int, days_infected: int, health: float) -> bool:
    rule = FULL_RULES[age_group]
    if days_infected > 1 and health < rule.day1_health:
        return True
    return days_infected > 2 and health < rule.day2_health


def _health_band(health, immune_above, recover_above) -> str:
    if health > immune_above:
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
    """End-of-run record: counts, isolation days, states and occupancy."""
    n_hospitalized: int
    n_dead: int
    isolation_day: tuple        # per person: the day they isolated at the end of, or -1
    classifications: tuple      # outcome label per person, dataset order
    final_levels: tuple | None  # fractional model: I per person
    final_status: tuple | None  # standard model: (status letter, days infected)
    trajectory: tuple | None    # fractional model: 4-hourly age-group averages
    occupancy: tuple            # attendee count per cell, by cell number (dataset.CELLS)

    def counts(self) -> tuple:
        return self.n_hospitalized, self.n_dead


def _request_cells(ds: Dataset, plan: AllocationPlan):
    """Distinct person indices per (day, slot, establishment), in order of
    their first request there (dict keys, kept in insertion order)."""
    ri = request_index(ds)
    cells = {}
    for slot, pi, day, est in zip(
        plan.slots, ri.person.tolist(), ri.day.tolist(), ri.establishment.tolist()
    ):
        cells.setdefault((day, slot, est), {})[pi] = None
    return cells


def _walk_week(ds: Dataset, plan: AllocationPlan, meet, isolates, end_of_slot=None):
    """The reference week of both models: isolation_day and occupancy.

    meet(group) runs for each cell's gathered group of two or more, and
    end_of_slot(slot) after each slot.  At the end of each day isolates(pi)
    is asked of every person, isolated or not, so a model may tick a clock
    in it; only a yes from someone not yet isolated isolates them.
    """
    cells = _request_cells(ds, plan)
    iso_day = [-1] * len(ds.persons)
    occupancy = []  # one count per cell, in day, slot, establishment order
    for day in range(N_DAYS):
        for slot in range(N_SLOTS):
            for est in range(N_ESTABLISHMENTS):
                bucket = cells.get((day, slot, est), ())
                group = [pi for pi in bucket if iso_day[pi] < 0]
                occupancy.append(len(group))
                if len(group) >= 2:
                    meet(group)
            if end_of_slot is not None:
                end_of_slot(slot)
        for pi in range(len(ds.persons)):
            if isolates(pi) and iso_day[pi] < 0:
                iso_day[pi] = day
    return dict(isolation_day=tuple(iso_day), occupancy=tuple(occupancy))


def _simulate_partial(ds: Dataset, plan: AllocationPlan, s: int) -> dict:
    persons = ds.persons
    levels = [float(ds.taxonomy_infection.get(p.age_group, 0.0)) for p in persons]
    trajectory = []

    def meet(group):
        enc = EncounterGroup(tuple((persons[pi].id, levels[pi]) for pi in group), s)
        pressure = encounter_pressure(enc)
        if pressure != 0.0:
            for pi in group:
                levels[pi] = pressure * (1.0 - levels[pi]) + levels[pi]

    def isolates(pi):
        return partial_isolation(persons[pi].age_group, levels[pi], persons[pi].health)

    def end_of_slot(slot):
        if slot % 2 == 1:
            trajectory.append(_group_averages(ds, levels))

    walked = _walk_week(ds, plan, meet, isolates, end_of_slot)
    return dict(
        walked,
        classifications=tuple(
            partial_outcome(p.age_group, lvl, p.health) for p, lvl in zip(persons, levels)
        ),
        final_levels=tuple(levels),
        final_status=None,
        trajectory=tuple(trajectory),
    )


def _simulate_full(ds: Dataset, plan: AllocationPlan, table: PnTable) -> dict:
    persons = ds.persons
    # the dataset's immunity flags 0/1/2 are the codes of Status.S/I/R
    status = [Status(p.immunity_flag) for p in persons]
    days_infected = [0] * len(persons)
    id_to_index = {p.id: i for i, p in enumerate(persons)}

    def meet(group):
        encounter = [(persons[pi].id, status[pi]) for pi in group]
        for pid in transmit(encounter, table):
            status[id_to_index[pid]] = Status.I

    def isolates(pi):
        if status[pi] != Status.I:
            return False
        # the infection clock keeps counting even in isolation
        days_infected[pi] += 1
        person = persons[pi]
        return full_isolation(person.age_group, days_infected[pi], person.health)

    walked = _walk_week(ds, plan, meet, isolates)
    return dict(
        walked,
        classifications=tuple(
            full_outcome(p.age_group, st, p.health) for p, st in zip(persons, status)
        ),
        final_levels=None,
        final_status=tuple((st.name, d) for st, d in zip(status, days_infected)),
        trajectory=None,
    )


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
    "reference" the readable one above.  Both produce identical outcomes.
    """
    slots = validate_plan(plan, ds)
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
        fields = build_context(ds, model, s=s, table=table).outcome(ds, slots)
    elif model == MODEL_PARTIAL:
        fields = _simulate_partial(ds, plan, s)
    else:
        fields = _simulate_full(ds, plan, table)
    return SimOutcome(
        n_hospitalized=fields["classifications"].count(OUTCOME_ICU_RECOVERED),
        n_dead=fields["classifications"].count(OUTCOME_ICU_DEATH),
        **fields,
    )
