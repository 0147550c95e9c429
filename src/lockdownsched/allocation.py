"""Turning real-valued vectors and round-robin policies into visit plans.

A plan fixes one time slot for every visit request in the dataset.  Vectors
coming out of the evolved programs are first folded into (0,1) and then read
cyclically, one value per request, in the canonical dataset order; the three
round-robin builders provide uninformed baselines to beat.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .dataset import (
    WINDOWS,
    Dataset,
    establishment_id,
    establishment_label,
    slot_label,
)

# the longest vector a plan is decoded from, and the tree machine's pointer cap
MAX_VECTOR_LEN = 10_000


def bound_value(x: float) -> float:
    """Fold any finite real into (0,1) by dropping sign and integer part.

    An exact integer would fold to 0.0, which is outside the open interval,
    so it is nudged to 0.0001.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot bound non-finite value {x!r}")
    v = abs(x) % 1.0
    return v if v > 0.0 else 0.0001


def bound_vector(values) -> tuple:
    if len(values) == 0:
        raise ValueError("vector must not be empty")
    if len(values) > MAX_VECTOR_LEN:
        raise ValueError(f"vector longer than {MAX_VECTOR_LEN}")
    return tuple(bound_value(v) for v in values)


@dataclass(frozen=True)
class AllocationPlan:
    """One slot per visit request, in canonical dataset order."""
    slots: tuple

    def __len__(self) -> int:
        return len(self.slots)

    def as_map(self, ds: Dataset) -> dict:
        """Map (person id, day, request ordinal) -> slot."""
        out = {}
        ordinal = {}
        for slot, (pi, day, _) in zip(self.slots, ds.requests(), strict=True):
            key = (ds.persons[pi].id, day)
            k = ordinal.get(key, 0)
            ordinal[key] = k + 1
            out[(*key, k)] = slot
        return out


def validate_plan(plan: AllocationPlan, ds: Dataset) -> None:
    """Check the plan covers the dataset and respects every request window."""
    if len(plan.slots) != ds.n_requests():
        raise ValueError(
            f"plan has {len(plan.slots)} slots for {ds.n_requests()} requests"
        )
    for slot, (pi, day, req) in zip(plan.slots, ds.requests()):
        base, width = WINDOWS[req.window]
        if not base <= slot < base + width:
            raise ValueError(
                f"slot {slot} outside window {req.window} "
                f"for person {ds.persons[pi].id} day {day}"
            )


def decode(vector, ds: Dataset) -> AllocationPlan:
    """Assign slots by cycling the bounded vector over requests in order.

    A value v for a window of width W starting at slot b lands on
    b + min(floor(v*W), W-1); the min guard only matters at v == 1.0, which
    bounded vectors exclude anyway.
    """
    if len(vector) == 0:
        raise ValueError("vector must not be empty")
    slots = []
    for pos, (_, _, req) in enumerate(ds.requests()):
        v = vector[pos % len(vector)]
        base, width = WINDOWS[req.window]
        slots.append(base + min(int(v * width), width - 1))
    return AllocationPlan(tuple(slots))


# comp1 pins each window class to one slot, comp2 alternates between two,
# comp3 cycles three (morning reuses slot 0 twice since it only has 2 slots)
_ROUND_ROBIN_SLOTS = {
    "comp1": {"M": (0,), "P": (2,), "N": (5,)},
    "comp2": {"M": (0, 1), "P": (2, 4), "N": (5, 7)},
    "comp3": {"M": (0, 1, 0), "P": (2, 3, 4), "N": (5, 6, 7)},
}


def round_robin(ds: Dataset, variant: str) -> AllocationPlan:
    """Uninformed baseline plans; "any time" requests queue with the mornings.

    Each (day, window class) keeps its own rotation counter.
    """
    if variant not in _ROUND_ROBIN_SLOTS:
        raise ValueError(f"unknown round robin variant {variant!r}")
    cycle = _ROUND_ROBIN_SLOTS[variant]
    counters = {}
    slots = []
    for _, day, req in ds.requests():
        cls = "M" if req.window in ("M", "A") else req.window
        key = (day, cls)
        k = counters.get(key, 0)
        counters[key] = k + 1
        seq = cycle[cls]
        slots.append(seq[k % len(seq)])
    return AllocationPlan(tuple(slots))


PLAN_CSV_HEADER = ("person", "day", "request", "slot", "where")


def write_plan_csv(plan: AllocationPlan, ds: Dataset, path) -> None:
    validate_plan(plan, ds)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PLAN_CSV_HEADER)
        for slot, (pi, day, req) in zip(plan.slots, ds.requests()):
            where = (
                f"{establishment_label(establishment_id(req.kind, req.index))}, "
                f"{slot_label(slot)}"
            )
            writer.writerow([ds.persons[pi].id, day, req.key, slot, where])


def read_plan_csv(ds: Dataset, path) -> AllocationPlan:
    expected = [(ds.persons[pi].id, day, req.key) for pi, day, req in ds.requests()]
    slots = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != PLAN_CSV_HEADER:
            raise ValueError(f"bad plan header in {path}")
        for row in reader:
            pid, day, key, slot = int(row[0]), int(row[1]), row[2], int(row[3])
            pos = len(slots)
            if pos >= len(expected) or expected[pos] != (pid, day, key):
                raise ValueError(f"plan row {pos + 2} does not match the dataset")
            slots.append(slot)
    plan = AllocationPlan(tuple(slots))
    validate_plan(plan, ds)
    return plan
