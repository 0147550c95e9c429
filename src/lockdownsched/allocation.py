"""Visit plans: checking, the round-robin baselines and the plan CSV.

A plan fixes one time slot for every visit request in the dataset.  Vectors
coming out of the evolved programs are folded into (0,1) and then read
cyclically, one value per request, in the canonical dataset order; that rule
lives in _simcore.bound_array and _simcore.decode_slots, below this module,
and decode wraps the second for callers that hold a Dataset.  The three
round-robin builders provide uninformed baselines to beat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._simcore import decode_slots
from .dataset import CELLS, N_DAYS, WINDOWS, Dataset, request_index

# the plan CSV's '{slot},"{where}"' row suffix of each cell, by cell number.
# "where" holds a comma, so it is quoted, as csv.writer's default dialect
# quotes it.
_ROW_SUFFIXES = tuple(f'{slot},"{est}, {hours}"\r\n' for _, slot, hours, est in CELLS)


@dataclass(frozen=True)
class AllocationPlan:
    """One slot per visit request, in canonical dataset order."""
    slots: tuple


def validate_plan(plan: AllocationPlan, ds: Dataset) -> np.ndarray:
    """Check the plan covers the dataset with whole, finite slots that respect
    every request window, and return the slots as an int64 array; the error
    names the first bad request."""
    ri = request_index(ds)
    if len(plan.slots) != ri.n_requests:
        raise ValueError(
            f"plan has {len(plan.slots)} slots for {ri.n_requests} requests"
        )
    slots = np.asarray(plan.slots, dtype=np.float64)
    whole = np.isfinite(slots) & (slots == np.floor(slots))
    offset = slots - ri.window_base
    bad = np.flatnonzero(~whole | (offset < 0) | (offset >= ri.window_width))
    if bad.size:
        pos = int(bad[0])
        problem = f"outside window {ri.key[pos][0]}" if whole[pos] else "is not a whole number"
        raise ValueError(
            f"slot {plan.slots[pos]} {problem} "
            f"for person {ri.person_id[ri.person[pos]]} day {ri.day[pos]}"
        )
    return np.asarray(plan.slots, dtype=np.int64)


def decode(vector, ds: Dataset) -> AllocationPlan:
    """The plan a bounded vector decodes to (see _simcore.decode_slots).
    Refuses an empty vector and any value outside [0, 1], NaN included."""
    v = np.asarray(vector, dtype=np.float64)
    if v.size == 0:
        raise ValueError("vector must not be empty")
    if not ((v >= 0.0) & (v <= 1.0)).all():
        raise ValueError("vector values must be finite and lie in [0, 1]")
    return AllocationPlan(tuple(decode_slots(request_index(ds), v).tolist()))


# comp1 pins each window class to one slot, comp2 alternates between two,
# comp3 cycles three (morning reuses slot 0 twice since it only has 2 slots)
_ROUND_ROBIN_SLOTS = {
    "comp1": {"M": (0,), "P": (2,), "N": (5,)},
    "comp2": {"M": (0, 1), "P": (2, 4), "N": (5, 7)},
    "comp3": {"M": (0, 1, 0), "P": (2, 3, 4), "N": (5, 6, 7)},
}
BASELINE_VARIANTS = tuple(_ROUND_ROBIN_SLOTS)


def round_robin(ds: Dataset, variant: str) -> AllocationPlan:
    """Uninformed baseline plans; "any time" requests queue with the mornings.

    Each (day, window class) keeps its own rotation counter.
    """
    if variant not in BASELINE_VARIANTS:
        raise ValueError(f"unknown round robin variant {variant!r}")
    cycle = _ROUND_ROBIN_SLOTS[variant]
    ri = request_index(ds)
    # a window's first slot fixes its class: M and A start at 0, P at 2, N at 5
    cls = np.searchsorted([WINDOWS[c][0] for c in "MPN"], ri.window_base)
    key = ri.day * 3 + cls
    # a request's counter value k: the earlier requests with its (day, class)
    seen = np.cumsum(key[:, None] == np.arange(N_DAYS * 3), axis=0)
    k = seen[np.arange(ri.n_requests), key] - 1
    seq = np.asarray([cycle[c] for c in "MPN"])  # one cycle length per variant
    return AllocationPlan(tuple(seq[cls, k % seq.shape[1]].tolist()))


PLAN_CSV_HEADER = ("person", "day", "request", "slot", "where")


def write_plan_csv(plan: AllocationPlan, ds: Dataset, path) -> None:
    """allocations.csv: one row per request, in the bytes csv.writer's
    default dialect would write, joined from the dataset's row prefixes and
    the cells' row suffixes."""
    slots = validate_plan(plan, ds)
    ri = request_index(ds)
    cells = ri.cells(slots).tolist()
    rows = [prefix + _ROW_SUFFIXES[cell] for prefix, cell in zip(ri.row_prefix, cells)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(PLAN_CSV_HEADER) + "\r\n" + "".join(rows))
