"""Whole-person infection model driven by a Monte Carlo co-location table.

A 7200-second stay in a venue of 400 cells (300 quick 2 s passages, 50 slow
30 s stops, 50 lingering 102 s stops) is sampled q times for one susceptible
and 20 infected visitors.  p_n is the chance the susceptible shared a cell
with at least one of the first n infected in at least one of the q trials.
Transmission per encounter then truncates p_n times the susceptible count.
cell_of is the one dwell-cell map, read by the sampler and the exact cell
distribution alike; PnTable.p_for is the one p_n lookup.  Both simulation
engines read the model's age-banded rules, FULL_RULES, from here.

build_pn_table draws in batches of about 200k raw values, which keeps its
arrays small.  Each bounded int32 draw takes the next value of the PCG64
generator's 32-bit stream, whatever the batch, so the batch size does not
change the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np

MAX_TABLE_N = 20
RAW_RANGE = 7200
_BATCH_DRAWS = 200_000  # raw draws per build_pn_table batch


class Status(IntEnum):
    S = 0
    I = 1
    R = 2


@dataclass(frozen=True)
class FullRule:
    """Per-age-group thresholds of the standard (all-or-nothing) model.

    Isolation (infected only): after one full day when health is below
    day1_health, after two when below day2_health.  Outcomes apply to every
    infected person, banded by health like the fractional rules.
    """
    day1_health: float
    day2_health: float
    immune_above: float
    recover_above: float


FULL_RULES = {
    20: FullRule(5.0, 5.5, 7.0, 3.0),
    30: FullRule(6.0, 6.5, 8.0, 3.5),
    40: FullRule(6.5, 7.0, 8.0, 4.0),
    50: FullRule(7.0, 8.0, 8.0, 4.0),
    60: FullRule(7.0, 8.0, 8.5, 4.5),
    70: FullRule(7.0, 8.0, 9.5, 7.0),
    80: FullRule(7.0, 8.0, math.inf, 8.5),
}


def cell_of(i: int) -> int:
    """Map a raw draw in [1, 7200] to a dwell-weighted cell number."""
    if i <= 600:
        return i // 2
    if i <= 2100:
        return 300 + (i - 600) // 30
    return 350 + (i - 2100) // 102


@lru_cache(maxsize=1)
def _raw_cells() -> np.ndarray:
    """cell_of of every raw draw, indexed by the draw; index 0 is never drawn.
    Built on first use, so importing the package does not pay for it."""
    return np.array([cell_of(i) for i in range(RAW_RANGE + 1)], dtype=np.int16)


def cell_probabilities() -> np.ndarray:
    """Exact cell distribution implied by cell_of over the 7200 raw values."""
    return np.bincount(_raw_cells()[1:]) / RAW_RANGE


def analytic_pn(n: int, q: int) -> float:
    """Exact p_n, the model's definition that the sampled table estimates;
    runs read the table, and the tests check the table against this."""
    p = cell_probabilities()
    miss_one_trial = float(np.sum(p * (1.0 - p) ** n))
    return 1.0 - miss_one_trial ** q


@dataclass(frozen=True)
class PnTable:
    q: int
    probs: tuple  # p_1 .. p_20

    def p_for(self, n: int) -> float:
        if n < 1:
            return 0.0
        if n > MAX_TABLE_N:
            return 1.0
        return self.probs[n - 1]


def build_pn_table(q: int, iterations: int = 100_000, seed: int = 0) -> PnTable:
    """Estimate p_1..p_20 by simulating the 21-person venue visits."""
    if q < 1:
        raise ValueError("q must be at least 1")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    rng = np.random.default_rng(seed)
    met_counts = np.zeros(MAX_TABLE_N, dtype=np.int64)
    batch = max(1, min(iterations, _BATCH_DRAWS // (q * (MAX_TABLE_N + 1))))
    done = 0
    while done < iterations:
        m = min(batch, iterations - done)
        raw = rng.integers(1, RAW_RANGE + 1, size=(m, q, MAX_TABLE_N + 1), dtype=np.int32)
        cells = _raw_cells()[raw]
        # met[iter, trial, k]: infected k shared a cell with the susceptible
        met = cells[:, :, 1:] == cells[:, :, :1]
        met_any_trial = met.any(axis=1)
        # once any of the first n met, all larger n count the iteration too
        met_first_n = np.logical_or.accumulate(met_any_trial, axis=1)
        met_counts += met_first_n.sum(axis=0)
        done += m
    return PnTable(q, tuple(met_counts / iterations))


def transmit(encounter, table: PnTable) -> set:
    """Ids of susceptibles infected by one encounter.

    encounter: sequence of (person id, Status).  p_0 is 0.0, so a gathering
    without an infected person, or without a susceptible one, infects nobody.
    """
    n_infected = sum(1 for _, st in encounter if st == Status.I)
    susceptible = sorted(pid for pid, st in encounter if st == Status.S)
    k = int(table.p_for(n_infected) * len(susceptible))
    return set(susceptible[:k])
