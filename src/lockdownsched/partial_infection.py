"""Fractional infection-pressure model for small-group encounters.

Every person carries an infection level I in [0,1] (susceptibility S = 1-I).
When a group shares a venue that is divided into s sub-locations, the chance
that the most susceptible participant bumps into the j-th most infected one,
and nobody more infected, is g_j = (1/s)((s-1)/s)^(j-1).  The encounter's
infection pressure p weighs those geometric factors by infection levels;
every participant's level then moves to I' = p(1-I) + I, which both
simulation engines apply inline.  Both engines read the model's age-banded
rules from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# each isolation band also requires poor health; both engines read it at call time
ISOLATION_HEALTH_CAP = 7.0


@dataclass(frozen=True)
class PartialRule:
    """Per-age-group thresholds of the fractional infection model.

    Isolation: I above iso_high, or inside (iso_low, iso_high] while health
    is at most ISOLATION_HEALTH_CAP.  Outcomes apply when I ends above
    out_threshold: health above immune_above escapes unharmed, above
    recover_above survives the ICU, anything lower dies.  Bands are
    lower-exclusive, upper-inclusive.
    """
    iso_high: float
    iso_low: float
    out_threshold: float
    immune_above: float
    recover_above: float


PARTIAL_RULES = {
    20: PartialRule(0.97, 0.95, 0.95, 7.0, 3.0),
    30: PartialRule(0.95, 0.92, 0.90, 8.0, 4.0),
    40: PartialRule(0.92, 0.87, 0.85, 8.0, 4.0),
    50: PartialRule(0.85, 0.80, 0.80, 8.0, 4.0),
    60: PartialRule(0.75, 0.70, 0.75, 9.0, 5.0),
    70: PartialRule(0.65, 0.60, 0.70, 9.5, 7.5),
    80: PartialRule(0.65, 0.60, 0.65, math.inf, 8.5),
}


def g_factor(s: int, j: int) -> float:
    """Co-location weight for the j-th ranked infected among s sub-locations."""
    if s < 2 or j < 1:
        raise ValueError("need s >= 2 and j >= 1")
    return (1.0 / s) * ((s - 1.0) / s) ** (j - 1)


@lru_cache(maxsize=64)
def _g_prefix(s: int, count: int) -> tuple:
    return tuple(g_factor(s, j) for j in range(1, count + 1))


@dataclass(frozen=True)
class EncounterGroup:
    """Participants as (person id, i_level) pairs meeting across s sub-locations."""
    participants: tuple
    s: int


def encounter_pressure(group: EncounterGroup) -> float:
    """Infection pressure produced by one encounter.

    Degenerate gatherings (fewer than two people, nobody infected, or nobody
    with any susceptibility left) produce no pressure.  Otherwise the most
    susceptible participant's S scales the descending-sorted infection levels
    of the rest, paired with the decreasing g factors; when fully susceptible
    people are present that scale is 1 and only infected levels enter the sum.
    """
    parts = group.participants
    n_p = len(parts)
    if n_p < 2:
        return 0.0
    levels = [lvl for _, lvl in parts]
    n = sum(1 for lvl in levels if lvl > 0.0)
    if n == 0 or all(lvl >= 1.0 for lvl in levels):
        return 0.0
    if n == n_p:
        # ties on the most-susceptible participant resolve to the lowest id
        owner = min(range(n_p), key=lambda k: (levels[k], parts[k][0]))
        s_max = 1.0 - levels[owner]
        ranked = sorted((levels[k] for k in range(n_p) if k != owner), reverse=True)
    else:
        s_max = 1.0
        ranked = sorted((lvl for lvl in levels if lvl > 0.0), reverse=True)
    g = _g_prefix(group.s, len(ranked))
    pressure = 0.0
    for j, lvl in enumerate(ranked):
        pressure += s_max * lvl * g[j]
    return pressure
