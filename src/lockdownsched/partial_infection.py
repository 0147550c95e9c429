"""Fractional infection-pressure model for small-group encounters.

Every person carries an infection level I in [0,1] (susceptibility S = 1-I).
When a group shares a venue that is divided into s sub-locations, the chance
that the most susceptible participant bumps into the j-th most infected one,
and nobody more infected, is g_j = (1/s)((s-1)/s)^(j-1).  The encounter's
infection pressure weighs those geometric factors by infection levels; the
pressure then bumps every participant's level for the next encounter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product


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

    @classmethod
    def of(cls, levels, s: int) -> "EncounterGroup":
        return cls(tuple(enumerate(levels)), s)


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


def apply_update(group: EncounterGroup, pressure: float) -> tuple:
    """New (person id, i_level) pairs after one encounter: I' = p*S + I."""
    if not 0.0 <= pressure <= 1.0:
        raise ValueError("pressure must lie in [0, 1]")
    return tuple((pid, pressure * (1.0 - lvl) + lvl) for pid, lvl in group.participants)


# --- exhaustive enumeration oracle -----------------------------------------

def labeling_term(group: EncounterGroup, roles: str) -> float:
    """Pressure contribution of one explicit susceptible/infected labeling.

    Walks every one of the s^n_p ways the group can spread over sub-locations.
    Whenever the reference susceptible (the labeled-S participant with the
    highest S) shares a sub-location with labeled-I participants, the credit
    goes to the most infected of them; ties go to the lowest person id.
    """
    parts = group.participants
    n_p = len(parts)
    if len(roles) != n_p or set(roles) - {"S", "I"}:
        raise ValueError("roles must be an S/I string matching the group size")
    if "S" not in roles or "I" not in roles:
        raise ValueError("labeling needs at least one S and one I")
    sus = [k for k in range(n_p) if roles[k] == "S"]
    inf = [k for k in range(n_p) if roles[k] == "I"]
    ref = min(sus, key=lambda k: (-(1.0 - parts[k][1]), parts[k][0]))
    s_ref = 1.0 - parts[ref][1]

    credit = {k: 0 for k in inf}
    for assignment in product(range(group.s), repeat=n_p):
        here = [k for k in inf if assignment[k] == assignment[ref]]
        if here:
            winner = min(here, key=lambda k: (-parts[k][1], parts[k][0]))
            credit[winner] += 1
    total = 0.0
    for k in inf:
        total += s_ref * parts[k][1] * credit[k]
    return total / group.s ** n_p


def brute_force_pressure(group: EncounterGroup) -> float:
    """Oracle for encounter_pressure: maximum over all role labelings."""
    n_p = len(group.participants)
    if n_p > 5 or group.s > 6:
        raise ValueError("instance too large to enumerate")
    if n_p < 2:
        return 0.0
    best = 0.0
    for bits in product("SI", repeat=n_p):
        roles = "".join(bits)
        if "S" not in roles or "I" not in roles:
            continue
        best = max(best, labeling_term(group, roles))
    return best
