"""Oracles the tests compare the package against; no run executes them.

The scalar loops that bounding, decoding and plan reading were written as
before the array core in lockdownsched._simcore took them over, the
exhaustive enumeration that encounter_pressure's sorted sum must equal, and
tree building, variation and tournaments as they drew from random.Random's
choice, randint and randrange before each draw went to getrandbits
directly, the evolution loop as it spent its whole budget before a run
stopped at the first plan to score 0.0, and encounter_pressure as it found
the most susceptible participant by (level, id) before it sorted once and
dropped the lowest level.  They are kept here, outside the package, so src/
holds only what a run executes."""

import csv
import math
import random
from itertools import product

from lockdownsched.allocation import PLAN_CSV_HEADER, AllocationPlan, validate_plan
from lockdownsched.dataset import WINDOWS, request_index
from lockdownsched.gp_engine import _breed, _Evaluator, _target_met
from lockdownsched.gp_tree import (
    CONSTANT,
    FUNCTION_CODES,
    KIND_CODES_ALL,
    MAX_VECTOR_LEN,
    MUTATION_DEPTH,
    SCONSTANT,
    _graft,
    _subtree_end,
    ramped_population,
)
from lockdownsched.partial_infection import EncounterGroup, g_factor


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


def walk_requests(ds) -> list:
    """(person position, day, request) of every request, in canonical order:
    person order, then day, then the person's order within the day.  Written
    out here, apart from the package's request index, so the suite states
    the order on its own."""
    return [
        (pi, day, req)
        for pi, person in enumerate(ds.persons)
        for day, requests in enumerate(person.requests_by_day)
        for req in requests
    ]


def decode_loop(vector, ds) -> tuple:
    """Slots from cycling the bounded vector over requests in order."""
    if len(vector) == 0:
        raise ValueError("vector must not be empty")
    slots = []
    for pos, (_, _, req) in enumerate(walk_requests(ds)):
        v = vector[pos % len(vector)]
        base, width = WINDOWS[req.window]
        slots.append(base + min(int(v * width), width - 1))
    return tuple(slots)


def plan_map(plan, ds) -> dict:
    """Map (person id, day, request ordinal) -> slot."""
    out = {}
    ordinal = {}
    for slot, (pi, day, _) in zip(plan.slots, walk_requests(ds), strict=True):
        key = (ds.persons[pi].id, day)
        k = ordinal.get(key, 0)
        ordinal[key] = k + 1
        out[(*key, k)] = slot
    return out


def read_plan_csv(ds, path) -> AllocationPlan:
    """The plan an allocations.csv holds, checked against the dataset."""
    ri = request_index(ds)
    expected = list(zip(ri.person_id[ri.person].tolist(), ri.day.tolist(), ri.key))
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


# --- random draws through random.Random's public integer methods -----------

def random_tree_by_choice(rng, depth: int, method: str = "grow") -> tuple:
    """gp_tree.random_tree drawing each kind with choice and each constant
    with randint."""
    codes = KIND_CODES_ALL if method == "grow" else FUNCTION_CODES
    nodes = []
    depths = [depth]
    while depths:
        d = depths.pop()
        if d > 0:
            code = rng.choice(codes)
            if code > SCONSTANT:
                nodes.append((code, 0.0))
                depths += (d - 1, d - 1)
                continue
        if rng.random() < 0.5:
            nodes.append((CONSTANT, float(rng.randint(-127, 128))))
        else:
            nodes.append((SCONSTANT, rng.randint(0, 255) / 255.0))
    return tuple(nodes)


def crossover_by_randrange(a: tuple, b: tuple, rng) -> tuple:
    ia = rng.randrange(len(a))
    ib = rng.randrange(len(b))
    return _graft(a, ia, b[ib : _subtree_end(b, ib)])


def mutate_by_randrange(a: tuple, rng) -> tuple:
    ia = rng.randrange(len(a))
    return _graft(a, ia, random_tree_by_choice(rng, MUTATION_DEPTH, "grow"))


def tournament_by_randrange(rng, scores, sizes, k: int) -> int:
    best = rng.randrange(len(scores))
    for _ in range(k - 1):
        j = rng.randrange(len(scores))
        if (scores[j], -sizes[j]) > (scores[best], -sizes[best]):
            best = j
    return best


def kill_tournament_by_randrange(rng, scores, sizes, protect: int) -> int:
    while True:
        i = rng.randrange(len(scores))
        j = rng.randrange(len(scores))
        loser = i if (scores[i], -sizes[i]) <= (scores[j], -sizes[j]) else j
        if loser == protect:
            loser = j if loser == i else i
        if loser != protect:
            return loser


# --- the evolution loop that spends its whole budget ------------------------

def evolve_pir_whole_budget(ds, config, seed, sink=None, *, pir_id=0, table=None):
    """gp_engine.evolve_pir breeding on after the best fitness reaches 0.0,
    until the budget or a configured target stops it.  The warm-up, which
    the stop does not touch, is left out."""
    if config.seed_len is not None:
        raise ValueError("the oracle runs no warm-up")
    evaluator = _Evaluator(ds, config, table)
    rng = random.Random(seed)
    population = ramped_population(rng, config.population)
    sizes = [len(t) for t in population]
    spent = 0
    scored = [evaluator.evaluate(t) for t in population]
    fitness = [f for f, _, _ in scored]
    best_idx = max(range(len(population)), key=lambda i: (fitness[i], -sizes[i]))
    best_rec = None
    improved = True
    while True:
        if improved and math.isfinite(fitness[best_idx]):
            best_rec = evaluator.record(
                population[best_idx], scored[best_idx], pir_id, seed
            )
            if sink is not None:
                sink(best_rec)
            if _target_met(config, best_rec.fitness, best_rec.n_d):
                break
        if spent >= config.budget:
            break
        victim = _breed(rng, population, sizes, fitness, best_idx)
        spent += 1
        scored[victim] = evaluator.evaluate(population[victim])
        fitness[victim] = scored[victim][0]
        improved = fitness[victim] > fitness[best_idx]
        if improved:
            best_idx = victim

    if best_rec is None:
        raise RuntimeError("evolution produced no finite-fitness individual")
    return best_rec


# --- exhaustive enumeration oracle for encounter_pressure -------------------

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


# --- encounter_pressure with an owner search --------------------------------

def encounter_pressure_by_owner(group: EncounterGroup) -> float:
    """encounter_pressure counting positive levels: with everyone infected,
    the owner, the lowest level with ties to the lowest id, is left out and
    their S scales the rest; otherwise S is 1 and only positive levels
    enter the sum."""
    parts = group.participants
    n_p = len(parts)
    if n_p < 2:
        return 0.0
    levels = [lvl for _, lvl in parts]
    n = sum(1 for lvl in levels if lvl > 0.0)
    if n == 0 or all(lvl >= 1.0 for lvl in levels):
        return 0.0
    if n == n_p:
        owner = min(range(n_p), key=lambda k: (levels[k], parts[k][0]))
        s_max = 1.0 - levels[owner]
        ranked = sorted((levels[k] for k in range(n_p) if k != owner), reverse=True)
    else:
        s_max = 1.0
        ranked = sorted((lvl for lvl in levels if lvl > 0.0), reverse=True)
    pressure = 0.0
    for j, lvl in enumerate(ranked):
        pressure += s_max * lvl * g_factor(group.s, j + 1)
    return pressure
