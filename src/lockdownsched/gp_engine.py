"""Steady-state evolution of slot-printing program trees.

Each parallel independent run (PIR) keeps a fixed-size population and breeds
one offspring at a time: tournament-of-``TOURNAMENT_SIZE`` parent selection
(ties prefer the smaller tree), subtree crossover against a second
tournament winner with probability ``CROSSOVER_RATE``, subtree mutation
otherwise, and a kill-tournament-of-``KILL_TOURNAMENT_SIZE`` picks the slot
to reuse (ties kill the bigger tree, the incumbent best is never killed).
The initial population and the variation operators use the ``gp_tree``
constants: ramped depths ``RAMP_MIN_DEPTH``..``RAMP_MAX_DEPTH``, the
``TREE_CAP`` size cap and mutation subtrees of depth at most
``MUTATION_DEPTH``.

A run has two phases that share this breeding step and the budget.  When
``seed_len`` is set, a warm-up comes first: it scores individuals by printed
vector length alone until the whole population prints at least ``seed_len``
values, which makes long allocation vectors appear quickly; its offspring
count against the budget.  The fitness phase then scores the population
and breeds on.  Every strict improvement of the best fitness is emitted as
a solution record, so a run's trajectory can be archived and replayed.

A tree's printed vector becomes a plan through _simcore.bound_array and
_simcore.decode_slots, the package's one bounding and decoding rule.
bound_array refuses a NaN or an infinity; a program whose vector holds one
is assigned negative-infinite fitness instead of raising.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass

import numpy as np

from ._simcore import (
    bound_array,
    build_context,
    counts_for_slots,
    decode_slots,
)
from .dataset import Dataset, request_index
from .full_infection import PnTable
from .gp_tree import _below, crossover, eval_tree, mutate, ramped_population
from .simulator import MODEL_FULL, MODEL_PARTIAL, fitness_value

TOURNAMENT_SIZE = 4
KILL_TOURNAMENT_SIZE = 2
CROSSOVER_RATE = 0.8
# entries of the fitness memo; no key is longer than the request count, so
# this caps the keys at about 15 MB at 1704 requests.  A full memo starts over
MEMO_ENTRIES = 8192


@dataclass(frozen=True)
class GpConfig:
    """Settings of one evolution run; validated on construction.

    The search scheme itself is fixed: ``TOURNAMENT_SIZE``,
    ``KILL_TOURNAMENT_SIZE`` and ``CROSSOVER_RATE`` are module constants.
    """

    model: str = MODEL_PARTIAL
    s: int | None = 4
    q: int | None = None
    w_c: float = 0.65
    population: int = 500
    budget: int = 20_000
    seed_len: int | None = None
    target_fitness: float | None = None
    target_nd: int | None = None

    def __post_init__(self):
        if self.model not in (MODEL_PARTIAL, MODEL_FULL):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == MODEL_PARTIAL:
            if self.s is None or self.s < 2:
                raise ValueError("partial model needs group size s >= 2")
        else:
            if self.q is None or self.q < 1:
                raise ValueError("full model needs trial count q >= 1")
        if self.population < 4:
            raise ValueError("population must be at least 4")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if not 0.0 <= self.w_c <= 1.0:
            raise ValueError("w_c outside [0, 1]")
        if self.seed_len is not None and self.seed_len < 1:
            raise ValueError("seed_len must be positive when set")
        # a target no run can reach, or one strict JSON cannot record
        if self.target_fitness is not None and not math.isfinite(self.target_fitness):
            raise ValueError("target_fitness must be finite when set")
        if self.target_nd is not None and self.target_nd < 0:
            raise ValueError("target_nd must not be negative when set")


@dataclass(frozen=True)
class SolutionRecord:
    """One emitted improvement: the bounded vector plus its evaluation."""

    vector: tuple
    fitness: float
    n_h: int
    n_d: int
    pir_id: int
    seed: int
    plan_digest: str

    def sort_key(self):
        # total order: best fitness first, then fewer deaths, then stable
        # tie-breaks so merge order never changes the ranked result
        return (
            -self.fitness,
            self.n_d,
            self.n_h,
            self.pir_id,
            self.plan_digest,
            self.vector,
        )


@dataclass(frozen=True)
class Archive:
    """Merged PIR output: ranked records and the (N_D, N_H) Pareto front."""

    records: tuple
    pareto: tuple


def _slots_digest(ds_hash, slots) -> str:
    """A record's plan_digest: the sha256 of the dataset digest, then the
    slots as int64 bytes.  ds_hash, the dataset half, is left as it was."""
    h = ds_hash.copy()
    h.update(np.asarray(slots, dtype=np.int64).tobytes())
    return h.hexdigest()


def dominates(a, b) -> bool:
    """Whether (N_D, N_H) point a is no worse than b in both and better in one."""
    return a[0] <= b[0] and a[1] <= b[1] and a != b


def pareto_front(records) -> tuple:
    """Records whose (N_D, N_H) is not dominated by any other record's."""
    points = {(r.n_d, r.n_h) for r in records}
    front = [
        rec
        for rec in records
        if not any(dominates(p, (rec.n_d, rec.n_h)) for p in points)
    ]
    best_per_point = {}
    for rec in sorted(front, key=SolutionRecord.sort_key):
        best_per_point.setdefault((rec.n_d, rec.n_h), rec)
    return tuple(best_per_point[p] for p in sorted(best_per_point))


class _Evaluator:
    """Tree -> (fitness, n_h, n_d), memoised by printed vector and by plan.

    One dict holds two kinds of key.  A plan key is the decoded plan, one
    byte per request: the week is deterministic in the plan, so different
    vectors that decode alike share one simulation.  A vector key is the
    float64 bytes of the raw printed vector: equal bytes bound and decode to
    an equal plan, so a hit skips bounding and decoding too.  Only vectors
    of fewer than ``n_requests / 8`` values get one, so every vector key is
    shorter than every plan key and the kinds cannot collide.  The dict
    starts over when it would hold more than ``MEMO_ENTRIES`` entries.
    """

    def __init__(self, ds, config, table: PnTable | None):
        self.config = config
        if config.model == MODEL_FULL and (table is None or table.q != config.q):
            raise ValueError(f"the full model needs the p_n table for q={config.q}")
        self.ctx = build_context(ds, config.model, s=config.s, table=table)
        self.ri = request_index(ds)
        # plan_digest's dataset half, hashed once
        self.ds_hash = hashlib.sha256(ds.digest().encode())
        self.memo = {}

    def evaluate(self, tree: tuple) -> tuple:
        raw = eval_tree(tree)
        vkey = None
        if 8 * len(raw) < self.ri.n_requests:
            vkey = array("d", raw).tobytes()
            scored = self.memo.get(vkey)
            if scored is not None:
                return scored
        try:
            bounded = bound_array(raw)
        except ValueError:  # a NaN or an infinity, which never enters the memo
            return (-math.inf, -1, -1)
        slots = decode_slots(self.ri, bounded)
        # every slot index is below N_SLOTS, so one byte per request is a key
        key = slots.astype(np.uint8).tobytes()
        scored = self.memo.get(key)
        if scored is None:
            n_h, n_d = counts_for_slots(self.ctx, slots)
            scored = (fitness_value(n_h, n_d, self.config.w_c), n_h, n_d)
        elif vkey is None:
            return scored
        # room for both keys, so the plan just scored survives a restart
        if len(self.memo) + 2 > MEMO_ENTRIES:
            self.memo.clear()
        self.memo[key] = scored
        if vkey is not None:
            self.memo[vkey] = scored
        return scored

    def record(self, tree: tuple, scored, pir_id, seed):
        # called for finite-fitness trees only, so the vector is finite
        fitness, n_h, n_d = scored
        bounded = bound_array(eval_tree(tree))
        slots = decode_slots(self.ri, bounded)
        return SolutionRecord(
            vector=tuple(float(v) for v in bounded),
            fitness=fitness,
            n_h=int(n_h),
            n_d=int(n_d),
            pir_id=pir_id,
            seed=seed,
            plan_digest=_slots_digest(self.ds_hash, slots),
        )


def _tournament(rng, scores, sizes, k: int) -> int:
    """Index of the winner: best score, ties won by the smaller tree."""
    bits, n = rng.getrandbits, len(scores)
    best = _below(bits, n)
    for _ in range(k - 1):
        j = _below(bits, n)
        if (scores[j], -sizes[j]) > (scores[best], -sizes[best]):
            best = j
    return best


def _kill_tournament(rng, scores, sizes, protect: int) -> int:
    """Slot to overwrite: worst score, ties kill the bigger tree."""
    bits, n = rng.getrandbits, len(scores)
    while True:
        i = _below(bits, n)
        j = _below(bits, n)
        loser = i if (scores[i], -sizes[i]) <= (scores[j], -sizes[j]) else j
        if loser == protect:
            loser = j if loser == i else i
        if loser != protect:
            return loser


def _target_met(config: GpConfig, fitness: float, n_d: int) -> bool:
    if config.target_fitness is not None and fitness >= config.target_fitness:
        return True
    if config.target_nd is not None and 0 <= n_d <= config.target_nd:
        return True
    return False


def _breed(rng, population, sizes, scores, best_idx) -> int:
    """Breed one offspring into the slot a kill tournament frees; its index."""
    parent = _tournament(rng, scores, sizes, TOURNAMENT_SIZE)
    if rng.random() < CROSSOVER_RATE:
        partner = _tournament(rng, scores, sizes, TOURNAMENT_SIZE)
        child = crossover(population[parent], population[partner], rng)
    else:
        child = mutate(population[parent], rng)
    victim = _kill_tournament(rng, scores, sizes, best_idx)
    population[victim] = child
    sizes[victim] = len(child)
    return victim


def evolve_pir(
    ds: Dataset,
    config: GpConfig,
    seed: int,
    sink=None,
    *,
    pir_id: int = 0,
    table: PnTable | None = None,
) -> SolutionRecord:
    """Run one independent evolution; returns the best record found.

    ``sink``, when given, receives every strict improvement (the first
    finite-fitness best included) in the order they appear.  The full model
    needs ``table``, the p_n table for ``config.q``.
    """
    evaluator = _Evaluator(ds, config, table)
    rng = random.Random(seed)
    population = ramped_population(rng, config.population)
    sizes = [len(t) for t in population]
    spent = 0

    if config.seed_len is not None:
        lengths = [len(eval_tree(t)) for t in population]
        best_idx = max(range(len(population)), key=lambda i: (lengths[i], -sizes[i]))
        while spent < config.budget:
            victim = _breed(rng, population, sizes, lengths, best_idx)
            spent += 1
            lengths[victim] = len(eval_tree(population[victim]))
            if (lengths[victim], -sizes[victim]) > (
                lengths[best_idx], -sizes[best_idx]
            ):
                best_idx = victim
            if min(lengths) >= config.seed_len:
                break

    scored = [evaluator.evaluate(t) for t in population]
    fitness = [f for f, _, _ in scored]
    best_idx = max(range(len(population)), key=lambda i: (fitness[i], -sizes[i]))
    best_rec = None
    improved = True
    while True:
        # the kill tournament spares the best, so the target can only be met here
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


def run_pirs(
    ds: Dataset,
    config: GpConfig,
    seeds,
    *,
    table: PnTable | None = None,
) -> Archive:
    """Run several PIRs and merge their improvement streams.

    The ranked list is sorted by a total key so that the merge order of the
    runs can never change the result; the Pareto front minimises deaths and
    hospitalisations jointly.  Later PIRs are skipped once a run has already
    met the configured early-stop target.  Each PIR scores its trees with a
    memo of its own; PIRs share under 1% of their plans.
    """
    records = []
    for pir_id, seed in enumerate(seeds):
        best = evolve_pir(ds, config, seed, records.append, pir_id=pir_id, table=table)
        if _target_met(config, best.fitness, best.n_d):
            break
    ranked = tuple(sorted(records, key=SolutionRecord.sort_key))
    return Archive(records=ranked, pareto=pareto_front(ranked))
