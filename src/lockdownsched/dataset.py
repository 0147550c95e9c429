"""Population and visit-request data model.

A dataset holds the people taking part in the scheduling exercise, each with
an age decade, a health level on a 1..10 scale, an immunity flag and three
days' worth of visit requests.  Requests use three-symbol keys such as
``AD2``: preferred part of day, establishment kind, establishment number.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

AGE_GROUPS = (20, 30, 40, 50, 60, 70, 80)

# part-of-day windows mapped to (first slot, slot count) on the 8-slot day
WINDOWS = {
    "M": (0, 2),  # morning    08:00-12:00
    "P": (2, 3),  # afternoon  12:00-18:00
    "N": (5, 3),  # night      18:00-24:00
    "A": (0, 8),  # any time
}

ESTABLISHMENT_KINDS = "FCPDRS"
ESTABLISHMENT_NAMES = {
    "F": "SUPERMARKET",
    "C": "SPORTS CLUB",
    "P": "PARK",
    "D": "DOCTOR'S SURGERY",
    "R": "RESTAURANT",
    "S": "SOCIAL ESTABLISHMENT",
}

N_DAYS = 3
N_SLOTS = 8
N_ESTABLISHMENTS = 12

SUSCEPTIBLE, INFECTED, IMMUNE = 0, 1, 2


def establishment_id(kind: str, index: int) -> int:
    """Dense 0..11 id for an establishment, kind-major then house number."""
    return ESTABLISHMENT_KINDS.index(kind) * 2 + (index - 1)


def establishment_label(est_id: int) -> str:
    kind = ESTABLISHMENT_KINDS[est_id // 2]
    return f"{ESTABLISHMENT_NAMES[kind]} {est_id % 2 + 1}"


def slot_label(slot: int) -> str:
    return f"{8 + 2 * slot}-{10 + 2 * slot} HOURS"


@dataclass(frozen=True, slots=True)
class VisitRequest:
    window: str
    kind: str
    index: int

    @property
    def key(self) -> str:
        return f"{self.window}{self.kind}{self.index}"


@dataclass(frozen=True, slots=True)
class Person:
    id: int
    age_group: int
    health: float
    immunity_flag: int
    requests_by_day: tuple  # 3 tuples of VisitRequest

    def n_requests(self) -> int:
        return sum(len(day) for day in self.requests_by_day)


@dataclass(frozen=True)
class Dataset:
    persons: tuple
    taxonomy_infection: dict = field(default_factory=dict)

    def n_requests(self) -> int:
        return sum(p.n_requests() for p in self.persons)

    def requests(self) -> tuple:
        """(person position, day, request) for every request, in canonical
        order: person order, then day, then the person's order within the day.
        Plans, decoders and the simulators all read requests in this order.

        Built on first use and kept, as request_index is: a Dataset never
        changes, and walking a flat tuple is cheaper than the nested loops.
        """
        walk = self.__dict__.get("_requests")
        if walk is None:
            walk = tuple(
                (pi, day, req)
                for pi, person in enumerate(self.persons)
                for day, requests in enumerate(person.requests_by_day)
                for req in requests
            )
            object.__setattr__(self, "_requests", walk)
        return walk

    def with_taxonomy(self, priors: dict) -> "Dataset":
        return replace(self, taxonomy_infection=dict(priors))

    def digest(self) -> str:
        """Content hash covering persons, requests and taxonomy priors."""
        h = hashlib.sha256(serialize_dataset(self).encode())
        h.update(format_priors(self.taxonomy_infection).encode())
        return h.hexdigest()


class DatasetFormatError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_request_key(key: str, lineno: int = 0) -> VisitRequest:
    if len(key) != 3:
        raise DatasetFormatError(lineno, f"malformed request key {key!r}")
    window, kind, idx = key[0], key[1], key[2]
    if window not in WINDOWS:
        raise DatasetFormatError(lineno, f"unknown window symbol {window!r} in {key!r}")
    if kind not in ESTABLISHMENT_KINDS:
        raise DatasetFormatError(lineno, f"unknown establishment kind {kind!r} in {key!r}")
    if idx not in "12":
        raise DatasetFormatError(lineno, f"establishment index must be 1 or 2 in {key!r}")
    return VisitRequest(window, kind, int(idx))


def parse_dataset(text: str) -> Dataset:
    """Parse the one-person-per-line text format.

    ``id age health immunity_flag day1_keys | day2_keys | day3_keys`` with
    requests within a day separated by colons.  ``#`` starts a comment.
    Missing trailing day groups are treated as empty days.
    """
    persons = []
    seen_ids = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 4)
        if len(fields) < 4:
            raise DatasetFormatError(lineno, "expected `id age health flag` prefix")
        try:
            pid = int(fields[0])
            age = int(fields[1])
            health = float(fields[2])
            flag = int(fields[3])
        except ValueError as exc:
            raise DatasetFormatError(lineno, f"bad numeric field: {exc}") from None
        if pid < 0:
            raise DatasetFormatError(lineno, f"negative person id {pid}")
        if pid in seen_ids:
            raise DatasetFormatError(lineno, f"duplicate person id {pid}")
        if age not in AGE_GROUPS:
            raise DatasetFormatError(lineno, f"age {age} not one of {AGE_GROUPS}")
        if not 1.0 <= health <= 10.0:
            raise DatasetFormatError(lineno, f"health {health} outside [1.0, 10.0]")
        if flag not in (SUSCEPTIBLE, INFECTED, IMMUNE):
            raise DatasetFormatError(lineno, f"immunity flag {flag} not in 0/1/2")

        day_part = fields[4] if len(fields) == 5 else ""
        segments = day_part.split("|")
        if len(segments) > N_DAYS:
            raise DatasetFormatError(lineno, f"{len(segments)} day groups, at most {N_DAYS} allowed")
        days = []
        for segment in segments:
            keys = [k.strip() for k in segment.split(":")]
            days.append(tuple(parse_request_key(k, lineno) for k in keys if k))
        while len(days) < N_DAYS:
            days.append(())
        persons.append(Person(pid, age, health, flag, tuple(days)))
        seen_ids.add(pid)
    return Dataset(tuple(persons))


def serialize_dataset(ds: Dataset) -> str:
    lines = []
    for p in ds.persons:
        days = " | ".join(":".join(r.key for r in day) for day in p.requests_by_day)
        lines.append(f"{p.id} {p.age_group} {p.health!r} {p.immunity_flag} {days}".rstrip())
    return "\n".join(lines) + "\n"


def load_dataset(path) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        return parse_dataset(fh.read())


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_dataset(ds))


def parse_priors(text: str) -> dict:
    """Parse taxonomy infection priors like ``20=0.03;30=0.01``."""
    priors = {}
    for pair in text.split(";"):
        pair = pair.strip()
        if not pair:
            continue
        age_s, _, prob_s = pair.partition("=")
        try:
            age, prob = int(age_s), float(prob_s)
        except ValueError:
            raise ValueError(
                f"bad priors entry {pair!r}, expected AGE=FRACTION"
            ) from None
        if age not in AGE_GROUPS:
            raise ValueError(f"age {age} not one of {AGE_GROUPS}")
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"prior {prob} outside [0, 1]")
        priors[age] = prob
    return priors


def format_priors(priors: dict) -> str:
    return ";".join(f"{age}={priors[age]!r}" for age in sorted(priors))


# --- synthetic generation matched to published population statistics -------

@dataclass(frozen=True)
class DayStats:
    mean: float
    minimum: int
    maximum: int
    variance: float


@dataclass(frozen=True)
class GroupProfile:
    count: int
    health_mean: float
    health_min: float
    health_max: float
    health_var: float
    visits: tuple  # one DayStats per day


@dataclass(frozen=True)
class PopulationProfile:
    groups: dict  # age_group -> GroupProfile
    day_totals: tuple


CANONICAL_PROFILE = PopulationProfile(
    groups={
        20: GroupProfile(35, 9.49, 9.0, 10.0, 0.09,
                         (DayStats(2.74, 1, 5, 0.53), DayStats(2.57, 1, 4, 0.53), DayStats(2.60, 1, 4, 0.47))),
        30: GroupProfile(65, 9.08, 8.1, 10.0, 0.29,
                         (DayStats(2.08, 1, 5, 0.69), DayStats(2.06, 1, 5, 0.67), DayStats(1.88, 1, 4, 0.54))),
        40: GroupProfile(49, 8.51, 7.0, 9.9, 0.65,
                         (DayStats(2.41, 1, 4, 0.65), DayStats(2.37, 1, 4, 0.68), DayStats(2.06, 1, 3, 0.79))),
        50: GroupProfile(43, 7.27, 5.1, 9.9, 2.37,
                         (DayStats(2.23, 1, 4, 0.46), DayStats(2.23, 1, 4, 0.50), DayStats(2.12, 1, 3, 0.47))),
        60: GroupProfile(27, 7.86, 4.2, 10.0, 2.29,
                         (DayStats(2.26, 1, 4, 0.85), DayStats(2.19, 1, 4, 0.89), DayStats(1.85, 1, 4, 0.94))),
        70: GroupProfile(43, 5.45, 2.1, 9.0, 3.31,
                         (DayStats(1.30, 1, 3, 0.30), DayStats(1.26, 1, 3, 0.24), DayStats(1.30, 1, 3, 0.40))),
        80: GroupProfile(20, 4.10, 1.3, 7.0, 3.69,
                         (DayStats(1.20, 1, 3, 0.26), DayStats(1.15, 1, 2, 0.13), DayStats(1.75, 1, 4, 0.69))),
    },
    day_totals=(586, 572, 546),
)


def _validate_profile(profile: PopulationProfile) -> None:
    for age, g in profile.groups.items():
        if age not in AGE_GROUPS:
            raise ValueError(f"profile group {age} not a known age group")
        if g.count < 0:
            raise ValueError(f"group {age}: negative person count")
        if g.health_min > g.health_max:
            raise ValueError(f"group {age}: health min above max")
        if len(g.visits) != N_DAYS:
            raise ValueError(f"group {age}: expected {N_DAYS} per-day visit stats")
        for stats in g.visits:
            if stats.minimum > stats.maximum:
                raise ValueError(f"group {age}: visit min above max")
    for day, total in enumerate(profile.day_totals):
        lo = sum(g.count * g.visits[day].minimum for g in profile.groups.values())
        hi = sum(g.count * g.visits[day].maximum for g in profile.groups.values())
        if not lo <= total <= hi:
            raise ValueError(f"day {day}: total {total} infeasible for [{lo}, {hi}]")


def _random_request(rng) -> VisitRequest:
    window = "MPNA"[rng.integers(0, 4)]
    kind = ESTABLISHMENT_KINDS[rng.integers(0, 6)]
    return VisitRequest(window, kind, int(rng.integers(1, 3)))


def generate_dataset(seed: int, profile: PopulationProfile = CANONICAL_PROFILE) -> Dataset:
    """Build a synthetic population matching the profile statistics.

    Health comes from a clipped normal per group; per-day visit counts from a
    rounded clipped normal, then nudged within the per-group bounds so each
    day's total request count lands exactly on the profile's day totals.
    Pure function of (seed, profile).
    """
    _validate_profile(profile)
    rng = np.random.default_rng(seed)

    ages, healths, group_stats = [], [], []
    for age in sorted(profile.groups):
        g = profile.groups[age]
        for _ in range(g.count):
            h = rng.normal(g.health_mean, math.sqrt(g.health_var))
            h = round(min(max(h, g.health_min), g.health_max), 1)
            ages.append(age)
            healths.append(h)
            group_stats.append(g)
    n = len(ages)

    counts = np.zeros((n, N_DAYS), dtype=int)
    for i in range(n):
        for d in range(N_DAYS):
            stats = group_stats[i].visits[d]
            c = int(round(rng.normal(stats.mean, math.sqrt(stats.variance))))
            counts[i, d] = min(max(c, stats.minimum), stats.maximum)

    for d, target in enumerate(profile.day_totals):
        diff = target - int(counts[:, d].sum())
        while diff != 0:
            if diff > 0:
                adjustable = [i for i in range(n) if counts[i, d] < group_stats[i].visits[d].maximum]
                counts[rng.choice(adjustable), d] += 1
                diff -= 1
            else:
                adjustable = [i for i in range(n) if counts[i, d] > group_stats[i].visits[d].minimum]
                counts[rng.choice(adjustable), d] -= 1
                diff += 1

    persons = []
    for i in range(n):
        days = tuple(tuple(_random_request(rng) for _ in range(counts[i, d])) for d in range(N_DAYS))
        persons.append(Person(i, ages[i], healths[i], SUSCEPTIBLE, days))
    return Dataset(tuple(persons))


def mark_apriori_infection(ds: Dataset, fraction_infected: float, fraction_immune: float,
                           seed: int) -> Dataset:
    """Flag the healthiest people as already infected, the next as immune.

    Counts are the nearest integers to fraction x population.  Ties in health
    are broken by a seeded shuffle.  Returns a new dataset.
    """
    if not (0.0 <= fraction_infected <= 1.0 and 0.0 <= fraction_immune <= 1.0):
        raise ValueError("fractions must lie in [0, 1]")
    if fraction_infected + fraction_immune > 1.0:
        raise ValueError("fractions sum above 1")
    n = len(ds.persons)
    n_infected = int(fraction_infected * n + 0.5)
    n_immune = int(fraction_immune * n + 0.5)

    rng = np.random.default_rng(seed)
    tiebreak = rng.permutation(n)
    order = sorted(range(n), key=lambda i: (-ds.persons[i].health, tiebreak[i]))

    flags = {}
    for i in order[:n_infected]:
        flags[i] = INFECTED
    for i in order[n_infected:n_infected + n_immune]:
        flags[i] = IMMUNE
    persons = tuple(
        replace(p, immunity_flag=flags.get(i, SUSCEPTIBLE)) for i, p in enumerate(ds.persons)
    )
    return replace(ds, persons=persons)


# --- flat request table used by allocation decoding and the simulator ------

@dataclass(frozen=True)
class RequestIndex:
    """Dataset requests flattened in canonical order (Dataset.requests)."""
    n_persons: int
    n_requests: int
    person: np.ndarray        # person position in ds.persons (not id)
    day: np.ndarray
    window_base: np.ndarray
    window_width: np.ndarray
    establishment: np.ndarray
    person_id: np.ndarray     # id field per person position
    health: np.ndarray


def request_index(ds: Dataset) -> RequestIndex:
    """The dataset's RequestIndex, built on first use and shared after.

    A Dataset is frozen and its persons are immutable (replace() and the
    helpers above return new instances), so the index never goes stale.  Its
    arrays are read-only because every caller shares them.
    """
    index = ds.__dict__.get("_request_index")
    if index is None:
        index = _build_request_index(ds)
        for value in vars(index).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        object.__setattr__(ds, "_request_index", index)
    return index


def _build_request_index(ds: Dataset) -> RequestIndex:
    person, day, base, width, est = [], [], [], [], []
    for i, d, r in ds.requests():
        b, w = WINDOWS[r.window]
        person.append(i)
        day.append(d)
        base.append(b)
        width.append(w)
        est.append(establishment_id(r.kind, r.index))
    return RequestIndex(
        n_persons=len(ds.persons),
        n_requests=len(person),
        person=np.asarray(person, dtype=np.int32),
        day=np.asarray(day, dtype=np.int8),
        window_base=np.asarray(base, dtype=np.int8),
        window_width=np.asarray(width, dtype=np.int8),
        establishment=np.asarray(est, dtype=np.int8),
        person_id=np.asarray([p.id for p in ds.persons], dtype=np.int32),
        health=np.asarray([p.health for p in ds.persons], dtype=np.float64),
    )
