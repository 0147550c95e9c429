"""In-memory span tracer that wraps lockdownsched's public functions from outside.

The package is never edited: ``Tracer.install`` rebinds each traced function
in every ``lockdownsched`` module namespace that holds it (``from x import f``
copies the name, so ``gp_engine.decode_slots`` and ``_simcore.decode_slots``
are both replaced), and ``Tracer.uninstall`` restores the originals.

Each call records a span (name, start, end, parent span, unit id).  A layer's
self time is its span minus the time covered by its direct child spans.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import statistics
import sys
from time import perf_counter

# (module, attribute path, metric prefix).  The prefix drops the leading
# underscore of ``_simcore`` because metric names must start with a letter.
TARGETS = (
    ("lockdownsched.dataset", "generate_dataset", "dataset.generate_dataset"),
    ("lockdownsched.dataset", "load_dataset", "dataset.load_dataset"),
    ("lockdownsched.dataset", "save_dataset", "dataset.save_dataset"),
    ("lockdownsched.dataset", "Dataset.digest", "dataset.Dataset.digest"),
    ("lockdownsched.full_infection", "build_pn_table", "full_infection.build_pn_table"),
    ("lockdownsched._simcore", "build_context", "simcore.build_context"),
    ("lockdownsched._simcore", "bound_array", "simcore.bound_array"),
    ("lockdownsched._simcore", "decode_slots", "simcore.decode_slots"),
    ("lockdownsched._simcore", "counts_for_slots", "simcore.counts_for_slots"),
    ("lockdownsched.gp_tree", "compile_postfix", "gp_tree.compile_postfix"),
    ("lockdownsched.gp_tree", "run_vm", "gp_tree.run_vm"),
    ("lockdownsched.gp_tree", "crossover", "gp_tree.crossover"),
    ("lockdownsched.gp_tree", "mutate", "gp_tree.mutate"),
    ("lockdownsched.gp_tree", "ramped_population", "gp_tree.ramped_population"),
    ("lockdownsched.gp_engine", "evolve_pir", "gp_engine.evolve_pir"),
    ("lockdownsched.gp_engine", "run_pirs", "gp_engine.run_pirs"),
    ("lockdownsched.simulator", "simulate", "simulator.simulate"),
    ("lockdownsched.allocation", "round_robin", "allocation.round_robin"),
    ("lockdownsched.allocation", "decode", "allocation.decode"),
    ("lockdownsched.allocation", "write_plan_csv", "allocation.write_plan_csv"),
    ("lockdownsched.experiment", "run_experiment", "experiment.run_experiment"),
    ("lockdownsched.experiment", "run_from_manifest", "experiment.run_from_manifest"),
    ("lockdownsched.experiment", "compare", "experiment.compare"),
    ("lockdownsched.cli", "main", "cli.main"),
)

# Per-call percentiles are reported for these layers; p99 needs enough calls
# to leave ten samples beyond it.
P50_LAYERS = ("simcore.counts_for_slots", "simcore.decode_slots")
P99_LAYERS = ("simcore.counts_for_slots",)
P99_MIN_CALLS = 1000


class _Stat:
    __slots__ = ("calls", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = []


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, unit id]
        self.stats = {name: _Stat() for _, _, name in TARGETS}
        self.unit = "setup"
        self.distinct = set()  # (unit, plan hash) seen by counts_for_slots
        self.variations = 0
        self.unchanged = 0
        self._stack = []  # [span index, time covered by direct children]
        self._patches = []

    # --- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, stat = self.spans, self._stack, self.stats[name]
        observe = {
            "simcore.counts_for_slots": self._observe_slots,
            "gp_tree.crossover": self._observe_variation,
            "gp_tree.mutate": self._observe_variation,
        }.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][0] if stack else -1, self.unit])
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[idx]
                span[1] = start
                span[2] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.self_s += duration - frame[1]
                stat.durations.append(duration)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_slots(self, args, result):
        digest = hashlib.blake2b(args[1].tobytes(), digest_size=16).digest()
        self.distinct.add((self.unit, digest))

    def _observe_variation(self, args, result):
        self.variations += 1
        if result is args[0]:
            self.unchanged += 1

    def install(self):
        """Rebind every target in every loaded lockdownsched namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import every owner first, so no module copies a wrapper by import
        owners = {name: importlib.import_module(name) for name, _, _ in TARGETS}
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "lockdownsched" or key.startswith("lockdownsched."))
        ]
        for module_name, attr, name in TARGETS:
            owner = owners[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # --- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """name -> (value, unit) for every traced layer."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = (stat.calls, "count")
            out[f"{name}.self_s"] = (stat.self_s, "s")
        for name in P50_LAYERS:
            durations = self.stats[name].durations
            out[f"{name}.p50_ms"] = (
                statistics.median(durations) * 1e3 if durations else 0.0, "ms"
            )
        for name in P99_LAYERS:
            durations = self.stats[name].durations
            p99 = 0.0
            if len(durations) >= P99_MIN_CALLS:
                p99 = statistics.quantiles(durations, n=100)[98] * 1e3
            out[f"{name}.p99_ms"] = (p99, "ms")
        calls = self.stats["simcore.counts_for_slots"].calls
        out["simcore.counts_for_slots.distinct_ratio"] = (
            len(self.distinct) / calls if calls else 0.0, "ratio"
        )
        out["gp_tree.variation.unchanged_ratio"] = (
            self.unchanged / self.variations if self.variations else 0.0, "ratio"
        )
        simulates = self.stats["simulator.simulate"].calls
        out["simcore.build_context.per_simulate"] = (
            self.stats["simcore.build_context"].calls / simulates if simulates else 0.0,
            "ratio",
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "parent", "unit", "name", "start_s", "end_s"))
            for idx, (name, start, end, parent, unit) in enumerate(self.spans):
                writer.writerow((idx, parent, unit, name, repr(start), repr(end)))
