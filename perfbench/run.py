#!/usr/bin/env python3
"""lockdownsched benchmark: evolution throughput and report round-trip.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evolve_partial --seed 12345 --seconds 30 --trace 0

Workloads: evolve_partial, evolve_full, report_replay (see WORKLOADS.md).
With ``--trace 0`` the run repeats the workload's operation until
``--seconds`` of operation time have passed, times ten more set-ups in
fresh interpreters spread over that time, and prints the end-to-end
metrics; with
``--trace 1`` it runs a fixed number of operations, each once untraced and
once traced, and prints the per-layer metrics.  Every operation passes the
correctness gates or counts as failed.  The last line of standard output is
one JSON object; the lines before it are a readable summary.  Results, and
the spans of a traced run, are also written under ``.perfbench_work/``.

The package is imported from ``src/`` of this checkout and nowhere else;
without it the run exits non-zero before printing a result.
"""

from __future__ import annotations

import os

# one thread: keep numerical libraries from starting worker pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from bench_trace import Tracer
from bench_workloads import WORKLOADS, make_workload, pir_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected.json")
BASELINE = os.path.join(HERE, "baseline.json")
SETUP_SAMPLES = 11


def import_package():
    """Import lockdownsched from this checkout's src/, or exit non-zero."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("lockdownsched")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: lockdownsched imported from {package.__file__}, not {SRC}")
    return package


def timed_setup(workload, seed, workdir, after_import=None):
    """Package import plus input set-up; returns (state, seconds)."""
    start = perf_counter()
    import_package()
    if after_import is not None:
        after_import()
    state = workload.setup(seed, workdir)
    return state, perf_counter() - start


def probe_setup(args) -> float:
    """One set-up in a fresh interpreter, so the import is paid again."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def comparable_to_baseline(env: dict) -> bool:
    """False when numba presence differs from the recorded baseline's."""
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            base_env = json.load(fh)["environment"]
    except (OSError, ValueError, KeyError):
        return True
    return (base_env["numba"] is None) == (env["numba"] is None)


def load_expected(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def expected_for(doc, args, k):
    """Stored gate values for operation k, or None when none are stored."""
    entry = doc.get(args.workload, {}).get(args.size, {}).get(str(args.seed))
    if entry is None or args.workload == "report_replay":
        return entry
    return entry.get(str(pir_seed(k)))


def record_expected(path, args, observed: dict) -> None:
    doc = load_expected(path)
    slot = doc.setdefault(args.workload, {}).setdefault(args.size, {})
    if args.workload == "report_replay":
        slot[str(args.seed)] = observed[0]
    else:
        per_op = slot.setdefault(str(args.seed), {})
        for k, values in observed.items():
            per_op[str(pir_seed(k))] = values
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Run:
    """Timed operations of one benchmark run and their gate outcomes."""

    def __init__(self, workload, state, args, expected_doc, tmp):
        self.workload, self.state, self.args = workload, state, args
        self.expected_doc, self.tmp = expected_doc, tmp
        self.attempted = 0
        self.failed = 0
        self.observed = {}

    def op(self, k: int, tracer: Tracer | None = None):
        """Run, time and check operation k; returns its rate or None."""
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.unit = k
                tracer.install()
            try:
                start = perf_counter()
                result, count = self.workload.run_op(self.state, k, self.tmp)
                elapsed = perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
            problems, observed = self.workload.check(
                self.state, k, result, expected_for(self.expected_doc, self.args, k)
            )
        except Exception as exc:  # an operation that raises counts as failed
            problems, observed = [f"op {k}: {type(exc).__name__}: {exc}"], None
        if not problems and self.observed.setdefault(k, observed) != observed:
            problems = [f"op {k}: traced and untraced results differ"]
        if problems:
            self.failed += 1
            for line in problems:
                print(f"GATE FAILED {self.args.workload}: {line}", file=sys.stderr)
            return None
        return count / elapsed


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def low_tail_rate(values) -> float:
    """5th percentile (inclusive) of the operation rates: the rate of the
    95th-percentile operation time.  On a shared host the speed moves in
    phases of seconds to minutes; nearly every run meets the slow phase, so
    the slow tail repeats from run to run where the median does not."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[0]


def measure(run: Run, seconds: float, probes: int, probe) -> tuple:
    """Untraced operations for ``seconds`` of operation time (at least one),
    with ``probes`` set-up probes spread evenly over it.  A probe's own time
    is not operation time.  Returns (operation rates, probe set-up times)."""
    rates, setups, k, spent = [], [], 0, 0.0
    while k == 0 or spent < seconds:
        start = perf_counter()
        rate = run.op(k)
        spent += perf_counter() - start
        if rate is not None:
            rates.append(rate)
        k += 1
        while len(setups) < probes and spent >= seconds * (len(setups) + 0.5) / probes:
            setups.append(probe())
    while len(setups) < probes:
        setups.append(probe())
    return rates, setups


def measure_traced(run: Run, tracer: Tracer, n_ops: int) -> dict:
    """Each of n_ops operations once untraced, then once traced."""
    digests_before = tracer.stats["dataset.Dataset.digest"].calls
    plain, traced = [], []
    for k in range(n_ops):
        for rates, t in ((plain, None), (traced, tracer)):
            rate = run.op(k, t)
            if rate is not None:
                rates.append(rate)
    metrics = tracer.layer_metrics()
    digests = tracer.stats["dataset.Dataset.digest"].calls - digests_before
    metrics["dataset.Dataset.digest.per_op"] = (digests / n_ops, "ratio")
    report = run.observed.get(0) if run.args.workload == "report_replay" else None
    metrics["experiment.report_bytes"] = (report[1] if report else 0, "bytes")
    untraced, with_trace = median_or_zero(plain), median_or_zero(traced)
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (with_trace, "1/s")
    metrics["trace.overhead_pct"] = (
        100.0 * (untraced - with_trace) / untraced if untraced else 0.0, "%"
    )
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=12345, help="dataset seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="untraced measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("standard", "tiny"), default="standard",
                        help="operation size; tiny is for the smoke test")
    parser.add_argument("--expected", default=EXPECTED, help="stored gate values")
    parser.add_argument("--write-expected", metavar="PATH",
                        help="store this run's gate values in PATH when every gate passed")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lockdownsched", "__init__.py")):
        sys.exit(f"perfbench: no lockdownsched sources under {SRC}")
    workload = make_workload(args.workload, args.size)
    os.makedirs(WORKDIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        if args.probe_setup:
            print(repr(timed_setup(workload, args.seed, tmp)[1]))
            return 0
        tracer = Tracer() if args.trace else None
        state, first_setup = timed_setup(
            workload, args.seed, tmp, tracer.install if tracer else None
        )
        if tracer is not None:
            tracer.uninstall()
        run = Run(workload, state, args, load_expected(args.expected), tmp)
        if tracer is None:
            rates, probes = measure(
                run, args.seconds, SETUP_SAMPLES - 1, lambda: probe_setup(args)
            )
            setups = [first_setup] + probes
            metrics = {
                "ops_per_s_p5": (low_tail_rate(rates), "1/s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
                ),
            }
            samples = {"ops_per_s": rates, "setup_s": setups}
        else:
            metrics = measure_traced(run, tracer, workload.traced_ops)
            samples = {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = run.failed == 0
    metric_doc = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if correct and args.write_expected:
        record_expected(args.write_expected, args, run.observed)
    env = environment()
    comparable = comparable_to_baseline(env)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    results_dir = os.path.join(WORKDIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    if tracer is not None:
        tracer.write_spans(os.path.join(results_dir, f"{tag}-spans.csv"))
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "args": vars(args), "environment": env, "comparable_to_baseline": comparable,
            "correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metric_doc, "samples": samples,
            "observed": {str(k): v for k, v in sorted(run.observed.items())},
        }, fh, indent=1, sort_keys=True)

    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    if not comparable:
        print("WARNING: numba presence differs from perfbench/baseline.json; do not compare")
    print(f"workload {args.workload} size {args.size} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} operations, {run.failed} failed")
    for name, (value, unit) in metrics.items():
        alias = f"{workload.rate_name}_p5" if name == "ops_per_s_p5" else name
        print(f"  {alias:48s} {value!r} {unit}")
    rates = samples.get("ops_per_s")
    if rates:
        print(f"  {workload.rate_name + '_median':48s} {median_or_zero(rates)!r} 1/s "
              f"over {len(rates)} operations")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metric_doc,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
