#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny operation size.

    python3 perfbench/smoke.py

For every workload run.py accepts, those of BENCHMARK.json and
evolve_partial, it checks that an untraced run prints each end-to-end
metric of BENCHMARK.json with its unit and a traced run each per-layer
metric, that stored gate values are accepted when right and rejected when
one digest is wrong, and that the benchmark refuses to run without the
package sources.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from bench_workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work", "smoke")
RUN = os.path.join(HERE, "run.py")


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"smoke: FAILED: {message}")


def bench(workload, trace, expected, *extra, cwd=ROOT, run=RUN):
    cmd = [
        sys.executable, run, "--workload", workload, "--seed", "12345",
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        "--expected", expected, *extra,
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def result(done, what) -> dict:
    check(done.returncode == 0, f"{what} exited {done.returncode}: {done.stderr[-2000:]}")
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    check(sorted(doc) == ["attempted", "correct", "failed", "metrics"], f"{what}: keys {sorted(doc)}")
    check(doc["attempted"] >= 1, f"{what}: nothing attempted")
    return doc


def check_metrics(doc, declared, what) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    check(got == want, f"{what}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, m in doc["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")


def corrupt(path, workload) -> None:
    """Flip one stored digest of the workload's first operation."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    entry = doc[workload]["tiny"]["12345"]
    if workload == "report_replay":
        entry[0] = "0" * 64
    else:
        entry["1"][3] = "0" * 64
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {w["name"] for w in spec["workloads"]}
    check(listed <= set(WORKLOADS), f"BENCHMARK.json lists unknown workloads {listed - set(WORKLOADS)}")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        for name in WORKLOADS:
            expected = os.path.join(WORKDIR, f"{name}-expected.json")
            doc = result(bench(name, 0, expected, "--write-expected", expected), f"{name} untraced")
            check(doc["correct"] and doc["failed"] == 0, f"{name}: gates failed on a clean run")
            check_metrics(doc, spec["end_to_end"], f"{name} untraced")
            check(os.path.exists(expected), f"{name}: no gate values written")

            doc = result(bench(name, 1, expected), f"{name} traced")
            check(doc["correct"], f"{name}: traced run failed its stored gates")
            check_metrics(doc, spec["per_layer"], f"{name} traced")

            corrupt(expected, name)
            doc = result(bench(name, 0, expected), f"{name} with a wrong digest")
            check(not doc["correct"] and doc["failed"] >= 1, f"{name}: wrong digest not caught")
            print(f"smoke: {name} ok", flush=True)

        bare = os.path.join(WORKDIR, "bare")
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = bench(
            "evolve_partial", 0, os.path.join(WORKDIR, "none.json"),
            cwd=bare, run=os.path.join(bare, os.path.basename(HERE), "run.py"),
        )
        check(done.returncode != 0, "run without sources exited 0")
        check('"correct"' not in done.stdout, "run without sources printed a result")
        print("smoke: refuses to run without sources ok")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
