#!/usr/bin/env python3
"""Runs one bench_e2e workload from a source checkout.

usage: python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the bench_e2e binary into .bench_build/e2e on first use (CMake,
Release), runs one workload with every temporary file under
.bench_build, and prints as its last line of standard output one JSON
object:

  {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
binary also runs its traced pass and the metrics are the per-layer ones.
The full run record (both metric groups, call count, error_rate) is kept
at .bench_build/results/<workload>-seed<N>.json for e2e_compare.py.
Everything else the binary prints goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("rmat-hdd", "twitter-mem", "grid-ssd", "batch-ssd")
RUN_TIMEOUT_S = 170
# Compiler and benchmark temporaries stay inside the checkout.
ENV = dict(os.environ, TMPDIR=str(BUILD / "tmp"))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings bench_e2e up to date; returns its path."""
    build_dir = BUILD / "e2e"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "bench_e2e"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "bench_e2e",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
        return None
    return build_dir / "bench_e2e"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    for sub in ("results", "trace", "work", "tmp"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    binary = build()
    if binary is None:
        log("run.py: build failed")
        return 1

    tag = f"{args.workload}-seed{args.seed}"
    record_path = BUILD / "results" / f"{tag}.json"
    record_path.unlink(missing_ok=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--work={BUILD / 'work'}",
           f"--out={record_path}"]
    if args.trace:
        cmd.append(f"--trace={BUILD / 'trace' / f'{tag}.json'}")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, env=ENV,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 1
    if not record_path.exists():
        log(f"run.py: bench_e2e exited {proc.returncode} without a result")
        return 1

    record = json.loads(record_path.read_text())
    correct = proc.returncode == 0 and record["failed"] == 0
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
