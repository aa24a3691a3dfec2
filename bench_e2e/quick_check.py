#!/usr/bin/env python3
"""Smoke test for bench_e2e (ctest bench_e2e_quick, label bench).

usage: quick_check.py BENCH_E2E_BINARY BENCHMARK_JSON

Runs every workload BENCHMARK.json names in --quick form (tiny graphs,
unthrottled devices, traced pass on) and fails unless each run exits 0,
reports error_rate 0, prints every end-to-end and per-layer metric with
the unit BENCHMARK.json gives it, and writes a trace that parses.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def check(binary, bench):
    problems = []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        tmp = Path(tmp)
        for workload in bench["workloads"]:
            name = workload["name"]
            out, trace = tmp / f"{name}.json", tmp / f"{name}.trace.json"
            proc = subprocess.run(
                [binary, f"--workload={name}", "--seed=1", "--seconds=0.2",
                 "--quick", f"--work={tmp}", f"--trace={trace}",
                 f"--out={out}"],
                stdout=subprocess.DEVNULL, timeout=30)
            if proc.returncode != 0 or not out.exists():
                problems.append(f"{name}: exit {proc.returncode}")
                continue
            record = json.loads(out.read_text())
            if record["error_rate"] != 0 or record["failed"] != 0:
                problems.append(f"{name}: error_rate {record['error_rate']}")
            for group in ("end_to_end", "per_layer"):
                for metric in bench[group]:
                    got = record[group].get(metric["name"])
                    if got is None:
                        problems.append(f"{name}: {metric['name']} missing")
                    elif got["unit"] != metric["unit"]:
                        problems.append(f"{name}: {metric['name']} in "
                                        f"{got['unit']}, not {metric['unit']}")
            if not json.loads(trace.read_text())["traceEvents"]:
                problems.append(f"{name}: empty trace")
    return problems


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(Path(sys.argv[2]).read_text())
    problems = check(sys.argv[1], bench)
    for p in problems:
        print("FAIL", p)
    if not problems:
        print(f"ok: {len(bench['workloads'])} workloads")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
