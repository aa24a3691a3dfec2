#!/usr/bin/env python3
"""Compares sets of bench_e2e runs against the bounds in BENCHMARK.json.

usage: e2e_compare.py [--benchmark FILE] --base FILE... [--new FILE...]
                      [--save FILE]

Each FILE is one run record (run.py keeps them in .bench_build/results)
or a saved set ({"runs": [...]}, as in bench_e2e/results). For every
workload x end-to-end metric it prints each side's median and quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, the change
of the new median against the base median, and a verdict:

  ok          within the bound, or every new run beats every base run
  regressed   the new median is worse than the base by more than the bound
  unresolved  a side's spread is wider than the bound, so a change that
              size could not be seen

With --base alone the verdict is about the set's own spread. --save
writes the base runs as one set file. Exits 1 if anything regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(paths):
    runs = []
    for path in paths:
        data = json.loads(Path(path).read_text())
        runs.extend(data["runs"] if "runs" in data else [data])
    return runs


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def values_of(runs, workload, metric):
    return [r["end_to_end"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["end_to_end"]]


def verdict(metric, base, new):
    """Returns (worsening of the new median as a share of the base's, verdict)."""
    bound, lower = metric["bound"], metric["better"] == "lower"
    b_med, _, _, b_spread = summary(base)
    if new is None:
        return None, "ok" if b_spread <= bound else "unresolved"
    n_med, _, _, n_spread = summary(new)
    worse = (n_med - b_med) / b_med if lower else (b_med - n_med) / b_med
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if all_better:
        return worse, "ok"
    if max(b_spread, n_spread) > bound:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+")
    parser.add_argument("--save")
    args = parser.parse_args()

    bench = json.loads(Path(args.benchmark).read_text())
    base = load_runs(args.base)
    new = load_runs(args.new) if args.new else None
    if args.save:  # one run per line, so a diff shows which runs changed
        lines = ",\n".join(json.dumps(run) for run in base)
        Path(args.save).write_text('{"runs": [\n' + lines + "\n]}\n")

    header = (f"{'workload':<12} {'metric':<14} {'n':>3} {'base median':>12} "
              f"{'q1':>10} {'q3':>10} {'spread':>7}")
    if new is not None:
        header += f" {'new median':>12} {'spread':>7} {'worse':>7}"
    print(header + f" {'bound':>6}  verdict")
    regressed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = values_of(base, workload, name)
            n = values_of(new, workload, name) if new is not None else None
            if not b or (n is not None and not n):
                print(f"{workload:<12} {name:<14} missing")
                regressed = True
                continue
            b_med, b_q1, b_q3, b_spread = summary(b)
            worse, result = verdict(metric, b, n)
            row = (f"{workload:<12} {name:<14} {len(b):>3} {b_med:>12.6g} "
                   f"{b_q1:>10.6g} {b_q3:>10.6g} {b_spread:>7.2%}")
            if n is not None:
                n_med, _, _, n_spread = summary(n)
                row += f" {n_med:>12.6g} {n_spread:>7.2%} {worse:>+7.2%}"
            print(row + f" {metric['bound']:>6.0%}  {result}")
            regressed |= result == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
