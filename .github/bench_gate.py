#!/usr/bin/env python3
"""The CI performance gate: a repo-benchmark report against a committed one.

usage: bench_gate.py BENCHMARK.json BASELINE.json CURRENT.json

BASELINE and CURRENT are `benchmark/out/report.json` files written by
`hbc-benchmark run`. The gate fails (exit 1) when

  * any current run has wrong outputs or failed requests;
  * a workload x end-to-end metric of the baseline is missing from the
    current report;
  * every current run is worse than every baseline run by more than the
    metric's bound. For `better: "lower"` that is
    min(current) > max(baseline) * (1 + bound), and for `"higher"`
    max(current) < min(baseline) * (1 - bound).

Comparing extremes instead of medians means one run slowed by a noisy
host cannot fail the gate, and one lucky run cannot hide a regression
that moved the whole distribution. `bound` and `better` come from
BENCHMARK.json; the script has no threshold of its own.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def end_to_end_values(report):
    """{(workload, metric): [value of each untraced run]}."""
    values = {}
    for run in report["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["result"]["metrics"].items():
            if isinstance(metric.get("value"), (int, float)):
                values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def main(argv):
    if len(argv) != 4:
        print("usage: bench_gate.py BENCHMARK.json BASELINE.json CURRENT.json", file=sys.stderr)
        return 2
    spec, baseline, current = (load(path) for path in argv[1:])
    failures = []
    for run in current["runs"]:
        result = run["result"]
        if result.get("correct") is not True or result.get("failed", 0) > 0:
            failures.append(
                f"{run['workload']} seed {run['seed']}: correct {result.get('correct')}, "
                f"failed {result.get('failed')}"
            )
    before, after = end_to_end_values(baseline), end_to_end_values(current)
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base = before.get((workload, name))
            if not base:
                continue
            cur = after.get((workload, name))
            if not cur:
                failures.append(f"{workload} {name}: missing from the current report")
                continue
            if metric["better"] == "lower":
                worse = min(cur) > max(base) * (1 + bound)
            else:
                worse = max(cur) < min(base) * (1 - bound)
            print(
                f"{workload:<12} {name:<15} baseline {min(base):>10.4g} .. {max(base):<10.4g} "
                f"current {min(cur):>10.4g} .. {max(cur):<10.4g} bound {bound:<5} "
                f"{'REGRESSED' if worse else 'ok'}"
            )
            if worse:
                failures.append(f"{workload} {name}: every run worse than the baseline by > {bound}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
