"""Compare two result files written by ``python -m benchmarks.e2e run``.

For every (workload, end-to-end metric) pair: both medians, how much
worse B reads than A as a share of A, and the bound ``BENCHMARK.json``
fixes for the metric.  A pair is

* ``WORSE`` when B's median is worse than A's by more than the bound
  (any such pair makes the exit code non-zero);
* ``unresolved`` when it is within the bound but the spread between
  the runs of either side is wider than the bound, so the medians
  cannot carry that verdict — unless every run of B reads better than
  every run of A (``better``);
* ``ok`` otherwise.

The spread is the distance between the first and third quartile of a
side's runs as a share of their median (max - min when a side has
fewer than four runs).
"""

from __future__ import annotations

import json
import statistics

from .harness import load_spec


def values_of(result: dict, workload: str, metric: str) -> list[float]:
    runs = result["workloads"].get(workload, {}).get("runs", [])
    return [run["metrics"][metric]["value"] for run in runs
            if metric in run["metrics"]]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        width = max(values) - min(values)
    else:
        q = statistics.quantiles(values, n=4)
        width = q[2] - q[0]
    return width / abs(statistics.median(values))


def judge(a: list[float], b: list[float], better: str, bound: float,
          ) -> tuple[str, float]:
    """Verdict and B's worsening relative to A (positive = worse)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) / med_a if better == "lower" \
        else (med_a - med_b) / med_a
    if worse > bound:
        return "WORSE", worse
    if max(spread(a), spread(b)) > bound:
        all_better = max(b) < min(a) if better == "lower" \
            else min(b) > max(a)
        return ("better" if all_better else "unresolved"), worse
    return "ok", worse


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        result_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        result_b = json.load(fh)
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    failed = False
    print(f"{'workload':12s} {'metric':14s} {'A median':>12s} "
          f"{'B median':>12s} {'worse by':>9s} {'bound':>6s} "
          f"{'spread A/B':>13s}  verdict")
    for workload in result_a["workloads"]:
        if workload not in result_b["workloads"]:
            print(f"{workload:12s} missing from {path_b}")
            failed = True
            continue
        for metric, spec in bounds.items():
            a = values_of(result_a, workload, metric)
            b = values_of(result_b, workload, metric)
            if not a or not b:
                print(f"{workload:12s} {metric:14s} not measured on both")
                failed = True
                continue
            verdict, worse = judge(a, b, spec["better"], spec["bound"])
            failed |= verdict == "WORSE"
            print(f"{workload:12s} {metric:14s} "
                  f"{statistics.median(a):12.4f} {statistics.median(b):12.4f} "
                  f"{worse * 100:+8.2f}% {spec['bound'] * 100:5.0f}% "
                  f"{spread(a) * 100:5.1f}%/{spread(b) * 100:5.1f}%  "
                  f"{verdict} ({spec['unit']}, {spec['better']} is better)")
    for label, result in (("A", result_a), ("B", result_b)):
        wrong = sum(run["failed"] for w in result["workloads"].values()
                    for run in w["runs"])
        if wrong:
            print(f"{label}: {wrong} failed operations")
            failed = True
    return 1 if failed else 0
