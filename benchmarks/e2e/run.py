"""Benchmark entry point named by ``BENCHMARK.json``.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  It exits non-zero without a result when the program is
not in the checkout.  ``python -m benchmarks.e2e`` is the same harness
with a report for people.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    __package__ = "benchmarks.e2e"

from .harness import require_program   # noqa: E402


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, max_rounds: int = 0) -> dict:
    """Run one workload; return the result object plus the extras the
    report for people shows (failures, per-op times, environment).
    The caller has called :func:`require_program`."""
    from .harness import environment
    from .workloads import RUNNERS, SETUP_REPS, Run
    env = environment()
    run = Run(workload, seed, seconds, smoke=smoke, max_rounds=max_rounds,
              setup_reps=1 if (trace or smoke) else SETUP_REPS)
    try:
        if trace:
            from .probes import traced_pass
            metrics = traced_pass(run)
        else:
            RUNNERS[workload](run)
            metrics = run.end_to_end()
            metrics.update(run.per_op())
    finally:
        run.close()
    return {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "failures": run.failures[:20],
        "workload": workload, "seed": seed, "trace": trace,
        "environment": env,
    }


def contract_names(trace: bool) -> list[str]:
    """The metric names ``BENCHMARK.json`` promises for this mode."""
    from .harness import load_spec
    return [m["name"]
            for m in load_spec()["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    from .workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for reason in result["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    names = contract_names(bool(args.trace))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
