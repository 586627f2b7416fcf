"""``python -m benchmarks.e2e run|compare`` — the benchmark for people.

``run`` performs, per selected workload, ``--runs`` untraced runs (the
end-to-end and per-op numbers) and, with ``--trace``, one traced run
(the per-layer numbers); it prints every metric by name with its unit,
writes everything to ``--out`` and exits non-zero when any operation
failed.  ``compare`` judges two such files against the bounds in
``BENCHMARK.json`` (see :mod:`compare`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from .harness import RESULTS_DIR, load_spec, require_program


def _run(args: argparse.Namespace) -> int:
    require_program()
    from .run import run_workload
    from .workloads import WORKLOADS
    selected = args.workload or list(WORKLOADS)
    for name in selected:
        if name not in WORKLOADS:
            print(f"unknown workload {name!r}; choose from "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
    seconds = args.seconds or load_spec()["run_seconds"]
    out: dict = {"seed": args.seed, "seconds": seconds,
                 "smoke": args.smoke, "workloads": {}}
    failed = 0
    for name in selected:
        runs = [run_workload(name, args.seed, seconds, False,
                             smoke=args.smoke,
                             max_rounds=1 if args.smoke else args.reps)
                for _ in range(args.runs)]
        traced = run_workload(name, args.seed, seconds, True,
                              smoke=args.smoke) if args.trace else None
        out["workloads"][name] = {"runs": runs, "traced": traced}
        out.setdefault("environment", runs[0]["environment"])
        print(f"== {name}: {len(runs)} run(s), seed {args.seed}, "
              f"{sum(r['attempted'] for r in runs)} operations, "
              f"{sum(r['failed'] for r in runs)} failed")
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs
                      if metric in r["metrics"]]
            print(f"  {metric:44s} {statistics.median(values):14.4f} "
                  f"{first['unit']}")
        for metric, value in (traced or {"metrics": {}})["metrics"].items():
            print(f"  {metric:44s} {value['value']:14.4f} {value['unit']}")
        for result in runs + ([traced] if traced else []):
            failed += result["failed"]
            for reason in result["failures"]:
                print(f"  FAILED {reason}")
    env = out["environment"]
    print(f"environment: nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, load {env['loadavg_1m']:.2f}"
          + (" (NOISY: load above nproc/2)" if env["noisy"] else ""))
    path = args.out or os.path.join(RESULTS_DIR, f"run-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(f"wrote {path}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run workloads and print every metric")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default all four)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0,
                   help="measurement window (default: BENCHMARK.json's "
                        "run_seconds)")
    p.add_argument("--reps", type=int, default=0,
                   help="stop a run after this many rounds of the op list "
                        "even if the window has not ended")
    p.add_argument("--runs", type=int, default=1,
                   help="untraced runs per workload (compare needs >= 2 "
                        "to see a spread)")
    p.add_argument("--trace", action="store_true",
                   help="add the traced pass (per-layer metrics)")
    p.add_argument("--smoke", action="store_true",
                   help="1/40-size inputs, one round, same checks; the "
                        "timings mean nothing")
    p.add_argument("--out", default=None, help="result file")
    p = sub.add_parser("compare", help="judge two result files")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        from .compare import compare
        return compare(args.a, args.b)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
