"""The ``store_warm`` worker: one subprocess that drives the program's
public in-process API, so its peak RSS is the program's and not the
generator's.

``python -m benchmarks.e2e.worker SPEC.json`` reads a job description
written by :mod:`workloads` and writes ``SPEC.json.out``:

* ``{"do": "preprocess", ...}`` — BAM -> one record store per format;
* ``{"do": "ops", ...}`` — one discarded warm-up round, then rounds of
  the op list until the deadline; every run's output is checked
  against the expected digests the spec carries (outside the timed
  region).
"""

from __future__ import annotations

import json
import os
import sys
import time

from .check import check_output
from .gen import Expected
from .harness import Reference, timed_rounds

#: store format -> (BamConverter store_format, compress)
STORE_KINDS = {"bamx": ("bamx", False), "bamc": ("bamc", False),
               "bamz": ("bamx", True)}


def preprocess(spec: dict) -> dict:
    from repro.core import BamConverter
    stores, seconds = {}, {}
    for kind in spec["stores"]:
        store_format, compress = STORE_KINDS[kind]
        t0 = time.perf_counter()
        path, _baix, _metrics = BamConverter(
            store_format=store_format).preprocess(
                spec["bam"], os.path.join(spec["work_dir"], kind),
                compress=compress)
        seconds[kind] = time.perf_counter() - t0
        stores[kind] = path
    return {"stores": stores, "seconds": seconds}


def _run_op(op: dict, spec: dict, out_dir: str) -> tuple[float, list[str]]:
    """Run one op; return its wall time and the reasons it failed."""
    from repro.core import BamConverter, parse_filter_expr
    from repro.formats.store import open_record_store
    from repro.stats.histogram import histogram_from_store
    from repro.tools.flagstat import flagstat_store
    store = spec["stores"][op["store"]]
    header = spec["header_text"]
    errors: list[str] = []
    converter = BamConverter()
    if op["kind"] == "convert":
        record_filter = parse_filter_expr(spec["filter"]) \
            if op["filtered"] else None
        t0 = time.perf_counter()
        result = converter.convert(store, op["target"], out_dir,
                                   record_filter=record_filter)
        seconds = time.perf_counter() - t0
        error = check_output(result.outputs, Expected(**op["expected"]),
                             header if op["target"] == "sam" else None)
        if error:
            errors.append(error)
    elif op["kind"] == "regions":
        outputs = []
        t0 = time.perf_counter()
        for i, window in enumerate(spec["windows"]):
            result = converter.convert_region(
                store, None, window["region"], window["target"],
                os.path.join(out_dir, str(i)))
            outputs.append(result.outputs)
        seconds = time.perf_counter() - t0
        for window, paths in zip(spec["windows"], outputs):
            error = check_output(paths, Expected(**window["expected"]))
            if error:
                errors.append(f"{window['region']}: {error}")
    elif op["kind"] == "scan":
        t0 = time.perf_counter()
        with open_record_store(store) as reader:
            stats = flagstat_store(reader)
        with open_record_store(store) as reader:
            histogram = histogram_from_store(reader)
        seconds = time.perf_counter() - t0
        want = spec["scan"]
        got = {name: getattr(stats, name) for name in want["flagstat"]}
        if got != want["flagstat"]:
            errors.append(f"flagstat {got} != {want['flagstat']}")
        covered = {name: int(bins.sum()) for name, bins
                   in histogram.items()}
        if covered != want["covered_bases"]:
            errors.append(f"coverage {covered} != {want['covered_bases']}")
    else:
        raise ValueError(f"unknown op kind {op['kind']!r}")
    return seconds, errors


def run_ops(spec: dict) -> dict:
    ops = {op["name"]: op for op in spec["ops"]}

    def run(name: str) -> tuple[float, list[str]]:
        return _run_op(ops[name], spec,
                       os.path.join(spec["out_dir"], name))

    for name in ops:            # warm-up round, discarded
        run(name)
    seconds: dict[str, list[float]] = {name: [] for name in ops}
    failures: list[str] = []
    failed = 0
    reference = Reference()
    first = next(iter(ops))
    for name in timed_rounds(list(ops), spec["seconds"],
                             spec["max_rounds"]):
        if name == first:
            reference.sample()      # once a round
        wall, errors = run(name)
        seconds[name].append(wall)
        failed += bool(errors)
        failures.extend(f"{name}: {e}" for e in errors)
    return {"seconds": seconds, "failures": failures, "failed": failed,
            "reference": reference.samples}


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    out = preprocess(spec) if spec["do"] == "preprocess" else run_ops(spec)
    with open(argv[0] + ".out", "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
