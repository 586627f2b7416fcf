"""Columnar kernels vs the record oracle, on every store.

BAMX and BAMZ rows decode to the same column slabs BAMC holds, so all
three stores run the same kernels.  What the kernels buy is measured
against the path they replace and the tests compare them with — the
record oracle — on a single rank, per store:

1. Conversion targets with a slab emitter (``KERNEL_TARGETS``): the
   default pipeline vs ``pipeline="record"`` on the same store.
2. Whole-file scans: ``flagstat_store`` / ``histogram_from_store`` vs
   ``flagstat_records`` / ``histogram_from_records`` over the records
   of the same open store.

Every row carries absolute records/s for both sides next to the ratio.
Smoke mode (``REPRO_BENCH_SMOKE``, the CI perf-smoke job) runs the
same comparisons on the small dataset and gates on the kernel path
never being *slower* than the oracle (>= 1x; the measured gap is 3x and
up, so the floor is not a coin flip); the full run asserts >= 2x on at
least two conversion targets and >= 5x on the scans of every store,
and commits ``BENCH_columnar_kernels.json``.
"""

from __future__ import annotations

import functools
import os
import time

from repro.core import BamConverter
from repro.formats.kernels import KERNEL_TARGETS
from repro.formats.store import open_record_store

from .common import bam_dataset, bench_repeats, best_seconds, \
    dataset_dir, maybe_trace, report, report_json, smoke_mode

#: store -> BamConverter.preprocess arguments (store_format, compress)
STORES = {"bamx": ("bamx", False), "bamz": ("bamx", True),
          "bamc": ("bamc", False)}


@functools.lru_cache(maxsize=None)
def preprocessed_stores() -> dict[str, str]:
    """Preprocess the bench BAM once into every store format."""
    with maybe_trace("columnar_preprocess"):
        return {kind: BamConverter(store_format=store_format).preprocess(
            bam_dataset(), os.path.join(dataset_dir(), "pp-" + kind),
            compress=compress)[0]
            for kind, (store_format, compress) in STORES.items()}


def _best_wall(fn) -> float:
    """Best-of-N wall seconds of ``fn()`` (scan paths return no
    rank metrics, so this times the call directly)."""
    best = float("inf")
    for _ in range(bench_repeats()):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _row(records: int, kernel: float, record: float) -> dict[str, float]:
    return {"records": records,
            "kernel_rec_per_s": round(records / kernel),
            "record_rec_per_s": round(records / record),
            "kernel_speedup": round(record / kernel, 2)}


def _compare_targets(out_root: str) -> dict[str, dict[str, dict]]:
    """Single-rank default pipeline vs ``pipeline="record"``, best-of-N
    per store and target."""
    comparison: dict[str, dict[str, dict]] = {}
    for kind, store in preprocessed_stores().items():
        with open_record_store(store) as reader:
            records = len(reader)
        for target in KERNEL_TARGETS:
            seconds = [best_seconds(
                lambda: BamConverter(pipeline=pipeline).convert(
                    store, target,
                    os.path.join(out_root, f"{kind}_{target}_{pipeline}"),
                    nprocs=1).rank_metrics)
                for pipeline in ("batch", "record")]
            comparison.setdefault(kind, {})[target] = _row(records, *seconds)
    return comparison


def _compare_scans() -> dict[str, dict[str, dict]]:
    """flagstat + coverage histogram: the store-level entry points
    (kernels over slabs) vs the record functions over the same store."""
    from repro.stats import histogram_from_records, histogram_from_store
    from repro.tools.flagstat import flagstat_records, flagstat_store
    scans = {
        "flagstat": (flagstat_store, flagstat_records),
        "histogram": (histogram_from_store, lambda reader:
                      histogram_from_records(reader, reader.header)),
    }
    comparison: dict[str, dict[str, dict]] = {}
    for kind, store in preprocessed_stores().items():
        def run(scan) -> int:
            with open_record_store(store) as reader:
                scan(reader)
                return len(reader)
        for name, sides in scans.items():
            seconds = [_best_wall(functools.partial(run, scan))
                       for scan in sides]
            comparison.setdefault(kind, {})[name] = _row(
                run(lambda reader: None), *seconds)
    return comparison


def _table(title: str, rows: dict[str, dict[str, dict]]) -> str:
    return title + "\n" + "\n".join(
        f"  {kind:5s} {name:10s} {row['record_rec_per_s']:>10,d} -> "
        f"{row['kernel_rec_per_s']:>11,d} rec/s  "
        f"({row['kernel_speedup']}x)"
        for kind, by_name in rows.items()
        for name, row in sorted(by_name.items()))


def test_columnar_kernels(tmp_path):
    targets = _compare_targets(str(tmp_path))
    scans = _compare_scans()
    report_json("columnar_kernels", {"targets": targets, "scans": scans})
    report("columnar_kernels", _table(
        "single-rank conversion, pipeline=\"record\" -> kernels:", targets)
        + "\n\n" + _table(
        "whole-file scans, record functions -> kernels:", scans))

    # The kernel path must never lose to the oracle it replaces ...
    for rows in (targets, scans):
        for kind, by_name in rows.items():
            for name, row in by_name.items():
                assert row["kernel_speedup"] >= 1.0, (kind, name, row)
    if smoke_mode():
        return
    # ... and on the full dataset wins decisively on every store.
    for kind in STORES:
        decisive = [t for t, row in targets[kind].items()
                    if row["kernel_speedup"] >= 2.0]
        assert len(decisive) >= 2, (kind, targets[kind])
        for name, row in scans[kind].items():
            assert row["kernel_speedup"] >= 5.0, (kind, name, row)
