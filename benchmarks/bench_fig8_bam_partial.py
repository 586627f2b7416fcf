"""Figure 8 — partial-conversion performance of the BAM converter.

Paper: subsets covering 20/40/60/80/100% of a 117 GB sorted BAM are
converted to SAM on 8 to 128 cores; conversion times are approximately
proportional to the subset size because locating the region via binary
search over the BAIX is trivial next to the conversion itself.

Here: the subset is the leading 20..100 % of every chromosome of the
Fig. 7 store, located through the BAIX (``convert_regions``) and
converted to SAM.  One row per subset: modelled seconds at 8, 32 and
128 cores beside the measured seconds on 1 and 2 real ranks, every
cell's records identical to the first cell's.  Under them, the two
terms of that proportionality: what a query costs before its first
record (an empty window: stat, binary search, one store open, one
output file) beside what each record adds, measured and modelled.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core import BamConverter
from repro.core.region import GenomicRegion
from repro.formats.baix import BaixIndex
from repro.formats.store import index_path_for, open_record_store
from repro.runtime.metrics import modeled_parallel_time

from .bench_fig7_bam_full import RECORDS, preprocessed_bamx
from .common import REAL_CELLS, Bench, format_rows, parts_digest, sized, \
    smoke_mode

CORES = (8, 32, 128)
FRACTIONS = (0.2, 0.4, 0.6, 0.8, 1.0)

#: "Approximately proportional": a subset's seconds per record may
#: differ from the whole file's by this factor either way.
PROPORTIONAL_WITHIN = 1.5

#: Locating "is trivial next to the conversion itself": a query's fixed
#: cost stays under what this many records cost.
FIXED_COST_RECORDS = 500


def _empty_window(bamx: str, chrom: str) -> GenomicRegion:
    """One base of the first reference where no record starts."""
    index = BaixIndex.load(index_path_for(bamx))
    starts = index.positions[index.ref_ids == 0]
    at = int(starts[np.flatnonzero(np.diff(starts) > 1)[0]]) + 1
    return GenomicRegion(chrom, at, at + 1)


def test_fig8_partial_conversion(tmp_path):
    records = sized(RECORDS)
    bamx, _ = preprocessed_bamx(records)
    converter = BamConverter()
    with open_record_store(bamx) as reader:
        references = reader.header.references
    bench = Bench("fig8_bam_partial")
    series = []
    for frac in FRACTIONS:
        regions = [GenomicRegion(ref.name, 0, max(1, int(ref.length * frac)))
                   for ref in references]

        def run(nprocs, executor):
            result = converter.convert_regions(
                bamx, None, regions, "sam", os.path.join(tmp_path, "out"),
                nprocs, executor)
            return result.rank_metrics, result

        # One repetition: the 100 % cells are seconds long.
        series.append(bench.series(
            f"{int(frac * 100)}%", run, CORES, repeats=1,
            fingerprint=lambda r: (r.records, parts_digest(r.outputs))))
    counts = [s.fingerprint[0] for s in series]
    rows = [[s.label, count, *s.modelled.values(), *s.real_row()]
            for s, count in zip(series, counts)]
    headers = ["subset", "records"] \
        + [f"modelled T@{c} (s)" for c in series[0].modelled] \
        + [f"{executor} x{ranks} (s)" for executor, ranks in REAL_CELLS]
    # The two terms of "proportional": the slope between the smallest
    # and the whole subset, and an empty window's cost — so many calls a
    # cell that the cell is long enough to time.
    empty = _empty_window(bamx, references[0].name)
    calls = 200 if smoke_mode() else 2000

    def empty_calls(nprocs, calls=1):
        for _ in range(calls):
            result = converter.convert_region(
                bamx, None, empty, "sam", os.path.join(tmp_path, "empty"),
                nprocs)
        assert result.records == 0
        return result.rank_metrics

    def slope(seconds):
        return (seconds[-1] - seconds[0]) / (counts[-1] - counts[0])

    def cost_row(label, fixed, per_record):
        return [label, fixed * 1e3, per_record * 1e6,
                round(fixed / per_record)]

    measured = [s.real["thread", 1] for s in series]
    fixed = min(bench.timed(lambda: empty_calls(1, calls))[1]
                for _ in range(3)) / calls
    costs = [cost_row("measured, 1 rank", fixed, slope(measured)),
             cost_row(f"modelled, {CORES[0]} cores",
                      modeled_parallel_time(empty_calls(CORES[0])),
                      slope([s.modelled[CORES[0]] for s in series]))]
    bench.report(
        f"{records} records in the store\n\n" + format_rows(headers, rows)
        + "\npaper: time proportional to the subset size at every core "
          "count\n\n" + format_rows(
              ["cost of a query", "fixed (ms)", "per record (us)",
               "fixed = records"], costs))

    assert counts == sorted(set(counts)) and counts[-1] <= records
    if smoke_mode():
        return
    # Measured 1-rank time (cells of >= 0.5 s) grows with the subset and
    # stays proportional to its records.  The other columns are printed:
    # the first 2-process-rank cell of a session also starts the pool,
    # and the modelled columns are single calls whose ranks are
    # 10-100 ms, which one stall reorders.
    seconds = [s.real["thread", 1] for s in series]
    assert seconds == sorted(seconds), seconds
    per_record = [value / n for value, n in zip(seconds, counts)]
    for value in per_record:
        assert per_record[-1] / PROPORTIONAL_WITHIN < value \
            < per_record[-1] * PROPORTIONAL_WITHIN, per_record
    assert fixed < FIXED_COST_RECORDS * slope(measured), costs
