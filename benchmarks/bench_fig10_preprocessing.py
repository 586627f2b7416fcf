"""Figure 10 — speedup of the parallel SAM preprocessing step.

Paper (15.7 GB SAM, sequential preprocessing 2187 s): preprocessing
parallelized with Algorithm 1 scales well across nodes, though within a
single node it is bridled by the I/O bottleneck (preprocessing is the
most I/O-intensive phase: it reads all the text and writes all the
binary records).

Here: one :class:`~.common.Series` — M ranks write M BAMX/BAIX pairs.
The stores of different rank counts differ by design (M files, each
with its own padding), so a cell's fingerprint is the SAM its stores
convert back to.
"""

from __future__ import annotations

import os

from repro.core import PreprocSamConverter

from .common import CONVERSION_CORES, Bench, assert_scales, parts_digest, \
    sam_dataset, sized, smoke_mode

#: Records in the SAM: ~8 us a record; the 2-process-rank cell is
#: ~0.35 s once the pool is warm.
RECORDS = 60_000


def test_fig10_preprocessing_speedup(tmp_path):
    records = sized(RECORDS)
    sam_path = sam_dataset(records)
    converter = PreprocSamConverter()
    bench = Bench("fig10_preprocessing")

    def run(nprocs, executor):
        return converter.preprocess(
            sam_path, os.path.join(tmp_path, f"pp_{executor}_{nprocs}"),
            nprocs, executor)[::-1]

    def back_to_sam(paths):
        return parts_digest(converter.convert(
            paths, "sam", os.path.join(tmp_path, "back"), 1).outputs)

    curve = bench.series("SAM preprocessing", run, CONVERSION_CORES,
                         back_to_sam)
    bench.report(f"{records} records\n\n{curve.table()}\n\n"
                 "paper: sequential 2187 s for 15.7 GB; scales across "
                 "nodes, I/O-bound within one")
    if not smoke_mode():
        assert_scales(curve)
