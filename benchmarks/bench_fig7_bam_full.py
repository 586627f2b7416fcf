"""Figure 7 — full-conversion speedup of the BAM format converter.

Paper: a 117 GB sorted BAM converted to BED, BEDGRAPH and FASTA on 1 to
128 cores after sequential preprocessing; scalability is good because
(1) padded BAMX records give a perfectly regular layout and (2) rank
tasks are independent.

Here: one generated BAM preprocessed once into a BAMX store, each
target a :class:`~.common.Series` — measured seconds on 1 and 2 real
ranks beside the modelled 1..128-core curve, every cell's part files
byte-identical to the 1-core run's.
"""

from __future__ import annotations

import functools
import os

from repro.core import BamConverter

from .common import CONVERSION_CORES, Bench, assert_scales, bam_dataset, \
    dataset_dir, parts_digest, sized, smoke_mode

TARGETS = ("bed", "bedgraph", "fasta")

#: Records in the BAM: the fastest cell (BAMX -> BEDGRAPH on 2 process
#: ranks, ~1.9 M records/s a rank) is ~0.25 s.
RECORDS = 880_000


@functools.lru_cache(maxsize=None)
def preprocessed_bamx(records: int) -> tuple[str, float]:
    """Preprocess the bench BAM once (shared with the Fig. 8 script):
    ``(store path, sequential preprocessing seconds)``."""
    bamx, _, metrics = BamConverter().preprocess(
        bam_dataset(records), os.path.join(dataset_dir(), f"pp{records}"))
    return bamx, metrics.total_seconds


def test_fig7_bam_full_conversion_speedup(tmp_path):
    records = sized(RECORDS)
    bamx, preprocess_seconds = preprocessed_bamx(records)
    converter = BamConverter()
    bench = Bench("fig7_bam_full")
    series = []
    for target in TARGETS:
        def run(nprocs, executor):
            result = converter.convert(
                bamx, target, os.path.join(tmp_path, target), nprocs,
                executor)
            return result.rank_metrics, result.outputs

        series.append(bench.series(f"BAM(X) -> {target.upper()}", run,
                                   CONVERSION_CORES, parts_digest))
    bench.report(
        f"{records} records, sequential preprocessing "
        f"{preprocess_seconds:.3f} s (not in the cells)\n\n"
        + "\n\n".join(s.table() for s in series)
        + "\n\npaper: all three scale to 128 cores")

    if not smoke_mode():
        for curve in series:
            assert_scales(curve)
