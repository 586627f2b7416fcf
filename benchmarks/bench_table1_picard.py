"""Table I — sequential comparison against Picard.

Paper rows (seconds, 37.5 GB SAM / 7.7 GB BAM, chr1 region):

    SAM -> FASTQ:  ours w/o preprocessing 3214, ours w/ preprocessing
                   2804, Picard 3121
    BAM -> SAM:    ours w/o preprocessing 2043, ours w/ preprocessing
                   1548, Picard 1425

Expected shape: preprocessing accelerates the conversion phase (its own
cost amortizes over repeated conversions), and our sequential
conversions are competitive with the Picard-style ones.

Here: one row per implementation.  The three that run on ranks are
:class:`~.common.Series` (modelled at 1 and 2 cores beside the measured
1 and 2 real ranks); the direct BAM path and the two Picard-like
baselines are sequential functions, one timed cell each.  Every
implementation of a conversion must write the same bytes.
"""

from __future__ import annotations

import os

from repro.baselines import bam_to_sam, sam_to_fastq
from repro.core import BamConverter, PreprocSamConverter, SamConverter, \
    convert_bam_direct

from .bench_fig9_samp_vs_sam import RECORDS, preprocessed_parts
from .common import REAL_CELLS, Bench, bam_dataset, format_rows, \
    parts_digest, sam_dataset, sized, smoke_mode

#: Paper's worst ours/Picard ratio (BAM -> SAM w/o preprocessing:
#: 2043 / 1425 = 1.43): "competitive" means no worse than this.
COMPETITIVE_WITHIN = 1.5


def test_table1_sequential_comparison(tmp_path):
    records = sized(RECORDS)
    sam_path, bam_path = sam_dataset(records), bam_dataset(records)
    parts, sam_preprocess_seconds = preprocessed_parts(records)
    bam_converter = BamConverter()
    bamx, _, bam_preprocess = bam_converter.preprocess(
        bam_path, os.path.join(tmp_path, "b2s_work"))
    bench = Bench("table1_picard")

    def ranked(name, convert, target):
        def run(nprocs, executor):
            result = convert(target, os.path.join(tmp_path, name), nprocs,
                             executor)
            return result.rank_metrics, result.outputs
        return bench.series(name, run, (1, 2), parts_digest)

    def sequential(name, fn):
        path = os.path.join(tmp_path, name)
        _, seconds = bench.timed(lambda: fn(path))
        return seconds, parts_digest([path])

    sam_plain = ranked("sam2fastq", lambda *a: SamConverter().convert(
        sam_path, *a), "fastq")
    sam_pre = ranked("sam2fastq_p", lambda *a: PreprocSamConverter().convert(
        list(parts), *a), "fastq")
    bam_pre = ranked("bam2sam_p", lambda *a: bam_converter.convert(
        bamx, *a), "sam")
    bam_direct, direct_digest = sequential(
        "direct.sam", lambda path: convert_bam_direct(bam_path, "sam", path))
    picard_fastq, picard_fastq_digest = sequential(
        "picard.fastq", lambda path: sam_to_fastq(sam_path, path))
    picard_sam, picard_sam_digest = sequential(
        "picard.sam", lambda path: bam_to_sam(bam_path, path))
    assert sam_plain.fingerprint == sam_pre.fingerprint == picard_fastq_digest
    assert bam_pre.fingerprint == direct_digest == picard_sam_digest

    def on_ranks(label, series, paper):
        return [label, series.modelled[1], series.modelled[2],
                *series.real_row(), paper]

    def one_core(label, seconds, paper):
        return [label, seconds] + ["-"] * 5 + [paper]

    headers = ["implementation", "sequential (s)", "modelled T@2 (s)"] \
        + [f"{executor} x{ranks} (s)" for executor, ranks in REAL_CELLS] \
        + ["paper (s)"]
    bench.report(
        f"{records} records\n\nSAM -> FASTQ\n" + format_rows(headers, [
            on_ranks("ours w/o preprocessing", sam_plain, 3214),
            on_ranks("ours w/ preprocessing", sam_pre, 2804),
            one_core("picard-like", picard_fastq, 3121)])
        + "\n\nBAM -> SAM\n" + format_rows(headers, [
            one_core("ours w/o preprocessing", bam_direct, 2043),
            on_ranks("ours w/ preprocessing", bam_pre, 1548),
            one_core("picard-like", picard_sam, 1425)])
        + f"\n\none-time sequential preprocessing: SAM "
          f"{sam_preprocess_seconds:.3f} s, BAM "
          f"{bam_preprocess.total_seconds:.3f} s")

    if smoke_mode():
        return
    # Preprocessing accelerates the conversion phase.
    assert sam_pre.real["thread", 1] < sam_plain.real["thread", 1]
    assert bam_pre.real["thread", 1] < bam_direct
    # Ours without preprocessing is competitive with the Picard-likes.
    assert sam_plain.real["thread", 1] < COMPETITIVE_WITHIN * picard_fastq
    assert bam_direct < COMPETITIVE_WITHIN * picard_sam
