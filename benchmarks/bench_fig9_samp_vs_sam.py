"""Figure 9 — preprocessing-optimized vs original SAM format converter.

Paper (15.7 GB SAM -> BED/BEDGRAPH/FASTA): the "_P" bars (conversion
from preprocessed BAMX, preprocessing cost excluded) scale better and
run faster than the original SAM converter — on 128 cores the paper
measures 30.8% / 24.0% / 31.0% improvements for BED / BEDGRAPH / FASTA.

Here: two :class:`~.common.Series`, the original converter on the SAM
and the ``_P`` converter on its M = 8 BAMX parts, both on the default
pipeline (the path a user takes).  A cell is the figure's whole
workload — the file converted to BED, BEDGRAPH and FASTA in turn —
because that is how preprocessing pays off (several conversions of one
store) and because BAMX -> BEDGRAPH alone is under the 0.2 s floor at
any size whose SAM preprocessing this script can afford.  Both
converters must write byte-identical files.

Two claims, two tests.  The figure's own — the ``_P`` conversion phase
is faster — holds.  So does the one the figure rests on — preprocessing
is worth doing, i.e. it is amortised within about as many conversions
as in the paper — now that SAM preprocessing writes its stores from
column slabs, not records.
"""

from __future__ import annotations

import functools
import os

from repro.core import PreprocSamConverter, SamConverter
from repro.runtime.metrics import merge_all

from .common import CONVERSION_CORES, Bench, Series, dataset_dir, \
    format_rows, parts_digest, sam_dataset, sized, smoke_mode

TARGETS = ("bed", "bedgraph", "fasta")

#: Records in the SAM: the fastest cell (_P on 2 process ranks) is
#: ~0.4 s.
RECORDS = 260_000

#: Conversions after which the paper's preprocessing has paid for
#: itself, sequentially: 2187 s for 15.7 GB (Fig. 10), so 5224 s for
#: the 37.5 GB of Table I, over the 3214 - 2804 = 410 s it saves per
#: SAM -> FASTQ conversion there.
PAPER_BREAK_EVEN = 13


@functools.lru_cache(maxsize=None)
def preprocessed_parts(records: int) -> tuple[tuple[str, ...], float]:
    """Parallel-preprocess the bench SAM once into M = 8 BAMX files
    (shared with the Table I script): ``(paths, sequential seconds)``."""
    paths, metrics = PreprocSamConverter().preprocess(
        sam_dataset(records), os.path.join(dataset_dir(), f"samp{records}"),
        8)
    return tuple(paths), sum(m.total_seconds for m in metrics)


def _three_targets(convert, out_root):
    """``run(nprocs, executor)`` converting to every target in turn:
    rank *i*'s metrics are its three conversions merged."""
    def run(nprocs, executor):
        results = [convert(target, os.path.join(out_root, target), nprocs,
                           executor) for target in TARGETS]
        ranks = zip(*(r.rank_metrics for r in results))
        return [merge_all(list(rank)) for rank in ranks], \
            [path for r in results for path in r.outputs]
    return run


@functools.lru_cache(maxsize=None)
def _sweep() -> tuple[Series, Series, float]:
    records = sized(RECORDS)
    sam_path = sam_dataset(records)
    parts, preprocess_seconds = preprocessed_parts(records)
    original, optimized = SamConverter(), PreprocSamConverter()
    out_root = os.path.join(dataset_dir(), "fig9")
    bench = Bench("fig9_samp_vs_sam")
    sam = bench.series(
        "SAM -> BED + BEDGRAPH + FASTA (original)",
        _three_targets(lambda *a: original.convert(sam_path, *a),
                       os.path.join(out_root, "o")),
        CONVERSION_CORES, parts_digest)
    samp = bench.series(
        "8 x BAMX -> BED + BEDGRAPH + FASTA (_P)",
        _three_targets(lambda *a: optimized.convert(list(parts), *a),
                       os.path.join(out_root, "p")),
        CONVERSION_CORES, parts_digest)
    assert samp.fingerprint == sam.fingerprint
    rows = [[n, sam.modelled[n], samp.modelled[n],
             f"{1 - samp.modelled[n] / sam.modelled[n]:+.1%}"]
            for n in sam.modelled]
    bench.report(
        f"{records} records, sequential SAM preprocessing "
        f"{preprocess_seconds:.3f} s (not in the cells)\n\n"
        f"{sam.table()}\n\n{samp.table()}\n\n"
        + format_rows(["cores", "original modelled (s)",
                       "_P modelled (s)", "improvement"], rows)
        + "\npaper @128 cores: BED +30.8%, BEDGRAPH +24.0%, FASTA +31.0%"
        + f"\n\npreprocessing is amortised after "
          f"{_break_even(sam, samp, preprocess_seconds):.1f} conversions "
          f"(paper: ~{PAPER_BREAK_EVEN})")
    return sam, samp, preprocess_seconds


def _break_even(sam: Series, samp: Series,
                preprocess_seconds: float) -> float:
    """Conversions until sequential preprocessing has paid for itself,
    on the measured 1-rank walls."""
    saved = (sam.real["thread", 1] - samp.real["thread", 1]) / len(TARGETS)
    return preprocess_seconds / saved if saved > 0 else float("inf")


def test_fig9_conversion_phase_is_faster_preprocessed():
    sam, samp, _ = _sweep()
    if smoke_mode():
        return
    # Faster on every measured cell and on the modelled 1 and 2 cores
    # (ranks of >= 0.3 s; the rest of the curve is printed).
    for cell, seconds in samp.real.items():
        assert seconds < sam.real[cell], (cell, samp.real, sam.real)
    for nprocs in (1, 2):
        assert samp.modelled[nprocs] < sam.modelled[nprocs], \
            (nprocs, samp.modelled, sam.modelled)


def test_fig9_preprocessing_is_amortised_as_in_the_paper():
    sweep = _sweep()
    if smoke_mode():
        return
    assert _break_even(*sweep) <= PAPER_BREAK_EVEN
