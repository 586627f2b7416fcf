"""Figure 12 — speedup of parallel FDR computation.

Paper: 1 histogram + 80 simulation datasets of 16M bins each, up to 256
cores; sequential time 1164 s; measured speedups 8.30 / 16.60 / 33.15 /
66.16 / 132.14 / 263.94 at 8..256 cores (slightly superlinear, which
the authors attribute in part to the fused summation permutation of
Algorithm 2 saving a global synchronization).

Here: fewer bins, same B = 80 simulations; the fused schedule and the
unfused two-pass one as two :class:`~.common.Series`, every cell's
result equal to ``fdr_vectorized``.
"""

from __future__ import annotations

from repro.simdata import build_histogram, build_simulations
from repro.stats.fdr import fdr_parallel, fdr_vectorized

from .common import Bench, assert_scales, sized, smoke_mode

#: Core counts of the FDR figure (paper: 8..256; 1 and 2 sit beside the
#: measured ranks).
FDR_CORES = (1, 2, 8, 16, 32, 64, 128, 256)

#: Scaled bin count: the fastest cell (fused, 2 ranks) is ~0.28 s.
N_BINS = 64_000
N_SIMULATIONS = 80
P_T = 3.0

PAPER_SPEEDUPS = dict(zip(FDR_CORES[2:],
                          (8.30, 16.60, 33.15, 66.16, 132.14, 263.94)))


def test_fig12_fdr_speedup():
    histogram = build_histogram(sized(N_BINS), seed=5)
    sims = build_simulations(histogram, N_SIMULATIONS, seed=6)
    bench = Bench("fig12_fdr")

    def schedule(fused):
        def run(nprocs, executor):
            return fdr_parallel(histogram, sims, P_T, nprocs, fused=fused,
                                executor=executor)[::-1]
        return run

    fused = bench.series("FDR (fused, Algorithm 2)", schedule(True),
                         FDR_CORES)
    unfused = bench.series("FDR (unfused two-pass)", schedule(False),
                           FDR_CORES)
    assert fused.fingerprint == unfused.fingerprint \
        == fdr_vectorized(histogram, sims, P_T)
    bench.report(
        f"{len(histogram)} bins x {N_SIMULATIONS} simulations (paper: 16M "
        f"x 80, sequential 1164 s); FDR(p_t={P_T}) = "
        f"{fused.fingerprint.fdr:.6f}\n\n"
        f"{fused.table(PAPER_SPEEDUPS)}\n\n{unfused.table()}")

    if smoke_mode():
        return
    # The summation permutation (fused reduction) beats the two-pass
    # schedule on every real cell and on the modelled 1, 2 and 8 cores
    # (ranks of >= 60 ms; the rest of the curve is printed).
    assert_scales(fused)
    for nprocs in (1, 2, 8):
        assert fused.modelled[nprocs] < unfused.modelled[nprocs], nprocs
    for cell, seconds in fused.real.items():
        assert seconds < unfused.real[cell], cell
