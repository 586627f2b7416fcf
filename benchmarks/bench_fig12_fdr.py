"""Figure 12 — speedup of parallel FDR computation.

Paper: 1 histogram + 80 simulation datasets of 16M bins each, up to 256
cores; sequential time 1164 s; measured speedups 8.30 / 16.60 / 33.15 /
66.16 / 132.14 / 263.94 at 8..256 cores (slightly superlinear, which
the authors attribute in part to the fused summation permutation of
Algorithm 2 saving a global synchronization).

Scaled here: fewer bins, same B = 80 simulations.  The fused-vs-unfused
ablation quantifies the summation-permutation optimization the paper
credits for the extra speedup.

Beside the modelled curves (``simulate`` executor) the report prints the
measured wall of the same calls, fused and unfused, on 1 and 2 real
ranks (``thread`` / ``process``), every cell checked against
``fdr_vectorized``.
"""

from __future__ import annotations

from repro.simdata import build_histogram, build_simulations
from repro.stats.fdr import fdr_parallel, fdr_vectorized

from .common import FDR_CORES, format_rows, measured_walls, report, \
    sequential_reference, speedup_curve

N_BINS = 40_000
N_SIMULATIONS = 80
P_T = 3.0


def _sweep():
    histogram = build_histogram(N_BINS, seed=5)
    sims = build_simulations(histogram, N_SIMULATIONS, seed=6)
    fused_runs = {}
    unfused_runs = {}
    value = None
    for nprocs in FDR_CORES:
        result, metrics = fdr_parallel(histogram, sims, P_T, nprocs,
                                       fused=True)
        fused_runs[nprocs] = metrics
        result2, metrics2 = fdr_parallel(histogram, sims, P_T, nprocs,
                                         fused=False)
        unfused_runs[nprocs] = metrics2
        assert result.fdr == result2.fdr
        value = result.fdr
    seq = sequential_reference(fused_runs[1])
    fused_curve = speedup_curve("FDR (fused, Algorithm 2)", seq,
                                fused_runs)
    unfused_curve = speedup_curve("FDR (unfused two-pass)", seq,
                                  unfused_runs)
    expected = fdr_vectorized(histogram, sims, P_T)

    def run(series, nprocs, executor):
        result, _ = fdr_parallel(histogram, sims, P_T, nprocs,
                                 fused=series == "fused",
                                 executor=executor)
        assert result == expected, (series, executor, nprocs)

    return fused_curve, unfused_curve, value, \
        measured_walls(run, ("fused", "unfused"))


def test_fig12_fdr_speedup(benchmark):
    fused, unfused, value, measured = benchmark.pedantic(
        _sweep, rounds=1, iterations=1)
    rows = []
    for f_point, u_point in zip(fused.points, unfused.points):
        rows.append([f_point.nprocs, f_point.par_seconds,
                     f_point.speedup, u_point.par_seconds,
                     u_point.speedup])
    text = format_rows(
        ["cores", "fused T (s)", "fused speedup", "unfused T (s)",
         "unfused speedup"], rows)
    text += (f"\nFDR(p_t={P_T}) = {value:.6f}; paper speedups: 8.30 / "
             "16.60 / 33.15 / 66.16 / 132.14 / 263.94 at 8..256 cores\n"
             f"scaling note: {N_BINS} bins x {N_SIMULATIONS} simulations "
             "here vs 16M bins x 80 in the paper")
    text += "\n\n" + measured
    report("fig12_fdr", text)

    speedups = fused.speedups()
    assert speedups[0] == 1.0
    assert speedups[1] > 5.5      # 8 cores
    assert speedups[2] > 10.0     # 16 cores
    assert speedups[3] > 18.0     # 32 cores
    for a, b in zip(speedups[:5], speedups[1:5]):
        assert b > a
    # The summation permutation (fused reduction) beats the two-pass
    # schedule at every core count.
    for f_point, u_point in zip(fused.points[1:], unfused.points[1:]):
        assert f_point.par_seconds < u_point.par_seconds
