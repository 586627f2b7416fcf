"""Enriched-region (peak) detection: the end of the Han et al. workflow.

The paper parallelizes two pieces of Han et al. (2012) — NL-means
denoising and FDR computation — whose purpose is peak calling on
ChIP-seq-style histograms.  This module composes them into the full
workflow: denoise, compute empirical per-bin p-values against random
simulations, sweep candidate thresholds, select the loosest threshold
meeting a target FDR, and report contiguous enriched regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError
from .fdr import FdrResult, fdr_parallel
from .nlmeans_parallel import nlmeans_parallel


@dataclass(frozen=True, slots=True)
class Peak:
    """One enriched region, in bin coordinates (half-open)."""

    start: int
    end: int
    max_value: float
    mean_value: float

    @property
    def width(self) -> int:
        """Region width in bins."""
        return self.end - self.start


@dataclass(slots=True)
class PeakCallResult:
    """Outcome of a peak-calling run."""

    peaks: list[Peak]
    threshold: float              # selected p_t
    fdr: FdrResult
    sweep: list[FdrResult] = field(default_factory=list)
    denoised: np.ndarray | None = None

    @property
    def n_peaks(self) -> int:
        """Number of called regions."""
        return len(self.peaks)


def empirical_pvalues(histogram: np.ndarray,
                      simulations: np.ndarray) -> np.ndarray:
    """Eq. 4's p_i for every bin: #(simulations >= observed)."""
    return (histogram[None, :] <= simulations).sum(axis=0)


def regions_from_mask(mask: np.ndarray, values: np.ndarray,
                      min_width: int = 1,
                      merge_gap: int = 0) -> list[Peak]:
    """Contiguous True runs of *mask* as :class:`Peak` regions.

    Runs separated by at most *merge_gap* False bins are merged; runs
    narrower than *min_width* are dropped.
    """
    if len(mask) != len(values):
        raise ReproError("mask and value arrays differ in length")
    raw: list[tuple[int, int]] = []
    start = None
    for i, hit in enumerate(mask):
        if hit and start is None:
            start = i
        elif not hit and start is not None:
            raw.append((start, i))
            start = None
    if start is not None:
        raw.append((start, len(mask)))
    merged: list[tuple[int, int]] = []
    for lo, hi in raw:
        if merged and lo - merged[-1][1] <= merge_gap:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    peaks = []
    for lo, hi in merged:
        if hi - lo < min_width:
            continue
        segment = values[lo:hi]
        peaks.append(Peak(lo, hi, float(segment.max()),
                          float(segment.mean())))
    return peaks


def call_peaks(histogram: np.ndarray, simulations: np.ndarray,
               target_fdr: float = 0.05,
               thresholds: list[float] | None = None,
               denoise: bool = True, search_radius: int = 20,
               half_patch: int = 15, sigma: float | None = None,
               nprocs: int = 1, min_width: int = 1,
               merge_gap: int = 0,
               executor: str = "simulate") -> PeakCallResult:
    """Full pipeline: (optionally) denoise, sweep p_t, call regions.

    Parameters mirror the paper's: NL-means uses ``(r, l, sigma)``
    (sigma defaults to a patch-scaled noise estimate); FDR uses the
    given *simulations* (shape ``(B, M)``); the loosest threshold whose
    FDR stays at or below *target_fdr* is selected, falling back to the
    strictest candidate when none qualifies.  Both steps run their
    *nprocs* ranks under *executor*.
    """
    histogram = np.asarray(histogram, dtype=np.float64)
    if not 0.0 <= target_fdr <= 1.0:
        raise ReproError(f"target FDR {target_fdr} outside [0, 1]")
    signal = histogram
    if denoise:
        if sigma is None:
            noise = float(np.std(np.diff(histogram))) or 1.0
            sigma = noise * (2 * half_patch + 1) ** 0.5
        signal, _ = nlmeans_parallel(histogram, nprocs, search_radius,
                                     half_patch, sigma, executor)
    n_sims = simulations.shape[0]
    if thresholds is None:
        thresholds = sorted({0.0, 1.0, 2.0,
                             round(0.01 * n_sims, 3),
                             round(0.05 * n_sims, 3),
                             round(0.10 * n_sims, 3),
                             round(0.25 * n_sims, 3)})
    sweep: list[FdrResult] = []
    chosen: FdrResult | None = None
    for p_t in thresholds:
        result, _ = fdr_parallel(signal, simulations, p_t, nprocs,
                                 executor=executor)
        sweep.append(result)
        if result.fdr <= target_fdr and result.denominator > 0:
            if chosen is None or p_t > chosen.threshold:
                chosen = result
    if chosen is None:
        chosen = min(sweep, key=lambda r: (r.fdr, r.threshold))
    p = empirical_pvalues(signal, simulations)
    mask = p <= chosen.threshold
    peaks = regions_from_mask(mask, signal, min_width, merge_gap)
    return PeakCallResult(peaks, chosen.threshold, chosen, sweep,
                          signal if denoise else None)
