"""Tests for the peak-calling workflow."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.simdata import build_simulations
from repro.stats.peaks import Peak, call_peaks, empirical_pvalues, \
    regions_from_mask


def planted_signal(seed=3, n_bins=4_000, n_peaks=8):
    rng = np.random.default_rng(seed)
    signal = rng.poisson(5.0, n_bins).astype(float)
    truth = []
    x = np.arange(n_bins)
    for i in range(n_peaks):
        center = 250 + i * (n_bins - 500) // n_peaks
        width = 12
        signal += 50.0 * np.exp(-0.5 * ((x - center) / width) ** 2)
        truth.append((center - 2 * width, center + 2 * width))
    return signal, truth


def test_empirical_pvalues():
    hist = np.array([5.0, 1.0])
    sims = np.array([[4.0, 2.0], [6.0, 0.5], [5.0, 3.0]])
    p = empirical_pvalues(hist, sims)
    # bin 0: sims >= 5 are 6.0 and 5.0 -> 2; bin 1: 2.0 and 3.0 -> 2.
    assert p.tolist() == [2, 2]


def test_regions_from_mask_basic():
    mask = np.array([0, 1, 1, 0, 1, 0, 1, 1, 1], dtype=bool)
    values = np.arange(9, dtype=float)
    peaks = regions_from_mask(mask, values)
    assert [(p.start, p.end) for p in peaks] == [(1, 3), (4, 5), (6, 9)]
    assert peaks[0].max_value == 2.0
    assert peaks[2].mean_value == 7.0


def test_regions_merge_gap():
    mask = np.array([1, 1, 0, 1, 1], dtype=bool)
    values = np.ones(5)
    assert len(regions_from_mask(mask, values, merge_gap=1)) == 1
    assert len(regions_from_mask(mask, values, merge_gap=0)) == 2


def test_regions_min_width():
    mask = np.array([1, 0, 1, 1, 1], dtype=bool)
    values = np.ones(5)
    peaks = regions_from_mask(mask, values, min_width=2)
    assert [(p.start, p.end) for p in peaks] == [(2, 5)]


def test_regions_length_mismatch():
    with pytest.raises(ReproError):
        regions_from_mask(np.array([True]), np.ones(2))


def test_peak_width():
    assert Peak(10, 25, 1.0, 0.5).width == 15


def test_call_peaks_recovers_planted(tmp_path):
    signal, truth = planted_signal()
    sims = build_simulations(signal, 40, seed=9)
    result = call_peaks(signal, sims, target_fdr=0.05, nprocs=4,
                        min_width=2, merge_gap=3)
    assert result.fdr.fdr <= 0.05
    assert result.n_peaks >= len(truth) * 0.7
    recovered = sum(
        1 for lo, hi in truth
        if any(p.start < hi and p.end > lo for p in result.peaks))
    assert recovered >= len(truth) - 1
    # Peaks sit on genuinely elevated signal.
    background = float(np.median(signal))
    for peak in result.peaks:
        assert peak.max_value > background


def test_call_peaks_sweep_recorded():
    signal, _ = planted_signal(seed=4, n_bins=1_000, n_peaks=3)
    sims = build_simulations(signal, 20, seed=10)
    result = call_peaks(signal, sims, thresholds=[0.0, 1.0, 5.0],
                        nprocs=2)
    assert len(result.sweep) == 3
    assert result.threshold in (0.0, 1.0, 5.0)
    assert result.denoised is not None


@pytest.mark.parametrize("nprocs", [1, 2, 3, 7, 400])
@pytest.mark.parametrize("executor", ["simulate", "thread", "process"])
def test_call_peaks_same_on_every_executor(executor, nprocs):
    """Denoised signal bitwise, sweep, threshold and regions equal to
    the one-rank run (400 ranks > 300 bins)."""
    signal, _ = planted_signal(seed=4, n_bins=300, n_peaks=2)
    sims = build_simulations(signal, 12, seed=10)
    kwargs = dict(thresholds=[0.0, 1.0, 3.0], search_radius=6,
                  half_patch=2)
    one = call_peaks(signal, sims, **kwargs)
    par = call_peaks(signal, sims, nprocs=nprocs, executor=executor,
                     **kwargs)
    assert np.array_equal(par.denoised, one.denoised)
    assert par.sweep == one.sweep
    assert par.threshold == one.threshold and par.peaks == one.peaks


def test_call_peaks_without_denoising():
    signal, _ = planted_signal(seed=5, n_bins=800, n_peaks=2)
    sims = build_simulations(signal, 15, seed=11)
    result = call_peaks(signal, sims, denoise=False)
    assert result.denoised is None


def test_call_peaks_falls_back_when_target_unreachable():
    rng = np.random.default_rng(0)
    noise = rng.poisson(5.0, 500).astype(float)  # no enrichment at all
    sims = build_simulations(noise, 15, seed=12)
    result = call_peaks(noise, sims, target_fdr=0.0, denoise=False)
    # Strictest candidate chosen; result is still well-formed.
    assert result.fdr is not None
    assert isinstance(result.peaks, list)


def test_call_peaks_validates_target():
    signal, _ = planted_signal(seed=6, n_bins=300, n_peaks=1)
    sims = build_simulations(signal, 5, seed=13)
    with pytest.raises(ReproError):
        call_peaks(signal, sims, target_fdr=1.5)
