"""Tests for FDR computation: all implementations must agree exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.simdata import build_histogram, build_simulations
from repro.stats.fdr import fdr_parallel, fdr_reference, fdr_sorted, \
    fdr_vectorized


@pytest.fixture(scope="module")
def dataset():
    hist = build_histogram(250, seed=7)
    sims = build_simulations(hist, 10, seed=8)
    return hist, sims


@pytest.mark.parametrize("p_t", [0.0, 1.0, 3.0, 5.0, 10.0])
def test_vectorized_matches_reference(dataset, p_t):
    hist, sims = dataset
    ref = fdr_reference(hist, sims, p_t)
    vec = fdr_vectorized(hist, sims, p_t)
    assert vec.fdr == ref.fdr
    assert vec.numerator == ref.numerator
    assert vec.denominator == ref.denominator


@pytest.mark.parametrize("p_t", [1.0, 3.0, 7.0])
def test_sorted_matches_vectorized(dataset, p_t):
    hist, sims = dataset
    assert fdr_sorted(hist, sims, p_t).fdr == \
        fdr_vectorized(hist, sims, p_t).fdr


def test_sorted_handles_ties():
    hist = np.array([1.0, 2.0, 3.0])
    sims = np.array([[1.0, 2.0, 3.0],
                     [1.0, 2.0, 1.0],
                     [1.0, 5.0, 3.0]])
    for p_t in (0.0, 1.0, 2.0, 3.0):
        assert fdr_sorted(hist, sims, p_t).fdr == \
            fdr_reference(hist, sims, p_t).fdr


@pytest.mark.parametrize("nprocs", [1, 2, 3, 7, 16])
def test_parallel_matches_sequential(dataset, nprocs):
    hist, sims = dataset
    vec = fdr_vectorized(hist, sims, 3.0)
    par, metrics = fdr_parallel(hist, sims, 3.0, nprocs)
    assert par.fdr == vec.fdr
    assert par.numerator == vec.numerator
    assert par.denominator == vec.denominator
    assert len(metrics) == nprocs


def test_unfused_same_value_more_work(dataset):
    hist, sims = dataset
    fused, fm = fdr_parallel(hist, sims, 3.0, 4, fused=True)
    unfused, um = fdr_parallel(hist, sims, 3.0, 4, fused=False)
    assert unfused.fdr == fused.fdr
    # The two-pass schedule sweeps every bin partition twice; the fused
    # schedule touches each bin once (timing itself is too noisy to
    # compare at this scale, so assert the structural work count).
    assert sum(m.records for m in fm) == len(hist)
    assert sum(m.records for m in um) == 2 * len(hist)


def test_parallel_sorted_method(dataset):
    hist, sims = dataset
    quad, _ = fdr_parallel(hist, sims, 3.0, 3, method="quadratic")
    srt, _ = fdr_parallel(hist, sims, 3.0, 3, method="sorted")
    assert quad.fdr == srt.fdr


@pytest.mark.parametrize("nprocs", [1, 2, 3, 7, 300])
@pytest.mark.parametrize("executor", ["simulate", "thread", "process"])
def test_executors_match_sequential(dataset, executor, nprocs):
    """300 ranks > 250 bins: the surplus ranks sum empty partitions."""
    hist, sims = dataset
    vec = fdr_vectorized(hist, sims, 3.0)
    for method in ("quadratic", "sorted"):
        for fused in (True, False):
            par, metrics = fdr_parallel(hist, sims, 3.0, nprocs, method,
                                        fused, executor)
            assert par.numerator == vec.numerator
            assert par.denominator == vec.denominator
            assert par.fdr == vec.fdr
            assert len(metrics) == nprocs
            assert sum(m.records for m in metrics) == \
                (1 if fused else 2) * len(hist)


def test_zero_denominator_convention():
    hist = np.full(5, 100.0)        # observed far above all simulations
    sims = np.zeros((3, 5))
    result = fdr_vectorized(hist, sims, -1.0)  # nothing passes p_t
    assert result.denominator == 0
    assert result.fdr == 0.0


def test_fdr_monotonic_behaviour(dataset):
    """Raising p_t (looser threshold) must not shrink the selected-bin
    denominator."""
    hist, sims = dataset
    last_den = -1.0
    for p_t in (0.0, 2.0, 4.0, 8.0):
        result = fdr_vectorized(hist, sims, p_t)
        assert result.denominator >= last_den
        last_den = result.denominator


def test_validation():
    with pytest.raises(ReproError):
        fdr_vectorized(np.ones((2, 2)), np.ones((2, 2)), 1.0)
    with pytest.raises(ReproError):
        fdr_vectorized(np.ones(3), np.ones((2, 4)), 1.0)
    with pytest.raises(ReproError):
        fdr_vectorized(np.ones(3), np.ones((0, 3)), 1.0)
    with pytest.raises(ReproError):
        fdr_parallel(np.ones(3), np.ones((2, 3)), 1.0, 0)


def test_permutation_simulations_shape():
    hist = build_histogram(100, seed=0)
    sims = build_simulations(hist, 7, seed=1)
    assert sims.shape == (7, 100)
    # Permutations preserve the multiset of values.
    for b in range(7):
        assert np.array_equal(np.sort(sims[b]), np.sort(hist))


@given(st.integers(2, 8), st.integers(5, 40),
       st.floats(0, 10, allow_nan=False), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_all_implementations_agree_property(n_sims, n_bins, p_t, nprocs):
    rng = np.random.default_rng(n_sims * 100 + n_bins)
    hist = rng.integers(0, 20, n_bins).astype(float)
    sims = rng.integers(0, 20, (n_sims, n_bins)).astype(float)
    ref = fdr_reference(hist, sims, p_t)
    vec = fdr_vectorized(hist, sims, p_t)
    srt = fdr_sorted(hist, sims, p_t)
    par, _ = fdr_parallel(hist, sims, p_t, nprocs)
    assert ref.fdr == vec.fdr == srt.fdr == par.fdr
