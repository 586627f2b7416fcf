"""Tests for NL-means: reference vs vectorized vs parallel on every
executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ReproError
from repro.stats.nlmeans import nlmeans, nlmeans_core, nlmeans_reference
from repro.stats.nlmeans_parallel import halo_partition, nlmeans_parallel


@pytest.fixture(scope="module")
def signal():
    rng = np.random.default_rng(42)
    clean = np.concatenate([np.zeros(80), np.full(40, 30.0),
                            np.zeros(80)])
    return clean + rng.normal(0, 3.0, len(clean))


def test_vectorized_matches_reference(signal):
    ref = nlmeans_reference(signal, 10, 4, 8.0)
    vec = nlmeans(signal, 10, 4, 8.0)
    assert np.allclose(ref, vec, rtol=1e-10, atol=1e-12)


def test_weights_normalize_constant_signal():
    # A constant signal must stay exactly constant (weights sum to 1).
    v = np.full(50, 7.0)
    out = nlmeans(v, 5, 2, 3.0)
    assert np.allclose(out, 7.0)


def test_denoising_reduces_noise(signal):
    clean = np.concatenate([np.zeros(80), np.full(40, 30.0),
                            np.zeros(80)])
    noisy_err = np.mean((signal - clean) ** 2)
    denoised_err = np.mean((nlmeans(signal, 15, 5, 8.0) - clean) ** 2)
    assert denoised_err < noisy_err


def test_parameter_validation():
    v = np.ones(10)
    with pytest.raises(ReproError):
        nlmeans(v, 0, 2, 1.0)
    with pytest.raises(ReproError):
        nlmeans(v, 2, -1, 1.0)
    with pytest.raises(ReproError):
        nlmeans(v, 2, 1, 0.0)
    with pytest.raises(ReproError):
        nlmeans(np.ones((2, 2)), 2, 1, 1.0)
    with pytest.raises(ReproError):
        nlmeans(np.array([]), 2, 1, 1.0)


def test_core_requires_context():
    with pytest.raises(ReproError):
        nlmeans_core(np.ones(10), 2, 8, 3, 1, 1.0)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8])
def test_parallel_bitwise_equals_sequential(signal, nprocs):
    seq = nlmeans(signal, 10, 4, 8.0)
    par, metrics = nlmeans_parallel(signal, nprocs, 10, 4, 8.0)
    assert np.array_equal(par, seq)
    assert len(metrics) == nprocs
    assert sum(m.records for m in metrics) == len(signal)


def test_parallel_more_ranks_than_points():
    v = np.arange(5, dtype=float)
    seq = nlmeans(v, 2, 1, 1.0)
    par, _ = nlmeans_parallel(v, 9, 2, 1, 1.0)
    assert np.array_equal(par, seq)


def test_halo_partition_shapes():
    v = np.arange(100, dtype=float)
    parts = halo_partition(v, 4, halo=7)
    assert len(parts) == 4
    for start, core_len, enlarged in parts:
        assert len(enlarged) == core_len + 14
    assert sum(p[1] for p in parts) == 100


def test_halo_partition_replicates_neighbours():
    v = np.arange(20, dtype=float)
    parts = halo_partition(v, 2, halo=3)
    start1, len1, enlarged1 = parts[1]
    # Rank 1's left halo is the end of rank 0's core data.
    assert np.array_equal(enlarged1[:3], v[start1 - 3:start1])


def test_halo_partition_edge_replication():
    v = np.arange(10, dtype=float)
    parts = halo_partition(v, 2, halo=2)
    _, _, first = parts[0]
    assert first[0] == v[0] and first[1] == v[0]  # edge-replicated


@pytest.mark.parametrize("nprocs", [1, 2, 3, 7, 250])
@pytest.mark.parametrize("executor", ["simulate", "thread", "process"])
def test_executors_match_sequential(signal, executor, nprocs):
    """250 ranks > 200 bins: the surplus ranks get empty cores."""
    seq = nlmeans(signal, 6, 2, 8.0)
    par, metrics = nlmeans_parallel(signal, nprocs, 6, 2, 8.0,
                                    executor=executor)
    assert np.array_equal(par, seq)
    assert len(metrics) == nprocs
    assert sum(m.records for m in metrics) == len(signal)


@given(arrays(np.float64, st.integers(4, 80),
              elements=st.floats(0, 100, allow_nan=False)),
       st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_parallel_equals_sequential_property(values, nprocs):
    seq = nlmeans(values, 3, 1, 5.0)
    par, _ = nlmeans_parallel(values, nprocs, 3, 1, 5.0)
    assert np.array_equal(par, seq)


@given(arrays(np.float64, st.integers(4, 60),
              elements=st.floats(0, 50, allow_nan=False)))
@settings(max_examples=15, deadline=None)
def test_vectorized_matches_reference_property(values):
    ref = nlmeans_reference(values, 4, 2, 6.0)
    vec = nlmeans(values, 4, 2, 6.0)
    assert np.allclose(ref, vec, rtol=1e-9, atol=1e-9)
