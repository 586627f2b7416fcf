"""Tests for parallel histogram construction."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.stats.histogram import histogram_from_records, histogram_parallel


@pytest.fixture(scope="module")
def sequential(workload):
    _, header, records = workload
    return histogram_from_records(records, header, bin_size=25)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 8])
def test_parallel_equals_sequential(sam_file, sequential, nprocs):
    parallel, metrics = histogram_parallel(sam_file, bin_size=25,
                                           nprocs=nprocs)
    assert set(parallel) == set(sequential)
    for chrom in sequential:
        assert np.array_equal(parallel[chrom], sequential[chrom]), chrom
    assert len(metrics) == nprocs


def test_rank_metrics_cover_all_records(sam_file, workload):
    _, _, records = workload
    _, metrics = histogram_parallel(sam_file, nprocs=4)
    assert sum(m.records for m in metrics) == len(records)


def test_different_bin_sizes(sam_file, workload):
    _, header, records = workload
    for bin_size in (1, 10, 100):
        parallel, _ = histogram_parallel(sam_file, bin_size=bin_size,
                                         nprocs=3)
        sequential = histogram_from_records(records, header, bin_size)
        for chrom in sequential:
            assert np.array_equal(parallel[chrom], sequential[chrom])


def test_invalid_nprocs(sam_file):
    with pytest.raises(ReproError):
        histogram_parallel(sam_file, nprocs=0)


def test_headerless_sam_rejected(tmp_path):
    path = tmp_path / "bare.sam"
    path.write_text("r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\tIIII\n")
    with pytest.raises(ReproError):
        histogram_parallel(path)


@pytest.fixture(scope="module")
def small_sam(tmp_path_factory):
    """A 40-record SAM file, its records and sequential histograms."""
    from repro.simdata import build_sam_dataset
    path = tmp_path_factory.mktemp("hist") / "small.sam"
    wl = build_sam_dataset(path, 20, [("chr1", 4000), ("chr2", 3000)],
                           seed=5)
    return str(path), wl.records, \
        histogram_from_records(wl.records, wl.header, bin_size=25)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("executor", ["simulate", "thread", "process"])
def test_executors_match_sequential(small_sam, executor, nprocs):
    """64 ranks > 40 records: the surplus ranks get empty partitions."""
    path, records, sequential = small_sam
    parallel, metrics = histogram_parallel(path, 25, nprocs, executor)
    assert set(parallel) == set(sequential)
    for chrom in sequential:
        assert np.array_equal(parallel[chrom], sequential[chrom]), chrom
    assert len(metrics) == nprocs
    assert sum(m.records for m in metrics) == len(records)
