"""Tests for the preprocessing-optimized SAM converter (Fig. 5)."""

import os

import pytest

from repro.core.sam_converter import SamConverter
from repro.core.samp_converter import PreprocSamConverter
from repro.errors import ConversionError
from repro.formats.bamx import BamxReader


def cat(paths):
    return b"".join(open(p, "rb").read() for p in paths)


@pytest.fixture(scope="module")
def preprocessed(sam_file, tmp_path_factory):
    work = tmp_path_factory.mktemp("samp")
    converter = PreprocSamConverter()
    paths, metrics = converter.preprocess(sam_file, work, nprocs=3)
    return paths, metrics


def test_one_bamx_per_preprocessing_rank(preprocessed):
    paths, metrics = preprocessed
    assert len(paths) == 3
    assert len(metrics) == 3
    assert all(os.path.exists(p) for p in paths)
    assert all(os.path.exists(p + ".baix") for p in paths)


def test_preprocessing_preserves_all_records(preprocessed, workload):
    paths, _ = preprocessed
    _, _, records = workload
    recovered = []
    for path in paths:
        with BamxReader(path) as reader:
            recovered.extend(reader)
    assert recovered == records  # concatenation preserves order


def test_per_file_layouts_are_independent(preprocessed):
    paths, _ = preprocessed
    layouts = []
    for path in paths:
        with BamxReader(path) as reader:
            layouts.append(reader.layout)
    # Each file is self-describing; layouts may legitimately differ.
    assert all(l.record_size > 0 for l in layouts)


def test_m_by_n_output_files(preprocessed, tmp_path):
    paths, _ = preprocessed
    converter = PreprocSamConverter()
    result = converter.convert(paths, "bed", tmp_path / "o", nprocs=4)
    assert len(result.outputs) == len(paths) * 4  # M x N


def test_conversion_matches_original_sam_converter(preprocessed,
                                                   sam_file, tmp_path):
    """The optimized pipeline must produce the same bytes as the
    original SAM converter (same records, same target lines)."""
    paths, _ = preprocessed
    optimized = PreprocSamConverter().convert(paths, "bed",
                                              tmp_path / "opt", nprocs=2)
    original = SamConverter().convert(sam_file, "bed", tmp_path / "orig",
                                      nprocs=1)
    assert cat(optimized.outputs) == cat(original.outputs)


def test_end_to_end_attaches_preprocess_metrics(sam_file, tmp_path,
                                                workload):
    _, _, records = workload
    result = PreprocSamConverter().convert_end_to_end(
        sam_file, "fasta", tmp_path / "work", tmp_path / "out",
        preprocess_procs=2, convert_procs=3)
    assert len(result.preprocess_metrics) == 2
    assert result.records == len(records)
    pre_records = sum(m.records for m in result.preprocess_metrics)
    assert pre_records == len(records)


def test_rank_metrics_combined_across_files(preprocessed, tmp_path):
    paths, _ = preprocessed
    result = PreprocSamConverter().convert(paths, "bed", tmp_path / "o",
                                           nprocs=2)
    assert len(result.rank_metrics) == 2
    assert sum(m.records for m in result.rank_metrics) == result.records


def test_empty_bamx_list_rejected(tmp_path):
    with pytest.raises(ConversionError):
        PreprocSamConverter().convert([], "bed", tmp_path / "o")


@pytest.mark.parametrize("bad", [{"pipeline": "bogus"},
                                 {"store_format": "parquet"},
                                 {"batch_size": 0},
                                 {"shards_per_rank": "many"}])
def test_bad_options_rejected_before_any_work(tmp_path, bad):
    """The constructor validates every option up front: a typo must not
    cost a full parallel preprocess before convert() notices it."""
    with pytest.raises(ConversionError):
        PreprocSamConverter(**bad).convert_end_to_end(
            tmp_path / "missing.sam", "bed", tmp_path / "w",
            tmp_path / "o")
    assert os.listdir(tmp_path) == []


def test_invalid_nprocs(sam_file, tmp_path):
    with pytest.raises(ConversionError):
        PreprocSamConverter().preprocess(sam_file, tmp_path, nprocs=0)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_preprocess_executors_match(sam_file, tmp_path, executor,
                                    workload):
    _, _, records = workload
    paths, _ = PreprocSamConverter().preprocess(
        sam_file, tmp_path / executor, nprocs=2, executor=executor)
    recovered = []
    for path in paths:
        with BamxReader(path) as reader:
            recovered.extend(reader)
    assert recovered == records
