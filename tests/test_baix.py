"""Unit tests for the BAIX index (sorted positions -> record indices)."""

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.formats.baix import BaixIndex, default_index_path
from repro.formats.bamx import BamxReader, write_bamx
from repro.formats.header import SamHeader

HDR = SamHeader.from_references([("chr1", 100_000), ("chr2", 50_000)])


@pytest.fixture(scope="module")
def index(workload):
    _, header, records = workload
    return BaixIndex.build(enumerate(records), header), header, records


def test_excludes_unplaced_records(index):
    idx, header, records = index
    placed = sum(1 for r in records if r.rname != "*" and r.pos >= 0)
    assert len(idx) == placed


def test_entries_sorted_by_coordinate(index):
    idx, _, _ = index
    keys = list(zip(idx.ref_ids.tolist(), idx.positions.tolist()))
    assert keys == sorted(keys)


def test_locate_matches_linear_scan(index):
    idx, header, records = index
    for chrom, beg, end in [("chr1", 0, 60_000), ("chr1", 5_000, 9_000),
                            ("chr2", 100, 200), ("chr2", 0, 50_000)]:
        ref_id = header.ref_id(chrom)
        lo, hi = idx.locate(ref_id, beg, end)
        got = sorted(idx.record_indices(lo, hi).tolist())
        expected = sorted(
            i for i, r in enumerate(records)
            if r.rname == chrom and beg <= r.pos < end)
        assert got == expected, (chrom, beg, end)


def test_locate_empty_region(index):
    idx, _, _ = index
    lo, hi = idx.locate(0, 0, 0)
    assert lo == hi


def test_locate_rejects_invalid(index):
    idx, _, _ = index
    with pytest.raises(IndexError_):
        idx.locate(0, -1, 10)
    with pytest.raises(IndexError_):
        idx.locate(0, 10, 5)


def test_record_indices_bounds(index):
    idx, _, _ = index
    with pytest.raises(IndexError_):
        idx.record_indices(0, len(idx) + 1)


def test_ref_span(index):
    idx, header, records = index
    lo, hi = idx.ref_span(header.ref_id("chr1"))
    chr1_count = sum(1 for r in records if r.rname == "chr1" and r.pos >= 0)
    assert hi - lo == chr1_count


def test_save_load_roundtrip(index, tmp_path):
    idx, _, _ = index
    path = tmp_path / "t.baix"
    idx.save(path)
    loaded = BaixIndex.load(path)
    assert np.array_equal(loaded.ref_ids, idx.ref_ids)
    assert np.array_equal(loaded.positions, idx.positions)
    assert np.array_equal(loaded.indices, idx.indices)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.baix"
    path.write_bytes(b"garbage")
    with pytest.raises(IndexError_):
        BaixIndex.load(path)


def test_unsorted_construction_rejected():
    with pytest.raises(IndexError_):
        BaixIndex(np.array([0, 0]), np.array([10, 5]), np.array([0, 1]))


def test_column_length_mismatch_rejected():
    with pytest.raises(IndexError_):
        BaixIndex(np.array([0]), np.array([1, 2]), np.array([0, 1]))


def test_from_bamx(tmp_path, workload):
    _, header, records = workload
    path = tmp_path / "t.bamx"
    write_bamx(path, header, records)
    with BamxReader(path) as reader:
        idx = BaixIndex.from_bamx(reader)
        lo, hi = idx.locate(header.ref_id("chr1"), 1_000, 2_000)
        for record_index in idx.record_indices(lo, hi):
            rec = reader[int(record_index)]
            assert rec.rname == "chr1" and 1_000 <= rec.pos < 2_000


def test_default_index_path():
    assert default_index_path("/a/b.bamx") == "/a/b.bamx.baix"


def test_index_order_mirrors_fig4():
    """Fig. 4: positions ascending while record indices may be permuted."""
    from repro.formats.record import AlignmentRecord
    records = [
        AlignmentRecord("r0", 0, "chr1", 500, 60, [(4, "M")], "*", -1, 0,
                        "ACGT", "IIII"),
        AlignmentRecord("r1", 0, "chr1", 100, 60, [(4, "M")], "*", -1, 0,
                        "ACGT", "IIII"),
        AlignmentRecord("r2", 0, "chr1", 300, 60, [(4, "M")], "*", -1, 0,
                        "ACGT", "IIII"),
    ]
    idx = BaixIndex.build(enumerate(records), HDR)
    assert idx.positions.tolist() == [100, 300, 500]
    assert idx.indices.tolist() == [1, 2, 0]


def test_from_columns_is_what_build_does(index, workload):
    _, header, records = workload
    placed = [(header.ref_id(r.rname), r.pos, i)
              for i, r in enumerate(records) if r.rname != "*" and r.pos >= 0]
    ref_ids, positions, indices = (np.array(c) for c in zip(*placed[::-1]))
    built = BaixIndex.from_columns(ref_ids, positions, indices)
    idx = index[0]
    assert np.array_equal(built.ref_ids, idx.ref_ids)
    assert np.array_equal(built.positions, idx.positions)
    assert np.array_equal(built.indices, idx.indices)
    assert len(BaixIndex.from_columns((), (), ())) == 0
