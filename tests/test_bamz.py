"""Tests for BAMZ (compressed BAMX) and the record-store opener."""

import os

import pytest

from repro.errors import BamxFormatError, IndexError_
from repro.formats.bamx import BamxReader, write_bamx
from repro.formats.bamz import BamzReader, BamzWriter, index_path_for, \
    read_bamz, write_bamz
from repro.formats.store import open_record_store, store_extension


@pytest.fixture(scope="module")
def bamz_file(workload, tmp_path_factory):
    _, header, records = workload
    path = tmp_path_factory.mktemp("bamz") / "t.bamz"
    layout = write_bamz(path, header, records)
    return str(path), layout, records


def test_roundtrip(bamz_file, workload):
    path, layout, records = bamz_file
    header, got = read_bamz(path)
    assert got == records


def test_sidecar_index_written(bamz_file):
    path, _, _ = bamz_file
    assert os.path.exists(index_path_for(path))


def test_random_access(bamz_file):
    path, _, records = bamz_file
    with BamzReader(path) as reader:
        assert len(reader) == len(records)
        assert reader[0] == records[0]
        assert reader[-1] == records[-1]
        assert reader[17] == records[17]
        with pytest.raises(IndexError):
            reader[len(records)]


def test_read_range(bamz_file):
    path, _, records = bamz_file
    with BamzReader(path) as reader:
        assert list(reader.read_range(5, 25)) == records[5:25]
        assert list(reader.read_range(3, 3)) == []
        with pytest.raises(BamxFormatError):
            list(reader.read_range(0, len(records) + 1))


def test_compression_actually_shrinks(workload, tmp_path):
    _, header, records = workload
    bamx = tmp_path / "t.bamx"
    bamz = tmp_path / "t.bamz"
    write_bamx(bamx, header, records)
    write_bamz(bamz, header, records)
    assert os.path.getsize(bamz) < 0.6 * os.path.getsize(bamx)


def test_missing_index_rejected(workload, tmp_path):
    _, header, records = workload
    path = tmp_path / "t.bamz"
    write_bamz(path, header, records[:10])
    os.unlink(index_path_for(path))
    with pytest.raises(FileNotFoundError):
        BamzReader(path)


def test_mismatched_index_rejected(workload, tmp_path):
    _, header, records = workload
    a = tmp_path / "a.bamz"
    b = tmp_path / "b.bamz"
    write_bamz(a, header, records[:10])
    # Different header text shifts the first record's virtual offset.
    bigger = header.with_sort_order("queryname")
    write_bamz(b, bigger, records[:10])
    with pytest.raises(IndexError_):
        BamzReader(a, index_path=index_path_for(b))


def test_bad_magic(tmp_path):
    from repro.formats.bgzf import BgzfReader, BgzfWriter
    path = tmp_path / "bad.bamz"
    writer = BgzfWriter(path)
    writer.write(b"WRONG MAGIC HERE")
    writer.close()
    with pytest.raises(BamxFormatError):
        BamzReader(path)


def test_writer_counts(workload, tmp_path):
    _, header, records = workload
    from repro.formats.bamx import plan_layout
    path = tmp_path / "t.bamz"
    with BamzWriter(path, header, plan_layout(records)) as writer:
        assert writer.write(records[0]) == 0
        assert writer.write(records[1]) == 1
    with BamzReader(path) as reader:
        assert len(reader) == 2


def test_open_record_store_dispatch(workload, tmp_path):
    _, header, records = workload
    bamx = tmp_path / "t.bamx"
    bamz = tmp_path / "t.bamz"
    write_bamx(bamx, header, records[:20])
    write_bamz(bamz, header, records[:20])
    with open_record_store(bamx) as store:
        assert isinstance(store, BamxReader)
        assert list(store) == records[:20]
    with open_record_store(bamz) as store:
        assert isinstance(store, BamzReader)
        assert list(store) == records[:20]


def test_open_record_store_rejects_other_files(tmp_path, sam_file):
    with pytest.raises(BamxFormatError):
        open_record_store(sam_file)


def test_store_extension():
    assert store_extension(False) == ".bamx"
    assert store_extension(True) == ".bamz"


def test_converter_pipeline_over_bamz(workload, tmp_path):
    """Full and partial conversion behave identically over BAMX and
    BAMZ stores."""
    from repro.core import BamConverter
    from repro.formats.bam import write_bam
    _, header, records = workload
    bam = tmp_path / "t.bam"
    write_bam(bam, header, records)
    converter = BamConverter()
    bamx, baix_x, _ = converter.preprocess(bam, tmp_path / "wx",
                                           compress=False)
    bamz, baix_z, _ = converter.preprocess(bam, tmp_path / "wz",
                                           compress=True)
    assert bamz.endswith(".bamz")
    a = converter.convert(bamx, "bed", tmp_path / "ox", nprocs=3)
    b = converter.convert(bamz, "bed", tmp_path / "oz", nprocs=3)
    def cat(res):
        return b"".join(open(p, "rb").read() for p in res.outputs)
    assert cat(a) == cat(b)
    ra = converter.convert_region(bamx, baix_x, "chr1:1-20000", "sam",
                                  tmp_path / "rx", nprocs=2)
    rb = converter.convert_region(bamz, baix_z, "chr1:1-20000", "sam",
                                  tmp_path / "rz", nprocs=2)
    assert cat(ra) == cat(rb)


@pytest.mark.parametrize("batch", [1, 7, 400])
def test_virtual_offsets_follow_from_the_block_cut(tmp_path, workload,
                                                   batch):
    """The ``.bzi`` is computed arithmetically at close; it must equal
    what ``tell()`` before every single-record write reports, however
    the records were batched."""
    import numpy as np

    from repro.formats.bamx import plan_layout
    from repro.formats.bgzf import BgzfReader, BgzfWriter
    _, header, records = workload
    records = records * 3  # several BGZF blocks
    layout = plan_layout(records)
    path = tmp_path / "t.bamz"
    with BamzWriter(path, header, layout) as writer:
        for i in range(0, len(records), batch):
            assert writer.write_batch(records[i:i + batch]) == i
    oracle = BgzfWriter(tmp_path / "oracle.bgzf")
    with BamzReader(path) as reader:
        # The header fits the first block: offset == byte count.
        oracle.write(BgzfReader(path).read(reader._first_voffset))
        told = []
        for record in records:
            told.append(oracle.tell())
            oracle.write(layout.encode(record, header))
        oracle.close()
        assert np.array_equal(reader._voffsets, np.array(told, "<u8"))
        assert list(reader) == records
