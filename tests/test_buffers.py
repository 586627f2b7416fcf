"""Unit tests for the metered read/write buffers."""

import pytest

from repro.errors import PartitionError
from repro.runtime.buffers import BufferedTextWriter, RangeLineReader
from repro.runtime.metrics import RankMetrics


def test_range_line_reader_full_file(tmp_path):
    lines = [f"line{i:03d}" for i in range(50)]
    path = tmp_path / "t.txt"
    path.write_text("\n".join(lines) + "\n")
    reader = RangeLineReader(path, 0, path.stat().st_size)
    assert list(reader) == lines


def test_range_line_reader_subrange(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("aaa\nbbb\nccc\n")
    # range covering only "bbb\n"
    reader = RangeLineReader(path, 4, 8)
    assert list(reader) == ["bbb"]


def test_range_line_reader_tiny_chunks(tmp_path):
    lines = [f"row-{i}" for i in range(30)]
    path = tmp_path / "t.txt"
    path.write_text("\n".join(lines) + "\n")
    reader = RangeLineReader(path, 0, path.stat().st_size, chunk_size=3)
    assert list(reader) == lines


def test_range_line_reader_final_line_without_newline(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("aaa\nbbb")
    reader = RangeLineReader(path, 0, 7)
    assert list(reader) == ["aaa", "bbb"]


def test_range_line_reader_empty_range(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("aaa\n")
    assert list(RangeLineReader(path, 2, 2)) == []


@pytest.mark.parametrize("chunk_size", [1, 3, 5, 64])
@pytest.mark.parametrize("data", [
    b"", b"\n", b"aaa\nbbb\n", b"aaa\nbbb", b"a\r\nbb\r\n", b"\n\nx\n\n",
    b"a-line-much-longer-than-any-chunk-size-here\nb\n"])
def test_iter_blocks_is_the_one_read_loop(tmp_path, data, chunk_size):
    """Blocks are consecutive, whole-line and carry their file offset;
    only the last may lack its newline (a file that lacks it); both
    line iterators are views of them."""
    path = tmp_path / "t.txt"
    path.write_bytes(b"skip\n" + data)
    end = path.stat().st_size
    metrics = RankMetrics()
    reader = RangeLineReader(path, 5, end, chunk_size, metrics)
    blocks = list(reader.iter_blocks())
    assert b"".join(block for _, block in blocks) == data
    assert metrics.bytes_read == len(data)
    at = 5
    for offset, block in blocks:
        assert offset == at and block
        at += len(block)
    assert all(block.endswith(b"\n") for _, block in blocks[:-1])
    lines = data.decode().split("\n")
    if data.endswith(b"\n") or not data:
        lines.pop()
    assert list(reader) == lines
    for batch_size in (1, 2, 100):
        batches = list(reader.iter_batches(batch_size))
        assert [line for batch in batches for line in batch] == lines
        assert all(len(batch) == batch_size for batch in batches[:-1])


def test_non_ascii_byte_is_a_typed_error_with_its_offset(tmp_path):
    from repro.errors import SamFormatError
    path = tmp_path / "t.sam"
    path.write_bytes(b"aaa\nr\xc3\xa9ad\nccc\n")
    reader = RangeLineReader(path, 0, path.stat().st_size, chunk_size=4)
    for lines in (lambda: list(reader), lambda: list(reader.iter_batches(2)),
                  lambda: list(reader.iter_blocks())):
        with pytest.raises(SamFormatError) as info:
            lines()
        assert str(info.value) == f"{path}: non-ASCII byte 0xc3 at offset 5"


def test_range_line_reader_metrics(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("aaa\nbbb\n")
    metrics = RankMetrics()
    list(RangeLineReader(path, 0, 8, metrics=metrics))
    assert metrics.bytes_read == 8
    assert metrics.io_seconds >= 0.0


def test_range_line_reader_invalid_range(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("x\n")
    with pytest.raises(PartitionError):
        RangeLineReader(path, 5, 2)


def test_text_writer_lines_and_flush(tmp_path):
    path = tmp_path / "out.txt"
    metrics = RankMetrics()
    with BufferedTextWriter(path, chunk_size=16, metrics=metrics) as w:
        for i in range(10):
            w.write_line(f"line{i}")
    assert path.read_text() == "".join(f"line{i}\n" for i in range(10))
    assert metrics.bytes_written == path.stat().st_size


def test_text_writer_write_text_no_newline(tmp_path):
    path = tmp_path / "out.txt"
    with BufferedTextWriter(path) as w:
        w.write_text("header\n")
        w.write_line("body")
    assert path.read_text() == "header\nbody\n"


def test_text_writer_close_idempotent(tmp_path):
    path = tmp_path / "out.txt"
    w = BufferedTextWriter(path)
    w.write_line("x")
    w.close()
    w.close()
    assert path.read_text() == "x\n"
