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
