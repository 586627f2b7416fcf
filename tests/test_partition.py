"""Unit and property tests for Algorithm 1 partitioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.runtime.partition import Partition, even_split, \
    partition_bytes, partition_records, partition_text_file


def test_even_split_tiles_range():
    bounds = even_split(103, 4)
    assert bounds[0][0] == 0
    assert bounds[-1][1] == 103
    sizes = [e - s for s, e in bounds]
    assert max(sizes) - min(sizes) <= 1
    for (_, a_end), (b_start, _) in zip(bounds, bounds[1:]):
        assert a_end == b_start


def test_even_split_more_parts_than_bytes():
    bounds = even_split(2, 5)
    assert len(bounds) == 5
    assert sum(e - s for s, e in bounds) == 2


def test_even_split_validation():
    with pytest.raises(PartitionError):
        even_split(10, 0)
    with pytest.raises(PartitionError):
        even_split(-1, 2)


def check_invariants(data: bytes, partitions: list[Partition]):
    """The three Algorithm-1 invariants from the paper."""
    # 1. Partitions tile [0, len(data)) without gaps or overlap.
    assert partitions[0].start == 0 or partitions[0].length == 0
    assert partitions[-1].end == len(data)
    for a, b in zip(partitions, partitions[1:]):
        assert a.end == b.start
    # 2. Every non-empty partition's start is a record boundary.
    for p in partitions:
        if p.length and p.start > 0:
            assert data[p.start - 1:p.start] == b"\n"
    # 3. Reassembling the partitions gives the original bytes.
    assert b"".join(data[p.start:p.end] for p in partitions) == data


def test_partition_bytes_simple():
    data = b"".join(b"line%04d\n" % i for i in range(100))
    for nparts in (1, 2, 3, 7, 16):
        parts = partition_bytes(data, nparts)
        check_invariants(data, parts)
        # Each partition holds whole lines.
        for p in parts:
            chunk = data[p.start:p.end]
            if chunk:
                assert chunk.endswith(b"\n")


def test_partition_boundary_exactly_on_newline():
    # 4 lines x 5 bytes = 20 bytes; 4 parts of 5 put every tentative
    # boundary exactly at a line start.  Algorithm 1 still scans forward,
    # shifting one record back to the previous rank (paper's behaviour).
    data = b"aaaa\nbbbb\ncccc\ndddd\n"
    parts = partition_bytes(data, 4)
    check_invariants(data, parts)
    assert data[parts[0].start:parts[0].end] == b"aaaa\nbbbb\n"


def test_partition_without_any_newline():
    data = b"x" * 50
    parts = partition_bytes(data, 4)
    check_invariants(data, parts)
    # All content collapses into rank 0 (no breaker to adjust on).
    assert parts[0].length == 50
    assert all(p.length == 0 for p in parts[1:])


def test_partition_one_giant_line_then_small():
    data = b"y" * 40 + b"\n" + b"z\n"
    parts = partition_bytes(data, 4)
    check_invariants(data, parts)


def test_partition_empty_input():
    parts = partition_bytes(b"", 3)
    assert all(p.length == 0 for p in parts)


def test_partition_small_probe_size():
    # Probe smaller than the line length forces multiple probe reads.
    data = b"".join(b"%d" % (i % 10) * 50 + b"\n" for i in range(20))
    parts = partition_bytes(data, 3, probe_size=7)
    check_invariants(data, parts)


def test_partition_text_file_matches_bytes(tmp_path):
    data = b"".join(b"row%05d\twith\tfields\n" % i for i in range(500))
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    for nparts in (1, 3, 8):
        from_file = partition_text_file(path, nparts)
        from_bytes = partition_bytes(data, nparts)
        assert from_file == from_bytes


def test_partition_records_is_even_split():
    assert partition_records(10, 3) == even_split(10, 3)


_texts = st.lists(
    st.binary(min_size=0, max_size=30).filter(lambda b: b"\n" not in b),
    min_size=0, max_size=60,
).map(lambda lines: b"".join(l + b"\n" for l in lines))


@given(_texts, st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=120)
def test_algorithm1_invariants_property(data, nparts, probe):
    parts = partition_bytes(data, nparts, probe_size=probe)
    check_invariants(data, parts)


@given(_texts, st.integers(min_value=1, max_value=12))
@settings(max_examples=60)
def test_no_record_split_property(data, nparts):
    """Every line of the input appears in exactly one partition."""
    parts = partition_bytes(data, nparts)
    all_lines = data.split(b"\n")[:-1] if data else []
    recovered = []
    for p in parts:
        chunk = data[p.start:p.end]
        if chunk:
            recovered.extend(chunk.split(b"\n")[:-1])
    assert recovered == all_lines
