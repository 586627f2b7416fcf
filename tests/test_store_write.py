"""A store is written one way: ranks encode their source's chunks into
ordered part files (``encode_rank``), one reducer appends the parts
(``join_store_parts``).  SAM text reaches it as column slabs
(``TextSlab.column_slab``), so SAM preprocessing writes the bytes the
record path wrote — store and sidecars — without records."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EXECUTORS, PreprocSamConverter
from repro.core.sam_converter import partition_alignments, scan_header
from repro.formats.baix2 import record_columns
from repro.formats.bamc import slab_from_records, write_bamc
from repro.formats.bamx import write_bamx
from repro.formats.sam import format_alignment, parse_alignment, \
    slab_columns
from repro.formats.store import encode_slab_part, index_path_for, \
    write_indexes
from tests.test_properties_records import HDR
from tests.test_properties_records import records as record_strategy
from tests.test_sam_slab import MIXED, corner


def assert_encodes_as_records(lines, header=HDR):
    """The proven block *lines* BAM-encodes to its records' bytes."""
    slab = slab_columns(("\n".join(lines) + "\n").encode("ascii"))
    assert slab is not None
    columns = slab.column_slab(header)
    assert columns is not None
    oracle = slab_from_records([parse_alignment(line) for line in lines],
                               header)
    for store_format in ("bamx", "bamc"):
        got, need = encode_slab_part(columns, store_format)
        want, want_need = encode_slab_part(oracle, store_format)
        assert need == want_need
        assert bytes(got) == bytes(want), store_format
    for got, want in zip(columns.placed(5), oracle.placed(5)):
        assert got.tolist() == want.tolist()


def test_mixed_lines_encode_as_their_records():
    """Both strands, absent QUAL, ``*`` SEQ, MAPQ 255, unplaced reads,
    mates on either reference, A/H/Z/i tags, lowercase bases."""
    lines = [format_alignment(r) for r in MIXED]
    lines.append(corner(c9="acgN", c10="*", c11="XI:i:-70000\tXU:i:300"))
    lines.append(corner(c5="12345678M1I2D3N4S5H6P7=8X", c9="A",
                        c10="!", c11="XA:A:!\tXH:H:\tXJ:H:0AF9"))
    assert_encodes_as_records(lines)


@given(st.lists(record_strategy(), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_generated_lines_encode_as_their_records(batch):
    assert_encodes_as_records([format_alignment(r) for r in batch])


@pytest.mark.parametrize("line", [
    corner(c2="chrUnknown"),          # a reference missing from @SQ
    corner(c6="chrUnknown"),          # ... as the mate's
    corner(c9="ACGU"),                # a base BAM has no code for
    corner(c3="2147483648"),          # POS past int32
    corner(c4="256"),                 # MAPQ past a byte
    corner(c11="XI:i:4294967296"),    # an integer tag past 32 bits
])
def test_values_without_an_encoding_take_the_record_path(line):
    slab = slab_columns((line + "\n").encode("ascii"))
    assert slab is not None and slab.column_slab(HDR) is None


def _oracle(sam_path, nprocs, store_format, batch_size, out_dir):
    """The rank stores the record path writes: each Algorithm-1
    partition parsed to records, planned, written, indexed."""
    header, header_end = scan_header(sam_path)
    paths = []
    with open(sam_path, "rb") as fh:
        for p in partition_alignments(sam_path, nprocs, header_end):
            fh.seek(p.start)
            records = [parse_alignment(line) for line in
                       fh.read(p.end - p.start).decode().splitlines()]
            path = os.path.join(out_dir, f"rank{p.rank}.{store_format}")
            if store_format == "bamc":
                write_bamc(path, header, records, slab_records=batch_size)
            else:
                write_bamx(path, header, records)
            write_indexes(*record_columns(enumerate(records), header),
                          path)
            paths.append(path)
    return paths


def _bytes(path, mode="start"):
    with open(path, "rb") as fh:
        store = fh.read()
    with open(index_path_for(path, mode), "rb") as fh:
        return store, fh.read()


@pytest.mark.parametrize("store_format", ["bamx", "bamc"])
def test_sam_stores_match_the_record_path(sam_file, tmp_path, store_format):
    """3 store writes x nprocs {1, 2, 3} x executors x slab sizes: every
    rank's store, BAIX and BAIX2 are the record path's bytes, no slab
    falls back, and no part or temporary file is left."""
    for nprocs in (1, 2, 3):
        for batch_size in (7, 4096):
            oracle = _oracle(sam_file, nprocs, store_format, batch_size,
                             tmp_path)
            for executor in EXECUTORS:
                work = tmp_path / f"w{nprocs}{batch_size}{executor}"
                paths, metrics = PreprocSamConverter(
                    read_chunk=1 << 14, batch_size=batch_size,
                    store_format=store_format).preprocess(
                        sam_file, work, nprocs, executor)
                assert len(paths) == len(oracle) == nprocs
                for got, want in zip(paths, oracle):
                    for mode in ("start", "overlap"):
                        assert _bytes(got, mode) == _bytes(want, mode), \
                            (nprocs, batch_size, executor, mode)
                assert sum(m.fallbacks for m in metrics) == 0
                assert len(os.listdir(work)) == 3 * nprocs


def test_a_refused_slab_is_encoded_from_its_records(tmp_path):
    """A block the proof refuses (a leading-zero FLAG) is written from
    its records, counted, to the same bytes the record path writes."""
    lines = [corner(c0=f"r{i}", c3=str(10 + i)) for i in range(9)]
    lines[4] = corner(c0="r4", c1="0099", c3="14")
    path = tmp_path / "c.sam"
    path.write_text(HDR.to_text() + "".join(line + "\n" for line in lines))
    (store,), (metrics,) = PreprocSamConverter(batch_size=4).preprocess(
        path, tmp_path / "w")
    assert metrics.fallbacks == 1 and metrics.records == 9
    oracle = tmp_path / "oracle.bamx"
    records = [parse_alignment(line) for line in lines]
    write_bamx(oracle, HDR, records)
    write_indexes(*record_columns(enumerate(records), HDR), oracle)
    assert _bytes(store) == _bytes(oracle)
