"""Region queries: a selection that is one ascending run reads as record
ranges, a scattered one as picks, and strand is handled once per slab.

The contracts: whichever path the plan takes, every store x target x
rank count x mode x window x filter gives the bytes of the explicit-pick
path and of the ``pipeline="record"`` oracle over indices this file
computes from the records themselves; the run check is a check (an
unsorted store, out-of-order regions keep first-seen order); and the
FASTA/FASTQ kernels equal ``reverse_complement`` + ``[::-1]`` per record.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BamConverter, parse_filter_expr
from repro.core import bam_converter
from repro.core.bam_converter import StoreCut, convert_rank
from repro.core.base import PartSpec
from repro.core.targets import get_target
from repro.formats.bam import write_bam
from repro.formats.bamc import slab_from_records
from repro.formats.flags import mate_number
from repro.formats.header import SamHeader
from repro.formats.kernels import kernel_emitter_for
from repro.formats.record import UNMAPPED_POS, AlignmentRecord
from repro.formats.seq import reverse_complement
from repro.formats.tags import Tag
from repro.runtime.partition import partition_records

CHROMS = (("chr1", 400_000, 4_000), ("chr2", 70_000, 700))
HDR = SamHeader.from_references([(n, length) for n, length, _ in CHROMS],
                                sort_order="coordinate")
#: Nothing starts in [100 000, 101 000) of chr1.
GAP = (100_000, 101_000)
STORES = {"bamx": {}, "bamc": {}, "bamz": {"compress": True}}
TARGETS = ("bed", "bedgraph", "fasta", "fastq", "sam", "json")
FILTERS = {"all": None, "q30": parse_filter_expr("q=30,mapped,primary")}
#: Strand, both mate bits, neither, secondary, supplementary, duplicate,
#: unmapped-but-placed.
FLAGS = (0, 16, 99, 147, 83, 163, 0x41 | 0x80, 0x51 | 0x80, 256, 272,
         2048, 1024, 4 | 1 | 64, 16 | 4)


def _record(rng, i, chrom, pos):
    n = int(rng.integers(0, 61))        # odd lengths, and no SEQ at all
    seq = "".join(rng.choice(list("ACGTN"), n)) or "*"
    qual = "*" if not n or rng.random() < 0.15 else "".join(
        chr(c) for c in rng.integers(33, 74, n))
    if n > 8 and rng.random() < 0.3:
        cigar = [(3, "S"), (n - 7, "M"), (2, "D"), (4, "M")]
    else:
        cigar = [(n or 25, "M")]
    placed = chrom != "*"
    return AlignmentRecord(
        f"r{i}", int(rng.choice(FLAGS)) if placed else 4, chrom, pos,
        int(rng.integers(0, 61)), cigar if placed else [],
        "=" if placed and rng.random() < 0.7 else "*",
        int(rng.integers(0, 60_000)) if placed else UNMAPPED_POS,
        int(rng.integers(-500, 500)), seq, qual,
        [Tag("NM", "i", int(rng.integers(0, 5)))] if i % 3 else [])


def _records():
    """Coordinate-sorted: 4 000 on chr1, 700 on chr2 — so the 4 096-
    record slab boundary falls inside chr2 — and 12 unplaced."""
    rng = np.random.default_rng(23)
    out = []
    for chrom, length, n in CHROMS:
        pos = np.sort(rng.integers(0, length - 100, n))
        pos = pos[(pos < GAP[0]) | (pos >= GAP[1])]
        out += [_record(rng, len(out) + k, chrom, int(p))
                for k, p in enumerate(pos)]
    return out + [_record(rng, len(out) + k, "*", UNMAPPED_POS)
                  for k in range(12)]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """``(records, {kind: store path})``; store index == list index."""
    work = tmp_path_factory.mktemp("region-paths")
    records = _records()
    write_bam(work / "reads.bam", HDR, records)
    return records, {
        kind: BamConverter(
            store_format="bamc" if kind == "bamc" else "bamx").preprocess(
                work / "reads.bam", work / kind, **kwargs)[0]
        for kind, kwargs in STORES.items()}


def _windows(records):
    """``name -> (chrom, start, end)``, 0-based half-open."""
    chr1 = sum(r.rname == "chr1" for r in records)
    assert chr1 < 4096 < chr1 + 600
    edge = records[4096].pos            # first record of the second slab
    lone = next(r.pos for a, r, b in zip(records, records[1:], records[2:])
                if r.rname == "chr1" and a.pos < r.pos < b.pos)
    # (Reads are under 100 bases: none reaches this far into the gap.)
    return {"empty": ("chr1", GAP[0] + 100, GAP[1]),
            "one": ("chr1", lone, lone + 1),
            "inside": ("chr1", 200_000, 230_000),
            "straddle": ("chr2", records[4096 - 70].pos, edge + 6_000),
            "whole": ("chr2", 0, 70_000),
            "clipped": ("chr2", 64_000, 70_000)}


def _region_text(name, window):
    chrom, start, end = window
    if name == "whole":
        return chrom
    # Past the reference end: parse() clips it.
    return f"{chrom}:{start + 1}-{end + (10_000 if name == 'clipped' else 0)}"


def _selected(records, window, mode):
    """The store indices a query must select, from the records alone."""
    chrom, start, end = window
    return [i for i, r in enumerate(records) if r.rname == chrom and (
        start <= r.pos < end if mode == "start"
        else r.pos < end and r.end > start)]


#: The record pipeline over explicit picks, computed once per case.
ORACLE = {}


def _parts(result):
    return [open(path, "rb").read() for path in result.outputs]


def _pick_parts(store, indices, target, record_filter, nprocs, pipeline,
                out_dir):
    """The explicit-pick path, rank by rank."""
    out_dir.mkdir(parents=True, exist_ok=True)
    parts = []
    for rank, (a, b) in enumerate(partition_records(len(indices), nprocs)):
        out = out_dir / f"pick{rank}"
        convert_rank(PartSpec(
            StoreCut(store, picks=np.array(indices[a:b], np.int64)), target,
            str(out), record_filter or bam_converter.ACCEPT_ALL,
            pipeline=pipeline))
        parts.append(out.read_bytes())
    return parts


@pytest.mark.parametrize("mode", ["start", "overlap"])
@pytest.mark.parametrize("kind", list(STORES))
def test_every_path_gives_the_oracles_bytes(data, tmp_path, kind, mode):
    records, stores = data
    store = stores[kind]
    converter = BamConverter()
    for name, window in _windows(records).items():
        indices = _selected(records, window, mode)
        assert (name == "empty") == (not indices)
        if name == "one" and mode == "start":
            assert len(indices) == 1
        if name == "straddle":
            assert indices[0] < 4096 <= indices[-1]
        for target in TARGETS:
            for tag, record_filter in FILTERS.items():
                for nprocs in (1, 2, 3):
                    case = (name, target, tag, nprocs)
                    got = converter.convert_region(
                        store, None, _region_text(name, window), target,
                        tmp_path / "got", nprocs=nprocs, mode=mode,
                        record_filter=record_filter)
                    if (mode, *case) not in ORACLE:     # any store's
                        ORACLE[mode, *case] = _pick_parts(
                            stores["bamx"], indices, target, record_filter,
                            nprocs, "record", tmp_path / "oracle")
                    want = ORACLE[mode, *case]
                    assert _parts(got) == want, case
                    assert _pick_parts(
                        store, indices, target, record_filter, nprocs,
                        "batch", tmp_path / "pick") == want, case
                    assert got.records == sum(
                        1 for i in indices if record_filter is None
                        or record_filter.matches(records[i])), case


@pytest.fixture()
def planned(monkeypatch):
    """The specs the plan hands the rank task, as they run."""
    seen = []

    def task(spec):
        seen.append(spec)
        return convert_rank(spec)
    task.__name__ = convert_rank.__name__
    monkeypatch.setattr(bam_converter, "convert_rank", task)
    return seen


def test_a_run_reads_as_ranges_and_the_rest_as_picks(data, tmp_path, planned):
    records, stores = data
    converter = BamConverter()
    for kind, store in stores.items():
        del planned[:]
        got = converter.convert_region(store, None, "chr2:30001-40000",
                                       "bed", tmp_path / kind, nprocs=3)
        indices = _selected(records, ("chr2", 30_000, 40_000), "start")
        assert [s.open.picks is None for s in planned] == [True] * 3
        assert [(s.open.start, s.open.stop) for s in planned] == [
            (indices[0] + a, indices[0] + b)
            for a, b in partition_records(len(indices), 3)]
        assert got.records == len(indices)
        # Overlap mode drops the candidates that end before the window
        # (here a read nested in its predecessor, which reaches in): the
        # survivors are not one run, and nobody pretends they are.
        start = next(b.end for a, b in zip(records, records[1:])
                     if a.rname == b.rname == "chr1" and a.end > b.end)
        indices = _selected(records, ("chr1", start, start + 300), "overlap")
        assert np.any(np.diff(indices) != 1)
        del planned[:]
        converter.convert_region(store, None, f"chr1:{start + 1}-{start + 300}",
                                 "bed", tmp_path / kind, mode="overlap")
        assert [s.open.picks.tolist() for s in planned] == [indices]


def test_unsorted_store_takes_the_pick_path(tmp_path, planned):
    """Template order: the BAIX is sorted, the records it names are
    not, so a window's indices are no run."""
    rng = np.random.default_rng(5)
    records = [r for r in _records() if r.rname == "chr2"]
    records = [records[i] for i in rng.permutation(len(records))]
    write_bam(tmp_path / "u.bam", HDR, records)
    for fmt in ("bamx", "bamc"):
        store = BamConverter(store_format=fmt).preprocess(
            tmp_path / "u.bam", tmp_path / fmt)[0]
        del planned[:]
        for target in ("bed", "fastq"):
            got = BamConverter().convert_region(
                store, None, "chr2:10001-30000", target, tmp_path / "o",
                nprocs=2)
            indices = sorted(
                _selected(records, ("chr2", 10_000, 30_000), "start"),
                key=lambda i: (records[i].pos, i))
            assert _parts(got) == _pick_parts(
                store, indices, target, None, 2, "record", tmp_path / "w")
        assert {s.open.picks is None for s in planned} == {False}


@pytest.mark.parametrize("regions, is_run", [
    (["chr1:1-50000", "chr1:40001-90000"], True),       # overlapping
    (["chr1:1-20000", "chr2:1-9000"], False),           # disjoint
    (["chr2:1-9000", "chr1:40001-90000", "chr1:1-50000"], False),
    (["chr1:20001-30000", "chr1:10001-20000", "chr1:20001-30000"], False)])
def test_regions_keep_first_seen_order(data, tmp_path, planned, regions,
                                       is_run):
    records, stores = data
    indices = []
    for text in regions:
        chrom, _, span = text.partition(":")
        start, end = span.split("-")
        indices += _selected(records, (chrom, int(start) - 1, int(end)),
                             "start")
    indices = list(dict.fromkeys(indices))
    for kind, store in stores.items():
        del planned[:]
        for target in ("sam", "fastq"):
            got = BamConverter().convert_regions(
                store, None, regions, target, tmp_path / "got", nprocs=2)
            assert _parts(got) == _pick_parts(
                stores["bamx"], indices, target, None, 2, "record",
                tmp_path / "want"), (kind, target)
        assert {s.open.picks is None for s in planned} == {is_run}


def test_first_seen_is_a_stable_dedupe():
    first_seen = bam_converter._first_seen
    rng = np.random.default_rng(2)
    for size in (0, 1, 2, 50):
        found = rng.integers(0, 12, size)
        assert first_seen(found).tolist() == list(dict.fromkeys(
            found.tolist()))
    run = np.arange(5, 40)
    assert first_seen(run) is run


# -- strand, once per slab -------------------------------------------------

@st.composite
def _reads(draw):
    n = draw(st.integers(0, 33))
    return AlignmentRecord(
        draw(st.from_regex(r"[!-?A-~]{1,12}", fullmatch=True)),
        draw(st.integers(0, 0xFFF)), "chr1", draw(st.integers(0, 1000)),
        draw(st.integers(0, 60)), [], "*", -1, 0,
        draw(st.text(alphabet="ACGTNRYKMSWBDHV=", min_size=n, max_size=n))
        or "*",
        "*" if not n or draw(st.booleans()) else draw(st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=n, max_size=n)))


def _fastx_reference(record, target):
    """The per-record rule the kernels replace."""
    if record.seq == "*" or (target == "fastq" and record.flag & 0x900):
        return None
    seq, qual = record.seq, record.qual
    if qual == "*":
        qual = "!" * len(seq)
    elif record.flag & 0x10:
        qual = qual[::-1]
    if record.flag & 0x10:
        seq = reverse_complement(seq)
    name = record.qname + ("", "/1", "/2")[mate_number(record.flag)]
    return f">{name}\n{seq}" if target == "fasta" \
        else f"@{name}\n{seq}\n+\n{qual}"


@given(st.lists(_reads(), min_size=1, max_size=12), st.randoms())
@settings(max_examples=250, deadline=None)
def test_strand_per_slab_equals_strand_per_record(batch, random):
    """Flag, length (odd, zero) and absent QUAL drawn freely; the slab
    whole, windowed and gathered out of order."""
    slab = slab_from_records(batch, HDR)
    order = list(range(len(batch)))
    random.shuffle(order)
    a = random.randrange(len(batch))
    views = ((slab, batch),
             (slab.window(a, len(batch), -1), batch[a:]),
             (slab.take(np.array(order)), [batch[i] for i in order]))
    for target in ("fasta", "fastq"):
        emit = kernel_emitter_for(get_target(target), HDR)
        for view, reads in views:
            want = [line for r in reads
                    if (line := _fastx_reference(r, target)) is not None]
            lines, seen = emit(view, None)
            assert (lines, seen) == (want, len(reads))
