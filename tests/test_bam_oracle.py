"""BAM output read back by a decoder that shares no code with the
writer (:mod:`tests.bamspec`, from the SAM specification alone): the
header, the reference list and every field of every record must spell
the SAM text the records came from — through stores, from SAM text,
sharded on pool processes, and sorted."""

import pytest

from repro.cli import main
from repro.core import BamConverter, SamConverter
from repro.formats.bam import write_bam
from repro.formats.sam import read_sam, write_sam
from tests.bamspec import read_bam

#: Records the simulator never writes: no SEQ (mapped and not), array,
#: hex and character tags, a soft clip and an insertion without QUAL.
EXTRA = ("noseq\t0\tchr1\t100\t30\t5M\t*\t0\t0\t*\t*\tNM:i:0\n"
         "noseq2\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*\n"
         "arrays\t0\tchr2\t200\t60\t4M\t*\t0\t0\tACGT\tIIII\t"
         "XB:B:s,-3,0,700\tXC:B:C,1,2,255\tXI:B:i,-70000,5\tXA:A:q\t"
         "XH:H:1AE3\n"
         "clipped\t16\tchr1\t300\t60\t2S4M1I3M\t=\t400\t110\tACGTNACGTN\t*"
         "\tXZ:Z:hello world\n")


@pytest.fixture(scope="module")
def data(workload, tmp_path_factory):
    """``(sam path, bam path, header text, @SQ, alignment lines)``."""
    root = tmp_path_factory.mktemp("oracle")
    _, header, records = workload
    sam = root / "in.sam"
    write_sam(sam, header, records)
    with open(sam, "a", encoding="ascii") as fh:
        fh.write(EXTRA)
    header, records = read_sam(sam)
    bam = root / "in.bam"
    write_bam(bam, header, records)
    with open(sam, encoding="ascii") as fh:
        lines = [line.rstrip("\n") for line in fh if line[0] != "@"]
    return (str(sam), str(bam), header.to_text(),
            [(r.name, r.length) for r in header.references], lines)


def _check(path, data, text=None, lines=None):
    _, _, want_text, want_refs, want_lines = data
    got_text, got_refs, got_lines = read_bam(path)
    assert got_text == (text or want_text)
    assert got_refs == want_refs
    assert got_lines == (lines or want_lines)


def test_the_input_reads_back(data):
    _check(data[1], data)


@pytest.mark.parametrize("store", ["bamx", "bamz", "bamc"])
def test_a_store_converts_to_the_records_it_holds(tmp_path, data, store):
    converter = BamConverter(store_format="bamc" if store == "bamc"
                             else "bamx", batch_size=100)
    path, _, _ = converter.preprocess(data[1], tmp_path / "w",
                                      compress=store == "bamz")
    (out,) = converter.convert(path, "bam", tmp_path / "o").outputs
    _check(out, data)


def test_sam_text_converts_to_its_records(tmp_path, data):
    (out,) = SamConverter(batch_size=100).convert(
        data[0], "bam", tmp_path / "o").outputs
    _check(out, data)


@pytest.mark.parametrize("source", ["sam", "store"])
def test_three_shards_on_pool_processes_join_whole(tmp_path, data, source):
    path = data[0] if source == "sam" else \
        BamConverter().preprocess(data[1], tmp_path / "w")[0]
    converter = (SamConverter if source == "sam" else BamConverter)(
        shards_per_rank=3, batch_size=50)
    (out,) = converter.convert(path, "bam", tmp_path / "o",
                               executor="process").outputs
    _check(out, data)


@pytest.mark.parametrize("nprocs", ["1", "2"])
def test_repro_sort_writes_the_stable_coordinate_order(tmp_path, data,
                                                       nprocs):
    """The records reversed, then sorted: placed ones by (reference,
    position), ties in input order, the unplaced after them."""
    header, records = read_sam(data[0])
    unsorted = tmp_path / "u.bam"
    write_bam(unsorted, header, records[::-1])
    refs = [name for name, _ in data[3]]

    def key(line):
        cols = line.split("\t")
        if cols[2] in refs and int(cols[3]) > 0:
            return refs.index(cols[2]), int(cols[3])
        return len(refs), 0
    out = tmp_path / "sorted.bam"
    assert main(["sort", str(unsorted), "--output", str(out),
                 "--nprocs", nprocs, "--chunk-records", "150",
                 "--executor", "thread"]) == 0
    _check(out, data, header.with_sort_order("coordinate").to_text(),
           sorted(data[4][::-1], key=key))
