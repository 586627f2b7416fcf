"""Unit tests for the target-format plugins (the user-program layer)."""

import pytest

from repro.core.targets import BedGraphTarget, BedTarget, FastaTarget, \
    FastqTarget, JsonTarget, SamTarget, TargetFormat, YamlTarget, \
    get_target, register_target, target_names
from repro.errors import ConversionError
from repro.formats.header import SamHeader
from repro.formats.sam import format_alignment, parse_alignment

HDR = SamHeader.from_references([("chr1", 100_000)])

MAPPED = parse_alignment(
    "r1\t99\tchr1\t101\t60\t8M\t=\t301\t208\tACGTACGT\tIIIIIIII\tNM:i:0")
REVERSE = parse_alignment(
    "r1\t147\tchr1\t301\t60\t8M\t=\t101\t-208\tAACCGGTT\tABCDEFGH")
UNMAPPED = parse_alignment(
    "r2\t77\t*\t0\t0\t*\t*\t0\t0\tACGT\tIIII")
SECONDARY = parse_alignment(
    "r3\t355\tchr1\t501\t0\t4M\t=\t601\t104\tACGT\tIIII")


def test_registry_contains_paper_formats():
    assert {"sam", "bam", "bed", "bedgraph", "fasta", "fastq", "json",
            "yaml"} <= set(target_names())


def test_get_target_unknown():
    with pytest.raises(ConversionError):
        get_target("vcf")


def test_register_custom_target():
    class CsvTarget(TargetFormat):
        name = "csv-test"
        extension = ".csv"

        def emit(self, record):
            return f"{record.qname},{record.pos}"

    register_target(CsvTarget)
    target = get_target("csv-test")
    assert target.emit(MAPPED) == "r1,100"


def test_register_requires_name():
    class Nameless(TargetFormat):
        extension = ".x"

        def emit(self, record):
            return None

    with pytest.raises(ConversionError):
        register_target(Nameless)


def test_sam_target_identity():
    target = SamTarget()
    assert target.emit(MAPPED) == format_alignment(MAPPED)
    assert target.file_header(HDR) == HDR.to_text()


def test_bed_target_mapped():
    line = BedTarget().emit(MAPPED)
    assert line == "chr1\t100\t108\tr1\t60\t+"


def test_bed_target_reverse_strand():
    assert BedTarget().emit(REVERSE).endswith("\t-")


def test_bed_target_skips_unmapped():
    assert BedTarget().emit(UNMAPPED) is None


def test_bedgraph_target():
    assert BedGraphTarget().emit(MAPPED) == "chr1\t100\t108\t1"
    assert BedGraphTarget().emit(UNMAPPED) is None


def test_fasta_target_restores_orientation():
    out = FastaTarget().emit(REVERSE)
    name, seq = out.split("\n")
    from repro.formats.seq import reverse_complement
    assert seq == reverse_complement("AACCGGTT")
    assert name == ">r1/2"


def test_fasta_target_mate_suffix():
    assert FastaTarget().emit(MAPPED).startswith(">r1/1\n")


def test_fastq_target_reverses_quality():
    out = FastqTarget().emit(REVERSE)
    lines = out.split("\n")
    assert lines[0] == "@r1/2"
    assert lines[3] == "HGFEDCBA"


def test_fastq_target_skips_secondary():
    assert FastqTarget().emit(SECONDARY) is None


def test_fastq_target_emits_unmapped_reads():
    # Unmapped reads still carry sequence: SamToFastq keeps them.
    assert FastqTarget().emit(UNMAPPED) is not None


def test_fastq_missing_quality_filled():
    rec = parse_alignment("r\t0\tchr1\t1\t60\t4M\t*\t0\t0\tACGT\t*")
    out = FastqTarget().emit(rec)
    assert out.split("\n")[3] == "!!!!"


def test_json_target_parses_back():
    import json
    from repro.formats.json_fmt import dict_to_record
    line = JsonTarget().emit(MAPPED)
    assert dict_to_record(json.loads(line)) == MAPPED


def test_yaml_target_parses_back():
    from repro.formats.json_fmt import dict_to_record
    from repro.formats.yaml_fmt import load_all
    text = YamlTarget().emit(MAPPED)
    (doc,) = load_all(text)
    assert dict_to_record(doc) == MAPPED


def test_bam_target_requires_header():
    target = get_target("bam")
    with pytest.raises(ConversionError):
        target.emit_binary(MAPPED)
    with pytest.raises(ConversionError):
        target.emit(MAPPED)
    target.bind_header(HDR)
    blob = target.emit_binary(MAPPED)
    from repro.formats.bam import decode_record
    assert decode_record(blob[4:], HDR) == MAPPED
