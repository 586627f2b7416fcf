"""Target-format plugins: the paper's "user program" layer.

A converter's runtime hands each parsed alignment object to a
:class:`TargetFormat`, which turns it into a target object (one output
line, or a binary record).  Adding a new output format means writing one
small plugin class and registering it — exactly the extensibility story
of §III-A: "all the user has to do is to implement a format conversion
function".

All plugins are stateless with respect to records, so any record
subset/order can be converted independently on any rank.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..errors import ConversionError
from ..formats.header import SamHeader
from ..formats.record import UNMAPPED_POS, AlignmentRecord


class TargetFormat(ABC):
    """One output format: record -> target object (text line)."""

    #: Canonical format name (registry key).
    name: str
    #: Output file extension including the dot.
    extension: str
    #: "text" targets emit str lines; "binary" targets emit bytes.
    mode: str = "text"

    def file_header(self, header: SamHeader) -> str:
        """Text (bytes, for a binary target) to place at the top of each
        output file ("" if none)."""
        return ""

    @abstractmethod
    def emit(self, record: AlignmentRecord) -> str | None:
        """Convert one alignment; None skips the record (e.g. unmapped
        records for interval formats)."""


class SamTarget(TargetFormat):
    """Identity conversion back to SAM text."""

    name = "sam"
    extension = ".sam"

    def __init__(self) -> None:
        from ..formats.sam import format_alignment
        self._format = format_alignment

    def file_header(self, header: SamHeader) -> str:
        return header.to_text()

    def emit(self, record: AlignmentRecord) -> str | None:
        return self._format(record)


class BedTarget(TargetFormat):
    """One BED6 feature per mapped alignment.

    name = read name, score = MAPQ (clamped to BED's 0-1000), strand
    from the reverse flag.  Unmapped records produce no feature.
    """

    name = "bed"
    extension = ".bed"

    def emit(self, record: AlignmentRecord) -> str | None:
        if not record.is_mapped or record.pos == UNMAPPED_POS:
            return None
        score = min(record.mapq, 1000)
        strand = "-" if record.is_reverse else "+"
        return (f"{record.rname}\t{record.pos}\t{record.end}"
                f"\t{record.qname}\t{score}\t{strand}")


class BedGraphTarget(TargetFormat):
    """One scored interval per mapped alignment (depth contribution 1).

    The record-wise converter emits each read's footprint with value 1;
    summing overlapping intervals downstream yields the coverage
    histogram (:mod:`repro.stats.histogram` computes binned coverage
    directly when that is the goal).
    """

    name = "bedgraph"
    extension = ".bedgraph"

    def emit(self, record: AlignmentRecord) -> str | None:
        if not record.is_mapped or record.pos == UNMAPPED_POS:
            return None
        return f"{record.rname}\t{record.pos}\t{record.end}\t1"


class FastaTarget(TargetFormat):
    """Read sequences in original (instrument) orientation."""

    name = "fasta"
    extension = ".fasta"

    def emit(self, record: AlignmentRecord) -> str | None:
        seq = record.original_sequence()
        if seq == "*":
            return None
        mate = record.mate_number
        suffix = f"/{mate}" if mate else ""
        return f">{record.qname}{suffix}\n{seq}"


class FastqTarget(TargetFormat):
    """Reads plus qualities in original orientation (Picard SamToFastq
    semantics: secondary/supplementary lines are skipped so each read
    appears once)."""

    name = "fastq"
    extension = ".fastq"

    def emit(self, record: AlignmentRecord) -> str | None:
        from ..formats import flags as _flags
        if not _flags.is_primary(record.flag):
            return None
        seq = record.original_sequence()
        if seq == "*":
            return None
        qual = record.original_qualities()
        if qual == "*":
            qual = "!" * len(seq)
        mate = record.mate_number
        suffix = f"/{mate}" if mate else ""
        return f"@{record.qname}{suffix}\n{seq}\n+\n{qual}"


class GffTarget(TargetFormat):
    """One GFF3 ``read_alignment`` feature per mapped record."""

    name = "gff"
    extension = ".gff3"

    def __init__(self) -> None:
        from ..formats.gff import GffFeature, format_feature
        self._feature, self._format = GffFeature, format_feature

    def file_header(self, header: SamHeader) -> str:
        return "##gff-version 3\n"

    def emit(self, record: AlignmentRecord) -> str | None:
        if not record.is_mapped or record.pos == UNMAPPED_POS:
            return None
        attributes = {"ID": record.qname}
        nm = record.get_tag("NM")
        if nm is not None:
            attributes["nm"] = str(nm.value)
        feature = self._feature(
            seqid=record.rname, source="repro", type="read_alignment",
            start=record.pos, end=record.end,
            score=float(record.mapq),
            strand="-" if record.is_reverse else "+",
            attributes=attributes)
        return self._format(feature)


class JsonTarget(TargetFormat):
    """JSON-Lines alignment objects."""

    name = "json"
    extension = ".jsonl"

    def __init__(self) -> None:
        from ..formats.json_fmt import format_record
        self._format = format_record

    def emit(self, record: AlignmentRecord) -> str | None:
        return self._format(record)


class YamlTarget(TargetFormat):
    """Multi-document YAML alignment objects."""

    name = "yaml"
    extension = ".yaml"

    def __init__(self) -> None:
        from ..formats.yaml_fmt import format_record
        self._format = format_record

    def emit(self, record: AlignmentRecord) -> str | None:
        # format_record ends with a newline already; strip the final one
        # because the writer appends it back per line protocol.
        return self._format(record).rstrip("\n")


class BamTarget(TargetFormat):
    """Binary BAM records, written into BGZF blocks: the header block
    is the file header, a slab of records the BAM emitter's
    (:mod:`~repro.formats.kernels`), a record the slow path's."""

    name = "bam"
    extension = ".bam"
    mode = "binary"

    def __init__(self) -> None:
        from ..formats.bam import encode_record, header_bytes
        self._encode, self._header_bytes = encode_record, header_bytes
        self._header: SamHeader | None = None

    def file_header(self, header: SamHeader) -> bytes:
        """The BAM header block; *header* also resolves the reference
        ids of every record :meth:`emit` encodes after it."""
        self.bind_header(header)
        return self._header_bytes(header)

    def bind_header(self, header: SamHeader) -> None:
        """Attach the header needed to resolve reference ids."""
        self._header = header

    def emit(self, record: AlignmentRecord) -> bytes:
        """Encode one record to BAM bytes."""
        if self._header is None:
            raise ConversionError("BamTarget used before bind_header()")
        return self._encode(record, self._header)

    emit_binary = emit


_TARGETS: dict[str, type[TargetFormat]] = {
    cls.name: cls for cls in (
        SamTarget, BedTarget, BedGraphTarget, FastaTarget, FastqTarget,
        GffTarget, JsonTarget, YamlTarget, BamTarget)
}


def get_target(name: str) -> TargetFormat:
    """Instantiate the target plugin registered under *name*."""
    try:
        return _TARGETS[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(_TARGETS))
        raise ConversionError(
            f"unknown target format {name!r}; known: {known}") from None


def register_target(cls: type[TargetFormat]) -> type[TargetFormat]:
    """Register a user-written plugin (usable as a class decorator)."""
    if not getattr(cls, "name", None):
        raise ConversionError("target plugin must define a name")
    _TARGETS[cls.name] = cls
    return cls


def target_names() -> list[str]:
    """Sorted list of registered target format names."""
    return sorted(_TARGETS)
