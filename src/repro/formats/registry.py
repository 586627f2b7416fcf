"""Format registry: canonical names, extensions, and capability lookup.

The converter CLI and the target-plugin machinery resolve user-facing
format names ("sam", "bed", ...) through this table.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

from ..errors import ConversionError


@dataclass(frozen=True, slots=True)
class FormatInfo:
    """Static description of a supported format."""

    name: str
    extensions: tuple[str, ...]
    binary: bool
    description: str


_FORMATS = {
    info.name: info for info in (
        FormatInfo("sam", (".sam",), False,
                   "Sequence Alignment/Map text format"),
        FormatInfo("bam", (".bam",), True,
                   "Binary Alignment/Map (BGZF-compressed)"),
        FormatInfo("bamx", (".bamx",), True,
                   "BAM eXtended: fixed-record-length random-access binary"),
        FormatInfo("bamz", (".bamz",), True,
                   "BGZF-compressed BAMX with a record-offset index"),
        FormatInfo("bamc", (".bamc",), True,
                   "BAM Columnar: slab-columnar BAMX v2 read through "
                   "vectorized kernels"),
        FormatInfo("bed", (".bed",), False, "Browser Extensible Data"),
        FormatInfo("bedgraph", (".bedgraph", ".bdg"), False,
                   "Scored genome intervals"),
        FormatInfo("fasta", (".fasta", ".fa", ".fna"), False,
                   "Nucleotide sequences"),
        FormatInfo("fastq", (".fastq", ".fq"), False,
                   "Sequences with Phred qualities"),
        FormatInfo("wig", (".wig",), False, "Wiggle numeric track"),
        FormatInfo("gff", (".gff", ".gff3"), False,
                   "Generic Feature Format v3"),
        FormatInfo("json", (".json", ".jsonl"), False,
                   "JSON-Lines alignment objects"),
        FormatInfo("yaml", (".yaml", ".yml"), False,
                   "Multi-document YAML alignment objects"),
    )
}

#: The preprocessed record stores.
STORE_KINDS = ("bamx", "bamz", "bamc")

#: Formats a converter can read alignments from.
SOURCE_FORMATS = ("sam", "bam", *STORE_KINDS)

#: Formats a converter can write (the paper's §I list plus GFF).
TARGET_FORMATS = ("sam", "bam", "bed", "bedgraph", "fasta", "fastq",
                  "gff", "json", "yaml")


def get_format(name: str) -> FormatInfo:
    """Look up a format by canonical name (case-insensitive)."""
    try:
        return _FORMATS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_FORMATS))
        raise ConversionError(
            f"unknown format {name!r}; known formats: {known}") from None


def detect_format(path: str) -> FormatInfo:
    """Guess a format from a file extension."""
    lowered = path.lower()
    for info in _FORMATS.values():
        if any(lowered.endswith(ext) for ext in info.extensions):
            return info
    raise ConversionError(f"cannot detect format of {path!r} from extension")


def source_kind(path: str | os.PathLike[str], reader: str,
                reads: Sequence[str] = SOURCE_FORMATS,
                error: type[Exception] = ConversionError) -> str:
    """The format name of the alignment file *path*, by its extension
    (:func:`detect_format`) — which must be one *reader* (a verb, a job
    kind) *reads*, else one *error* line naming them.  The one answer
    to "what is this path" behind every verb and the service."""
    path = os.fspath(path)
    try:
        kind = detect_format(path).name
    except ConversionError:
        kind = None
    if kind not in reads:
        raise error(f"{reader} reads "
                    f"{', '.join('.' + name for name in reads)}; "
                    f"got {path!r}")
    return kind


def list_formats() -> list[FormatInfo]:
    """All registered formats, sorted by name."""
    return sorted(_FORMATS.values(), key=lambda f: f.name)
