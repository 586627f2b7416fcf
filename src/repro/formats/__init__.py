"""Sequence data format substrate: SAM, BAM, BGZF, BAI, BAMX, BAIX,
BED, BEDGRAPH, FASTA, FASTQ, WIG, JSON, YAML.

Every reader produces the canonical
:class:`~repro.formats.record.AlignmentRecord`; every writer and target
plugin consumes it.  Exports resolve on first use (PEP 562).
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "bai": ("BaiIndex",),
    "baix": ("BaixIndex",),
    "bam": ("BamReader", "BamWriter", "read_bam", "write_bam"),
    "bamc": ("BamcReader", "BamcWriter", "ColumnSlab", "read_bamc",
             "write_bamc"),
    "bamx": ("BamxLayout", "BamxReader", "BamxWriter", "plan_layout",
             "read_bamx", "write_bamx"),
    "bamz": ("BamzReader", "BamzWriter", "read_bamz", "write_bamz"),
    "bed": ("BedInterval", "read_bed", "write_bed"),
    "bedgraph": ("BedGraphInterval", "compress_runs", "read_bedgraph",
                 "write_bedgraph"),
    "bgzf": ("BgzfReader", "BgzfWriter"),
    "binning": ("reg2bin", "reg2bins"),
    "fasta": ("FastaIndex", "FastaRecord", "read_fasta", "write_fasta"),
    "fastq": ("FastqRecord", "read_fastq", "write_fastq"),
    "header": ("HeaderLine", "Reference", "SamHeader"),
    "record": ("UNMAPPED_POS", "AlignmentRecord"),
    "registry": ("SOURCE_FORMATS", "STORE_KINDS", "TARGET_FORMATS",
                 "detect_format", "get_format", "list_formats",
                 "source_kind"),
    "sam": ("SamReader", "SamWriter", "format_alignment",
            "parse_alignment", "read_sam", "write_sam"),
    "store": ("open_record_store",),
    "tags": ("Tag",),
})
