"""The paper's core contribution: the three parallel format-converter
instances, partial (region) conversion, and the target-plugin API.
Exports resolve on first use (PEP 562)."""

from .._lazy import lazy_exports
from ..formats.record import AlignmentRecord

__all__, __getattr__ = lazy_exports(globals(), {
    "base": ("EXECUTORS", "ConversionResult"),
    "bam_converter": ("BamConverter", "PreprocArtifacts",
                      "convert_bam_direct", "preprocess_bam"),
    "dataset": ("AlignmentDataset", "RecordStoreHandle"),
    "filters": ("ACCEPT_ALL", "RecordFilter", "parse_filter_expr"),
    "region": ("GenomicRegion",),
    "sam_converter": ("SamConverter", "convert_sam", "scan_header"),
    "sort": ("SortResult", "parallel_sort_sam", "sort_bam", "sort_file",
             "sort_sam"),
    "samp_converter": ("PreprocSamConverter",),
    "targets": ("TargetFormat", "get_target", "register_target",
                "target_names"),
})
__all__.append("AlignmentRecord")
