"""Statistical analysis module: coverage histograms, NL-means denoising,
and FDR threshold computation — sequential references, vectorized
kernels, and the paper's parallelizations."""

from .fdr import FdrResult, fdr_parallel, fdr_reference, fdr_sorted, \
    fdr_vectorized
from .histogram import bedgraph_to_histogram, bin_coverage, \
    coverage_depth, histogram_from_records, histogram_from_store, \
    histogram_parallel, histogram_to_bedgraph
from .nlmeans import nlmeans, nlmeans_core, nlmeans_reference
from .nlmeans_parallel import halo_partition, nlmeans_parallel
from .peaks import Peak, PeakCallResult, call_peaks, empirical_pvalues, \
    regions_from_mask

__all__ = [
    "coverage_depth", "bin_coverage", "histogram_from_records",
    "histogram_from_store",
    "histogram_to_bedgraph", "bedgraph_to_histogram",
    "histogram_parallel",
    "nlmeans", "nlmeans_core", "nlmeans_reference",
    "halo_partition", "nlmeans_parallel",
    "FdrResult", "fdr_reference", "fdr_vectorized", "fdr_sorted",
    "fdr_parallel",
    "Peak", "PeakCallResult", "call_peaks", "empirical_pvalues",
    "regions_from_mask",
]
