"""repro: parallel NGS sequence-data format conversion and statistical
analysis.

A from-scratch Python reproduction of "Removing Sequential Bottlenecks
in Analysis of Next-Generation Sequencing Data" (Wang, Ozer, Agrawal,
Huang — IPDPS workshops 2014): three parallel converter instances (SAM,
BAM, preprocessing-optimized SAM) over the paper's BAMX/BAIX random-
access formats, partial (region) conversion, and parallelized NL-means
denoising and FDR computation, together with every substrate they need
(SAM/BAM/BGZF/BAI codecs, a rank-parallel runtime, a read simulator and
aligner, and a Picard-like sequential baseline).

Quick start::

    from repro import simdata, core
    wl = simdata.build_sam_dataset("sample.sam", n_templates=1000)
    result = core.SamConverter().convert("sample.sam", "bed", "out/",
                                         nprocs=4)

Subpackages are imported on first use (PEP 562), so a service client
verb does not pay for numpy and the converter stack.
"""

import importlib

from .errors import ReproError

__version__ = "1.0.0"

__all__ = ["formats", "runtime", "core", "stats", "simdata", "baselines",
           "tools", "ReproError", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
