"""High-level facade: one object for a dataset's whole lifecycle.

:class:`AlignmentDataset` wraps the individual subsystems — format
codecs, sort, indexes, converters, statistics, tools — behind the API a
downstream user reaches for first::

    ds = AlignmentDataset.open("sample.bam")
    ds = ds.sorted("sorted.bam")           # external merge sort
    store = ds.preprocess("work/")         # BAMX/BAIX (+BAIX2)
    store.convert("bed", "out/", nprocs=8)
    store.convert_region("chr1:1-50000", "sam", "out/", nprocs=4)
    print(ds.flagstat().format_report())
    histos = ds.histogram(bin_size=25)

Everything delegates to the underlying modules, so the facade adds no
behaviour of its own — just discoverability.
"""

from __future__ import annotations

import os
from collections.abc import Iterator

import numpy as np

from ..errors import ConversionError
from ..formats.header import SamHeader
from ..formats.record import AlignmentRecord
from .base import ConversionResult, open_records, plan_sources
from .filters import RecordFilter
from .region import GenomicRegion


class AlignmentDataset:
    """A SAM or BAM file on disk, with lifecycle operations."""

    def __init__(self, path: str | os.PathLike[str], kind: str) -> None:
        self.path = os.fspath(path)
        if kind not in ("sam", "bam"):
            raise ConversionError(f"unsupported dataset kind {kind!r}")
        self.kind = kind

    # -- construction ----------------------------------------------------

    @classmethod
    def open(cls, path: str | os.PathLike[str]) -> "AlignmentDataset":
        """Open an existing .sam or .bam file."""
        from ..formats.registry import source_kind
        return cls(path, source_kind(path, "AlignmentDataset.open",
                                     ("sam", "bam")))

    @classmethod
    def simulate(cls, path: str | os.PathLike[str], n_templates: int,
                 chromosomes: list[tuple[str, int]] | None = None,
                 seed: int = 0, sort: bool = True) -> "AlignmentDataset":
        """Create a synthetic dataset at *path* and open it."""
        from ..simdata import build_bam_dataset, build_sam_dataset
        if os.fspath(path).lower().endswith(".bam"):
            build_bam_dataset(path, n_templates, chromosomes, seed, sort)
        else:
            build_sam_dataset(path, n_templates, chromosomes, seed, sort)
        return cls.open(path)

    # -- inspection --------------------------------------------------------

    @property
    def header(self) -> SamHeader:
        """The dataset's SAM header."""
        return plan_sources(self.path, 1, reader="AlignmentDataset")[0]

    def records(self) -> Iterator[AlignmentRecord]:
        """Stream every record (sequential read)."""
        with open_records(self.path, "AlignmentDataset") as (_, records):
            yield from records

    def count(self) -> int:
        """Number of records (full scan)."""
        return sum(1 for _ in self.records())

    def flagstat(self):
        """samtools-flagstat summary (see :mod:`repro.tools.flagstat`)."""
        from ..tools import flagstat
        return flagstat(self.path)

    def validate(self, check_mates: bool = True):
        """Structural validation report (see
        :mod:`repro.tools.validate`)."""
        from ..tools import validate_file
        return validate_file(self.path, check_mates=check_mates)

    def histogram(self, bin_size: int = 25, nprocs: int = 1,
                  ) -> dict[str, np.ndarray]:
        """Binned coverage histograms per reference."""
        from ..stats.histogram import histogram_parallel
        return histogram_parallel(self.path, bin_size, nprocs)[0]

    # -- lifecycle ----------------------------------------------------------

    def sorted(self, out_path: str | os.PathLike[str],
               chunk_records: int = 250_000) -> "AlignmentDataset":
        """Coordinate-sort into *out_path*; returns the new dataset."""
        from .sort import sort_file
        sort_file(self.path, out_path, chunk_records=chunk_records)
        return AlignmentDataset.open(out_path)

    def convert(self, target: str, out_dir: str | os.PathLike[str],
                nprocs: int = 1, executor: str = "simulate",
                record_filter: RecordFilter | None = None,
                work_dir: str | os.PathLike[str] | None = None,
                ) -> ConversionResult:
        """Parallel conversion; BAM input is preprocessed on demand."""
        from .sam_converter import SamConverter
        if self.kind == "sam":
            return SamConverter().convert(self.path, target, out_dir,
                                          nprocs, executor,
                                          record_filter=record_filter)
        store = self.preprocess(work_dir or os.fspath(out_dir))
        return store.convert(target, out_dir, nprocs, executor,
                             record_filter=record_filter)

    def preprocess(self, work_dir: str | os.PathLike[str],
                   compress: bool = False,
                   nprocs: int = 1) -> "RecordStoreHandle":
        """Produce a random-access store (BAMX/BAMZ + indexes).

        BAM input preprocesses sequentially (§III-B); SAM input uses
        the parallel preprocessing of §III-C and returns a handle on
        the *first* part (use :class:`repro.core.PreprocSamConverter`
        directly for full M×N control).
        """
        if self.kind == "bam":
            from .bam_converter import BamConverter
            store_path, baix, _ = BamConverter().preprocess(
                self.path, work_dir, compress=compress)
            return RecordStoreHandle(store_path, baix)
        from .samp_converter import PreprocSamConverter
        paths, _ = PreprocSamConverter().preprocess(self.path, work_dir,
                                                    nprocs)
        from ..formats.store import index_path_for
        return RecordStoreHandle(paths[0], index_path_for(paths[0]))


class RecordStoreHandle:
    """A preprocessed BAMX/BAMZ store plus its indexes."""

    def __init__(self, store_path: str, baix_path: str) -> None:
        self.store_path = store_path
        self.baix_path = baix_path

    def __len__(self) -> int:
        from ..formats.store import open_record_store
        with open_record_store(self.store_path) as reader:
            return len(reader)

    def convert(self, target: str, out_dir: str | os.PathLike[str],
                nprocs: int = 1, executor: str = "simulate",
                record_filter: RecordFilter | None = None,
                ) -> ConversionResult:
        """Parallel full conversion."""
        from .bam_converter import BamConverter
        return BamConverter().convert(self.store_path, target, out_dir,
                                      nprocs, executor,
                                      record_filter=record_filter)

    def convert_region(self, region: GenomicRegion | str, target: str,
                       out_dir: str | os.PathLike[str], nprocs: int = 1,
                       executor: str = "simulate", mode: str = "start",
                       record_filter: RecordFilter | None = None,
                       ) -> ConversionResult:
        """Partial conversion of one region."""
        from .bam_converter import BamConverter
        baix = self.baix_path if mode == "start" else None
        return BamConverter().convert_region(
            self.store_path, baix, region, target, out_dir, nprocs,
            executor, mode=mode, record_filter=record_filter)

    def fetch(self, region: GenomicRegion | str, mode: str = "start",
              ) -> list[AlignmentRecord]:
        """Records of one region, in coordinate order."""
        from ..formats.store import open_record_store, store_meta
        if mode not in ("start", "overlap"):
            raise ConversionError(f"unknown fetch mode {mode!r}")
        _, header, locate = store_meta(
            self.store_path, mode,
            self.baix_path if mode == "start" else None)
        if isinstance(region, str):
            region = GenomicRegion.parse(region, header)
        with open_record_store(self.store_path) as reader:
            return [record for slab in reader.read_column_picks(
                locate(header.ref_id(region.chrom), region.start,
                       region.end).tolist())
                for record in slab.decode_all(header)]
