"""Genomic region parsing and validation.

Regions are written the samtools way — ``chr1:1000-2000`` (1-based,
inclusive) — and stored 0-based half-open.  ``chr1`` alone means the
whole reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import RegionError
from ..formats.header import SamHeader

# A number is ASCII digits with thousands commas, one digit at least
# (``\d`` would take any Unicode digit, ``[\d,]+`` a lone comma).
_NUMBER = r"[0-9,]*[0-9][0-9,]*"
_REGION_RE = re.compile(
    rf"^(?P<chrom>[^:]+?)(?::(?P<start>{_NUMBER})(?:-(?P<end>{_NUMBER}))?)?$")


@dataclass(frozen=True, slots=True)
class GenomicRegion:
    """A reference interval, 0-based half-open."""

    chrom: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise RegionError(
                f"invalid region {self.chrom}:{self.start}-{self.end}")

    @property
    def length(self) -> int:
        """Interval length in bases."""
        return self.end - self.start

    def __str__(self) -> str:
        return f"{self.chrom}:{self.start + 1}-{self.end}"

    @classmethod
    def parse(cls, text: str,
              header: SamHeader | None = None) -> "GenomicRegion":
        """Parse a samtools-style region string.

        When *header* is given the chromosome must exist in it and a
        bare chromosome name expands to its full length; without a
        header, a bare name spans the maximum indexable coordinate.
        """
        m = _REGION_RE.match(text.strip())
        if not m:
            raise RegionError(f"cannot parse region {text!r}")
        chrom = m.group("chrom")
        if header is not None and not header.has_reference(chrom):
            raise RegionError(f"unknown reference {chrom!r} in region "
                              f"{text!r}")
        raw_start = m.group("start")
        raw_end = m.group("end")
        if raw_start is None:
            start = 0
            if header is not None:
                end = header.references[header.ref_id(chrom)].length
            else:
                end = (1 << 31) - 1
        else:
            start = int(raw_start.replace(",", "")) - 1
            if start < 0:
                raise RegionError(f"region start must be >= 1 in {text!r}")
            if raw_end is None:
                end = start + 1
            else:
                end = int(raw_end.replace(",", ""))
        if end <= start:
            raise RegionError(f"empty region {text!r}")
        region = cls(chrom, start, end)
        if header is not None:
            ref_len = header.references[header.ref_id(chrom)].length
            if start >= ref_len:
                raise RegionError(
                    f"region {text!r} starts beyond reference length "
                    f"{ref_len}")
            if end > ref_len:
                region = cls(chrom, start, ref_len)
        return region

    def clip(self, length: int) -> "GenomicRegion":
        """Clip the region to ``[0, length)``."""
        return GenomicRegion(self.chrom, min(self.start, length),
                             min(self.end, length))
