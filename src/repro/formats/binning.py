"""UCSC binning scheme (Kent et al. 2002), as used by BAM/BAI.

The genome is covered by a 6-level hierarchy of bins (1 × 512 Mbp,
8 × 64 Mbp, 64 × 8 Mbp, 512 × 1 Mbp, 4096 × 128 kbp, 32768 × 16 kbp).
:func:`reg2bin` returns the smallest bin fully containing an interval;
:func:`reg2bins` lists every bin that may hold records overlapping it.
Both follow the C reference code in the SAM specification appendix.
"""

from __future__ import annotations

import numpy as np

#: Largest coordinate the 6-level scheme supports (2^29).
MAX_BIN_COORD = 1 << 29

#: Total number of bins in the hierarchy.
BIN_COUNT = 37450  # ((1<<18) - 1) // 7 + 1 == 4681 + 32768 + 1

#: Window size of the BAI linear index (16 kbp).
LINEAR_SHIFT = 14
LINEAR_WINDOW = 1 << LINEAR_SHIFT

#: First bin number of each level, coarsest to finest.
LEVEL_STARTS = (0, 1, 9, 73, 585, 4681)
#: Right-shift that maps a coordinate to a bin offset at each level.
LEVEL_SHIFTS = (29, 26, 23, 20, 17, 14)


def reg2bin(beg: int, end: int) -> int:
    """Smallest bin containing the 0-based half-open interval [beg, end).

    Mirrors the ``reg2bin`` C routine from the SAM spec.  An empty or
    unmapped interval (``beg < 0``) maps to bin 4680, the samtools
    convention for placed-unmapped reads paired via ``pos``.
    """
    if beg < 0:
        return 4680
    end -= 1
    if end < beg:
        end = beg
    if beg >> 14 == end >> 14:
        return ((1 << 15) - 1) // 7 + (beg >> 14)
    if beg >> 17 == end >> 17:
        return ((1 << 12) - 1) // 7 + (beg >> 17)
    if beg >> 20 == end >> 20:
        return ((1 << 9) - 1) // 7 + (beg >> 20)
    if beg >> 23 == end >> 23:
        return ((1 << 6) - 1) // 7 + (beg >> 23)
    if beg >> 26 == end >> 26:
        return ((1 << 3) - 1) // 7 + (beg >> 26)
    return 0


def reg2bin_array(beg: np.ndarray, end: np.ndarray) -> np.ndarray:
    """:func:`reg2bin` of every interval ``[beg[i], end[i])`` at once:
    coarsest level to finest, each level whose window holds both ends
    overwrites the bin, so the finest such level wins."""
    beg = np.asarray(beg, np.int64)
    end = np.maximum(np.asarray(end, np.int64) - 1, beg)
    bins = np.zeros(len(beg), np.int64)
    for start, shift in zip(LEVEL_STARTS[1:], LEVEL_SHIFTS[1:]):
        bins = np.where(beg >> shift == end >> shift, start + (beg >> shift),
                        bins)
    return np.where(beg < 0, 4680, bins)


def reg2bins(beg: int, end: int) -> list[int]:
    """All bins whose records may overlap [beg, end) (0-based half-open).

    Mirrors the ``reg2bins`` C routine from the SAM spec; always includes
    bin 0 and returns bins in increasing order.
    """
    if beg < 0:
        beg = 0
    if end > MAX_BIN_COORD:
        end = MAX_BIN_COORD
    if end <= beg:
        return [0]
    end -= 1
    bins = [0]
    for start, shift in zip(LEVEL_STARTS[1:], LEVEL_SHIFTS[1:]):
        bins.extend(range(start + (beg >> shift), start + (end >> shift) + 1))
    return bins


def bin_level(bin_no: int) -> int:
    """Return the hierarchy level (0 coarsest .. 5 finest) of a bin."""
    if not 0 <= bin_no < BIN_COUNT:
        raise ValueError(f"bin number {bin_no} outside [0, {BIN_COUNT})")
    for level in range(len(LEVEL_STARTS) - 1, -1, -1):
        if bin_no >= LEVEL_STARTS[level]:
            return level
    raise AssertionError("unreachable")


def bin_interval(bin_no: int) -> tuple[int, int]:
    """Return the genomic half-open interval a bin covers."""
    level = bin_level(bin_no)
    shift = LEVEL_SHIFTS[level]
    offset = bin_no - LEVEL_STARTS[level]
    return offset << shift, (offset + 1) << shift


def linear_window(pos: int) -> int:
    """Index of the 16 kbp linear-index window containing *pos*."""
    if pos < 0:
        raise ValueError(f"negative position {pos}")
    return pos >> LINEAR_SHIFT
