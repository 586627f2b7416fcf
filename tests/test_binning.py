"""Unit and property tests for the UCSC binning scheme."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.formats.binning import BIN_COUNT, LEVEL_SHIFTS, MAX_BIN_COORD, \
    bin_interval, bin_level, linear_window, reg2bin, reg2bin_array, reg2bins


def _reg2bin_spec(beg, end):
    """Verbatim transcription of the SAM-spec C reference."""
    end -= 1
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


def test_known_bins():
    assert reg2bin(0, 1) == 4681          # first 16 kbp leaf
    assert reg2bin(0, 1 << 14) == 4681
    assert reg2bin(1 << 14, (1 << 14) + 1) == 4682
    assert reg2bin(0, (1 << 14) + 1) == 585  # spans two leaves -> level 4
    assert reg2bin(0, MAX_BIN_COORD) == 0    # whole-genome bin


def test_reg2bin_array_matches_reg2bin_at_every_level_boundary():
    """Every pair of coordinates around a window edge of every level —
    an interval ending on, before or past one — and the unplaced."""
    edges = sorted({max(0, (k << shift) + d) for shift in LEVEL_SHIFTS
                    for k in (1, 2, 3) for d in (-2, -1, 0, 1, 2)} | {0, 1})
    beg, end = zip(*[(a, b) for a in edges for b in edges if b >= a],
                   *[(-1, b) for b in edges])
    assert reg2bin_array(np.array(beg), np.array(end)).tolist() == [
        reg2bin(a, b) for a, b in zip(beg, end)]


def test_unmapped_convention():
    assert reg2bin(-1, 0) == 4680


def test_reg2bins_includes_containing_bins():
    beg, end = 100_000, 200_000
    bins = reg2bins(beg, end)
    assert 0 in bins
    assert reg2bin(beg, end) in bins
    # Every leaf bin covering the range is present.
    for pos in range(beg >> 14, (end - 1 >> 14) + 1):
        assert 4681 + pos in bins


def test_reg2bins_empty_region():
    assert reg2bins(500, 500) == [0]
    assert reg2bins(500, 400) == [0]


def test_reg2bins_clamps_out_of_range():
    bins = reg2bins(-100, MAX_BIN_COORD + 100)
    assert bins[0] == 0
    assert max(bins) < BIN_COUNT


def test_bin_level_and_interval():
    assert bin_level(0) == 0
    assert bin_level(1) == 1
    assert bin_level(4681) == 5
    assert bin_interval(0) == (0, 1 << 29)
    assert bin_interval(4681) == (0, 1 << 14)
    assert bin_interval(4682) == (1 << 14, 2 << 14)
    with pytest.raises(ValueError):
        bin_level(BIN_COUNT)


def test_linear_window():
    assert linear_window(0) == 0
    assert linear_window((1 << 14) - 1) == 0
    assert linear_window(1 << 14) == 1
    with pytest.raises(ValueError):
        linear_window(-1)


_intervals = st.tuples(
    st.integers(min_value=0, max_value=MAX_BIN_COORD - 2),
    st.integers(min_value=1, max_value=100_000),
).map(lambda t: (t[0], min(t[0] + t[1], MAX_BIN_COORD)))


@given(_intervals)
def test_reg2bin_matches_spec_reference(interval):
    beg, end = interval
    assert reg2bin(beg, end) == _reg2bin_spec(beg, end)


@given(_intervals)
def test_bin_contains_interval(interval):
    beg, end = interval
    lo, hi = bin_interval(reg2bin(beg, end))
    assert lo <= beg and end <= hi


@given(_intervals, _intervals)
def test_overlapping_intervals_share_a_candidate_bin(a, b):
    # If two intervals overlap, reg2bins(a) must contain reg2bin(b):
    # this is the property region queries rely on.
    if max(a[0], b[0]) < min(a[1], b[1]):
        assert reg2bin(b[0], b[1]) in reg2bins(a[0], a[1])
