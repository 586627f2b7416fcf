"""Unit tests for genomic region parsing."""

import pytest

from repro.core.region import GenomicRegion
from repro.errors import RegionError
from repro.formats.header import SamHeader

HDR = SamHeader.from_references([("chr1", 10_000), ("chr2", 5_000)])


def test_parse_full_form():
    region = GenomicRegion.parse("chr1:1001-2000", HDR)
    assert region == GenomicRegion("chr1", 1000, 2000)
    assert region.length == 1000


def test_parse_with_commas():
    region = GenomicRegion.parse("chr1:1,001-2,000", HDR)
    assert region.start == 1000 and region.end == 2000


def test_parse_bare_chromosome_expands_to_length():
    region = GenomicRegion.parse("chr2", HDR)
    assert region == GenomicRegion("chr2", 0, 5_000)


def test_parse_single_position():
    region = GenomicRegion.parse("chr1:500", HDR)
    assert region == GenomicRegion("chr1", 499, 500)


def test_parse_without_header():
    region = GenomicRegion.parse("anything:10-20")
    assert region.chrom == "anything"
    assert region.start == 9 and region.end == 20


def test_end_clipped_to_reference():
    region = GenomicRegion.parse("chr2:4901-9999", HDR)
    assert region.end == 5_000


def test_unknown_chromosome_rejected():
    with pytest.raises(RegionError):
        GenomicRegion.parse("chrX:1-10", HDR)


def test_start_beyond_reference_rejected():
    with pytest.raises(RegionError):
        GenomicRegion.parse("chr2:6001-7000", HDR)


def test_equal_endpoints_is_single_base_region():
    # samtools convention: chr1:5-5 selects exactly base 5.
    region = GenomicRegion.parse("chr1:5-5", HDR)
    assert region == GenomicRegion("chr1", 4, 5)


@pytest.mark.parametrize("bad", ["chr1:0-10", "chr1:100-50"])
def test_invalid_coordinates_rejected(bad):
    with pytest.raises(RegionError):
        GenomicRegion.parse(bad, HDR)


@pytest.mark.parametrize("bad", [
    "chr1:,", "chr1:,-5", "chr1:1-,", "chr1:,,-,", "chr1:\uff11\uff12",
    "chr1:1-\u0663"])
def test_number_without_an_ascii_digit_is_a_region_error(bad):
    """A lone comma used to reach ``int("")`` (a bare ValueError), and
    ``\\d`` read full-width and Arabic-Indic digits as coordinates."""
    for header in (HDR, None):
        with pytest.raises(RegionError, match="cannot parse region"):
            GenomicRegion.parse(bad, header)


def test_commas_may_lead_or_trail_the_digits():
    assert GenomicRegion.parse("chr1:,5-1,0,", HDR) \
        == GenomicRegion("chr1", 4, 10)


def test_str_renders_one_based():
    assert str(GenomicRegion("chr1", 999, 2000)) == "chr1:1000-2000"


def test_clip():
    region = GenomicRegion("chr1", 100, 900)
    assert region.clip(500) == GenomicRegion("chr1", 100, 500)


def test_direct_construction_validation():
    with pytest.raises(RegionError):
        GenomicRegion("c", -1, 5)
    with pytest.raises(RegionError):
        GenomicRegion("c", 10, 5)
