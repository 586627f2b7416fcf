"""Nucleotide sequence and base-quality codecs.

Covers the three encodings the toolchain needs:

* plain ASCII nucleotide strings (SAM, FASTA, FASTQ),
* BAM 4-bit packed sequences (two bases per byte, ``=ACMGRSVTWYHKDBN``),
* Phred+33 quality strings <-> raw score arrays.
"""

from __future__ import annotations

from ..errors import FormatError

#: BAM nybble alphabet: index in this string == 4-bit code.
NYBBLE_ALPHABET = "=ACMGRSVTWYHKDBN"

_CODE_OF = {c: i for i, c in enumerate(NYBBLE_ALPHABET)}
# Lowercase input is accepted and normalized to uppercase, as samtools does.
_CODE_OF.update({c.lower(): i for i, c in enumerate(NYBBLE_ALPHABET) if c.isalpha()})

_COMPLEMENT = str.maketrans(
    "ACGTUMRWSYKVHDBNacgtumrwsykvhdbn",
    "TGCAAKYWSRMBDHVNtgcaakywsrmbdhvn",
)

#: Maximum Phred score storable in SAM/FASTQ with the +33 offset.
MAX_PHRED = 93


def reverse_complement(seq: str) -> str:
    """Return the reverse complement, preserving case, IUPAC-aware."""
    return seq.translate(_COMPLEMENT)[::-1]


# The 4-bit nybble codes are exactly hexadecimal digits, so packing is a
# character translation to hex followed by bytes.fromhex (all C-speed),
# and unpacking is bytes.hex() plus the inverse translation.
_BASE_TO_HEX = str.maketrans(
    NYBBLE_ALPHABET + NYBBLE_ALPHABET[1:].lower(),
    "0123456789abcdef" + "123456789abcdef")
_HEX_TO_BASE = str.maketrans("0123456789abcdef", NYBBLE_ALPHABET)
_VALID_BASES = frozenset(NYBBLE_ALPHABET + NYBBLE_ALPHABET.lower())

#: Translation table adding the +33 Phred offset to raw scores.
_RAW_TO_PHRED33 = bytes(min(i + 33, 255) for i in range(256))
#: Translation table removing the +33 offset (slots below 33 map to
#: 0xFF so the range check below catches them).
_PHRED33_TO_RAW = bytes([0xFF] * 33 + list(range(0, 223)))


def pack_sequence(seq: str) -> bytes:
    """Pack an ASCII nucleotide string into BAM 4-bit form.

    Two bases per byte, high nybble first; an odd-length sequence gets a
    zero low nybble in its final byte.  Unknown characters raise
    :class:`~repro.errors.FormatError`.
    """
    if not _VALID_BASES.issuperset(seq):
        bad = next(b for b in seq if b not in _VALID_BASES)
        raise FormatError(f"invalid nucleotide {bad!r}")
    hex_digits = seq.translate(_BASE_TO_HEX)
    if len(hex_digits) & 1:
        hex_digits += "0"
    return bytes.fromhex(hex_digits)


def unpack_sequence(packed: bytes, length: int) -> str:
    """Unpack *length* bases from BAM 4-bit *packed* data."""
    if len(packed) < (length + 1) // 2:
        raise FormatError(
            f"packed sequence too short: {len(packed)} bytes for "
            f"{length} bases")
    return packed.hex().translate(_HEX_TO_BASE)[:length]


def encode_qualities(scores: list[int] | bytes) -> str:
    """Encode raw Phred scores to a Phred+33 ASCII string."""
    # A single range check: bytes() already rejects values outside
    # [0, 255], so only the (0, MAX_PHRED] ceiling needs a second look.
    try:
        raw = bytes(scores)
        if raw and max(raw) > MAX_PHRED:
            raise ValueError
    except ValueError:
        bad = next(q for q in scores if not 0 <= q <= MAX_PHRED)
        raise FormatError(
            f"Phred score {bad} outside [0, {MAX_PHRED}]") from None
    return raw.translate(_RAW_TO_PHRED33).decode("latin-1")


def decode_qualities(text: str) -> list[int]:
    """Decode a Phred+33 ASCII string to raw scores."""
    try:
        raw = text.encode("latin-1").translate(_PHRED33_TO_RAW)
    except UnicodeEncodeError:
        raise FormatError("non-ASCII quality character") from None
    scores = list(raw)
    if scores and (max(scores) > MAX_PHRED or 0xFF in scores):
        bad = next(ch for ch in text
                   if not 0 <= ord(ch) - 33 <= MAX_PHRED)
        raise FormatError(f"invalid quality character {bad!r}")
    return scores


_PHRED33_SUB = bytes(max(i - 33, 0) for i in range(256))


def qual_bytes_to_text(raw: bytes) -> str:
    """Raw Phred score bytes -> Phred+33 string (BAM/BAMX hot path)."""
    return raw.translate(_RAW_TO_PHRED33).decode("latin-1")


def qual_text_to_bytes(text: str) -> bytes:
    """Phred+33 string -> raw Phred score bytes (BAM/BAMX hot path)."""
    return text.encode("latin-1").translate(_PHRED33_SUB)


def unpack_sequence_blob(blob: bytes, lo: list[int], hi: list[int],
                         lengths: list[int]) -> list[str]:
    """Decode many packed sequences out of one blob in a single pass.

    ``blob[lo[i]:hi[i]]`` holds record *i*'s packed bases
    (``(lengths[i] + 1) // 2`` bytes).  The whole covered byte range is
    hex-expanded and translated **once** (both C-speed), then each
    sequence is a string slice — the columnar FASTA/FASTQ kernels'
    per-slab replacement for calling :func:`unpack_sequence` per
    record.  The records may come in any order (a gathered slab).
    """
    if not lo:
        return []
    base = min(lo)
    text = memoryview(blob)[base:max(hi)].hex().translate(_HEX_TO_BASE)
    return [text[2 * (a - base):2 * (a - base) + n]
            for a, n in zip(lo, lengths)]


def qual_blob_to_text(blob: bytes, lo: list[int],
                      hi: list[int]) -> list[str]:
    """Decode many raw Phred runs out of one blob in a single pass.

    One translate + decode over the covered range, then string slices;
    the batch counterpart of :func:`qual_bytes_to_text`.  ``0xFF``
    bytes come out as ``"\\xff"`` characters — callers that honour the
    all-``0xFF``-means-absent convention check the first character.
    """
    if not lo:
        return []
    base = min(lo)
    text = blob[base:max(hi)].translate(_RAW_TO_PHRED33).decode("latin-1")
    return [text[a - base:b - base] for a, b in zip(lo, hi)]


def validate_seq(seq: str) -> str:
    """Validate that *seq* is ``*`` or entirely nybble-alphabet characters.

    Returns the sequence unchanged so it can be used inline.
    """
    if seq == "*":
        return seq
    # Superset check runs at C speed; only the error path scans.
    if not _VALID_BASES.issuperset(seq):
        bad = next(b for b in seq if b not in _VALID_BASES)
        raise FormatError(f"invalid nucleotide {bad!r} in sequence")
    return seq
