"""Nucleotide sequence and base-quality codecs.

Covers the three encodings the toolchain needs:

* plain ASCII nucleotide strings (SAM, FASTA, FASTQ),
* BAM 4-bit packed sequences (two bases per byte, ``=ACMGRSVTWYHKDBN``),
* Phred+33 quality strings <-> raw score arrays.
"""

from __future__ import annotations

import numpy as np

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


def _strand_slices(text: str, a: np.ndarray, b: np.ndarray,
                   reverse: np.ndarray | None, mirror) -> list[str]:
    """``text[a[i]:b[i]]`` per read, read off the other strand where
    ``reverse[i]``: ``mirror(text)`` — the whole text back to front —
    is made once, and such a read is the mirrored slice
    ``[n - b[i], n - a[i])`` of it."""
    if reverse is not None and reverse.any():
        end = 2 * len(text)
        a, b = np.where(reverse, end - b, a), np.where(reverse, end - a, b)
        text += mirror(text)
    return [text[x:y] for x, y in zip(a.tolist(), b.tolist())]


def unpack_sequence_blob(blob: bytes, lo: np.ndarray, hi: np.ndarray,
                         lengths: np.ndarray,
                         reverse: np.ndarray | None = None) -> list[str]:
    """Decode many packed sequences out of one blob in a single pass.

    ``blob[lo[i]:hi[i]]`` holds record *i*'s packed bases
    (``(lengths[i] + 1) // 2`` bytes).  The whole covered byte range is
    hex-expanded and translated **once** (both C-speed), then each
    sequence is a string slice — the columnar FASTA/FASTQ kernels'
    per-slab replacement for calling :func:`unpack_sequence` per
    record.  The records may come in any order (a gathered slab).
    Where the boolean *reverse* is set the read comes back as
    :func:`reverse_complement` would make it, from one complemented and
    reversed copy of the text (:func:`_strand_slices`).
    """
    if not len(lo):
        return []
    base = int(lo.min())
    text = memoryview(blob)[base:int(hi.max())].hex().translate(_HEX_TO_BASE)
    a = 2 * (lo.astype(np.int64) - base)
    return _strand_slices(text, a, a + lengths, reverse,
                          lambda t: t.translate(_COMPLEMENT)[::-1])


def qual_blob_to_text(blob: bytes, lo: np.ndarray, hi: np.ndarray,
                      reverse: np.ndarray | None = None) -> list[str]:
    """Decode many raw Phred runs out of one blob in a single pass.

    One translate + decode over the covered range, then string slices
    — back to front where *reverse* is set, from one reversed copy;
    the batch counterpart of :func:`qual_bytes_to_text`.  ``0xFF``
    bytes come out as ``"\\xff"`` characters; which runs are all
    ``0xFF`` — absent QUAL — is the caller's to ask of the blob.
    """
    if not len(lo):
        return []
    base = int(lo.min())
    text = blob[base:int(hi.max())].translate(_RAW_TO_PHRED33).decode(
        "latin-1")
    return _strand_slices(text, lo.astype(np.int64) - base,
                          hi.astype(np.int64) - base, reverse,
                          lambda t: t[::-1])


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
