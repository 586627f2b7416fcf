"""CIGAR string handling (SAM column 6, BAM packed representation).

A CIGAR is a sequence of ``(length, op)`` pairs.  The nine operations and
their BAM integer codes are fixed by the SAM/BAM specification:

====  ====  =========================================  =========  =========
code  char  meaning                                    query      reference
====  ====  =========================================  =========  =========
0     M     alignment match or mismatch                yes        yes
1     I     insertion to the reference                 yes        no
2     D     deletion from the reference                no         yes
3     N     skipped region (intron)                    no         yes
4     S     soft clipping                              yes        no
5     H     hard clipping                              no         no
6     P     padding                                    no         no
7     =     sequence match                             yes        yes
8     X     sequence mismatch                          yes        yes
====  ====  =========================================  =========  =========
"""

from __future__ import annotations

import re

from ..errors import SamFormatError

#: CIGAR operation characters indexed by their BAM op code.
CIGAR_OPS = "MIDNSHP=X"

#: Operations that consume bases of the query sequence.
QUERY_CONSUMING = frozenset("MIS=X")

#: Operations that consume positions on the reference.
REF_CONSUMING = frozenset("MDN=X")

#: Whether BAM op code *i* consumes the reference (padded to all 16
#: codes: invalid ones consume nothing, a span of 0 for corrupt data).
REF_CONSUMING_CODE = tuple(op in REF_CONSUMING for op in CIGAR_OPS) \
    + (False,) * 7

#: Maximum operation length representable in BAM (28-bit length field).
MAX_OP_LEN = (1 << 28) - 1

_OP_TO_CODE = {c: i for i, c in enumerate(CIGAR_OPS)}
_CIGAR_RE = re.compile(r"(\d+)([MIDNSHP=X])")

Cigar = list[tuple[int, str]]


def parse_cigar(text: str) -> Cigar:
    """Parse a SAM CIGAR string into ``[(length, op), ...]``.

    The placeholder ``*`` (no alignment information) parses to an empty
    list.

    Raises
    ------
    SamFormatError
        If the string contains anything but a well-formed run of
        ``<int><op>`` groups, or an operation length of zero.
    """
    if text == "*":
        return []
    pos = 0
    out: Cigar = []
    for m in _CIGAR_RE.finditer(text):
        if m.start() != pos:
            raise SamFormatError(f"malformed CIGAR string {text!r}")
        length = int(m.group(1))
        if length == 0:
            raise SamFormatError(f"zero-length CIGAR op in {text!r}")
        if length > MAX_OP_LEN:
            raise SamFormatError(
                f"CIGAR op length {length} exceeds BAM limit {MAX_OP_LEN}")
        out.append((length, m.group(2)))
        pos = m.end()
    if pos != len(text) or not out:
        raise SamFormatError(f"malformed CIGAR string {text!r}")
    return out


def format_cigar(ops: Cigar) -> str:
    """Render ``[(length, op), ...]`` back to SAM text (``*`` if empty)."""
    if not ops:
        return "*"
    return "".join(f"{n}{op}" for n, op in ops)


def encode_ops(ops: Cigar) -> list[int]:
    """Encode to BAM packed form: one uint32 per op, ``len<<4 | code``."""
    encoded = []
    for n, op in ops:
        try:
            code = _OP_TO_CODE[op]
        except KeyError:
            raise SamFormatError(f"unknown CIGAR op {op!r}") from None
        if not 0 < n <= MAX_OP_LEN:
            raise SamFormatError(f"CIGAR op length {n} out of range")
        encoded.append((n << 4) | code)
    return encoded


def decode_ops(packed: list[int] | tuple[int, ...]) -> Cigar:
    """Decode BAM packed uint32 ops back to ``[(length, op), ...]``."""
    out: Cigar = []
    for word in packed:
        code = word & 0xF
        if code >= len(CIGAR_OPS):
            raise SamFormatError(f"invalid CIGAR op code {code}")
        out.append((word >> 4, CIGAR_OPS[code]))
    return out


def query_length(ops: Cigar) -> int:
    """Number of query bases implied by the CIGAR (length of SEQ)."""
    return sum(n for n, op in ops if op in QUERY_CONSUMING)


def reference_span(ops: Cigar) -> int:
    """Number of reference positions the alignment covers."""
    return sum(n for n, op in ops if op in REF_CONSUMING)


def validate_cigar(ops: Cigar, seq_len: int | None = None) -> None:
    """Validate structural rules of a CIGAR.

    Checks performed (all from the SAM spec):

    * ``H`` may only be the first and/or last operation;
    * ``S`` may only have ``H`` between it and the end of the string;
    * if *seq_len* is given (and the sequence was stored), the sum of
      query-consuming op lengths must equal it.

    Raises
    ------
    SamFormatError
        On any violation.
    """
    for i, (_, op) in enumerate(ops):
        if op == "H" and i not in (0, len(ops) - 1):
            raise SamFormatError("H op may only appear at CIGAR ends")
        if op == "S":
            left_ok = i == 0 or all(o == "H" for _, o in ops[:i])
            right_ok = (i == len(ops) - 1
                        or all(o == "H" for _, o in ops[i + 1:]))
            if not (left_ok or right_ok):
                raise SamFormatError(
                    "S op must be at CIGAR end (modulo H clipping)")
    if seq_len is not None and ops:
        qlen = query_length(ops)
        if qlen != seq_len:
            raise SamFormatError(
                f"CIGAR query length {qlen} != sequence length {seq_len}")
