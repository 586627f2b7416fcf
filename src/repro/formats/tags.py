"""SAM optional fields ("tags") and their BAM binary encoding.

A SAM optional field is ``TAG:TYPE:VALUE`` where TAG is two characters and
TYPE is one of:

====  ==========================================================
A     single printable character
i     signed 32-bit integer (SAM accepts any int; BAM narrows it)
f     single-precision float
Z     printable string
H     hex-encoded byte array
B     numeric array: subtype in ``cCsSiIf`` then comma values
====  ==========================================================

BAM additionally stores integers in the narrowest of ``cCsSiI`` when
writing, and readers widen everything back to Python ``int``; this module
is careful to round-trip SAM->BAM->SAM losslessly at the *value* level
(the integer width chosen on disk is an encoding detail).
"""

from __future__ import annotations

import re
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import SamFormatError
from .ragged import ragged_index

_TAG_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]$")
_ARRAY_SUBTYPES = "cCsSiIf"
_STRUCT_OF = {"c": "b", "C": "B", "s": "h", "S": "H", "i": "i", "I": "I",
              "f": "f"}
_INT_BOUNDS = {
    "c": (-(1 << 7), (1 << 7) - 1),
    "C": (0, (1 << 8) - 1),
    "s": (-(1 << 15), (1 << 15) - 1),
    "S": (0, (1 << 16) - 1),
    "i": (-(1 << 31), (1 << 31) - 1),
    "I": (0, (1 << 32) - 1),
}


@dataclass(frozen=True, slots=True)
class Tag:
    """One optional field: two-char *name*, one-char *type*, Python value.

    Value types by tag type: ``A``->str(1), ``i``->int, ``f``->float,
    ``Z``->str, ``H``->bytes, ``B``->(subtype, tuple-of-numbers).
    """

    name: str
    type: str
    value: object

    def to_sam(self) -> str:
        """Render as the SAM text column ``TAG:TYPE:VALUE``."""
        return tag_to_sam(self.name, self.type, self.value)


def tag_to_sam(name: str, t: str, v: object) -> str:
    """The SAM text column ``TAG:TYPE:VALUE`` of one tag's fields."""
    if t == "i":
        body = str(int(v))  # type: ignore[call-overload]
    elif t in ("A", "Z"):
        body = str(v)
    elif t == "f":
        body = repr(float(v))  # type: ignore[arg-type]
    elif t == "H":
        assert isinstance(v, (bytes, bytearray))
        body = v.hex().upper()
    elif t == "B":
        sub, values = v  # type: ignore[misc]
        parts = [sub]
        for x in values:
            parts.append(repr(float(x)) if sub == "f" else str(int(x)))
        body = ",".join(parts)
    else:  # pragma: no cover - constructor prevents this
        raise SamFormatError(f"unknown tag type {t!r}")
    return f"{name}:{t}:{body}"


def parse_tag(field: str) -> Tag:
    """Parse one ``TAG:TYPE:VALUE`` SAM column into a :class:`Tag`."""
    parts = field.split(":", 2)
    if len(parts) != 3:
        raise SamFormatError(f"malformed optional field {field!r}")
    name, t, body = parts
    if not _TAG_RE.match(name):
        raise SamFormatError(f"invalid tag name {name!r}")
    if t == "A":
        if len(body) != 1 or not body.isprintable():
            raise SamFormatError(f"invalid A-type value {body!r}")
        value: object = body
    elif t == "i":
        try:
            value = int(body)
        except ValueError:
            raise SamFormatError(f"invalid integer tag value {body!r}") from None
    elif t == "f":
        try:
            value = float(body)
        except ValueError:
            raise SamFormatError(f"invalid float tag value {body!r}") from None
    elif t == "Z":
        value = body
    elif t == "H":
        if len(body) % 2:
            raise SamFormatError(f"odd-length hex tag value {body!r}")
        try:
            value = bytes.fromhex(body)
        except ValueError:
            raise SamFormatError(f"invalid hex tag value {body!r}") from None
    elif t == "B":
        items = body.split(",")
        sub = items[0]
        if sub not in _ARRAY_SUBTYPES:
            raise SamFormatError(f"invalid B-array subtype {sub!r}")
        try:
            if sub == "f":
                values = tuple(float(x) for x in items[1:])
            else:
                values = tuple(int(x) for x in items[1:])
        except ValueError:
            raise SamFormatError(f"invalid B-array body {body!r}") from None
        if sub != "f":
            lo, hi = _INT_BOUNDS[sub]
            for x in values:
                if not lo <= x <= hi:
                    raise SamFormatError(
                        f"B-array value {x} out of range for subtype {sub}")
        value = (sub, values)
    else:
        raise SamFormatError(f"unknown tag type {t!r}")
    return Tag(name, t, value)


def _narrowest_int_type(v: int) -> str:
    """Pick the narrowest BAM integer code that can hold *v*."""
    for code in ("c", "C", "s", "S", "i", "I"):
        lo, hi = _INT_BOUNDS[code]
        if lo <= v <= hi:
            return code
    raise SamFormatError(f"integer tag value {v} does not fit in 32 bits")


def encode_tag(tag: Tag) -> bytes:
    """Encode one tag to its BAM binary representation."""
    name = tag.name.encode("ascii")
    t, v = tag.type, tag.value
    if t == "A":
        return name + b"A" + str(v).encode("ascii")
    if t == "i":
        code = _narrowest_int_type(int(v))  # type: ignore[call-overload]
        return (name + code.encode("ascii")
                + struct.pack("<" + _STRUCT_OF[code], v))
    if t == "f":
        return name + b"f" + struct.pack("<f", v)
    if t == "Z":
        return name + b"Z" + str(v).encode("ascii") + b"\x00"
    if t == "H":
        assert isinstance(v, (bytes, bytearray))
        return name + b"H" + v.hex().upper().encode("ascii") + b"\x00"
    if t == "B":
        sub, values = v  # type: ignore[misc]
        fmt = "<" + _STRUCT_OF[sub] * len(values)
        return (name + b"B" + sub.encode("ascii")
                + struct.pack("<i", len(values)) + struct.pack(fmt, *values))
    raise SamFormatError(f"unknown tag type {t!r}")  # pragma: no cover


def decode_tags(data: bytes) -> list[Tag]:
    """Decode the trailing tag block of a BAM alignment record."""
    return [Tag(*fields) for fields in _walk_tags(data)]


def tag_block_to_sam(data: bytes) -> str:
    """``format_tags(decode_tags(data))`` without the :class:`Tag`
    objects: the tab-joined SAM text of one BAM tag block."""
    return "\t".join([tag_to_sam(*fields) for fields in _walk_tags(data)])


#: Pre-compiled Struct per scalar tag code (hot path of _walk_tags).
_TAG_STRUCTS = {code: struct.Struct("<" + fmt)
                for code, fmt in _STRUCT_OF.items()}


def _walk_tags(data: bytes) -> Iterator[tuple[str, str, object]]:
    """The ``(name, type, value)`` fields of each tag of a BAM block."""
    try:
        yield from _tag_fields(data)
    except (struct.error, IndexError, ValueError) as exc:
        if isinstance(exc, SamFormatError):
            raise
        raise SamFormatError(f"truncated or corrupt BAM tag block: "
                             f"{exc}") from None


def _tag_fields(data: bytes) -> Iterator[tuple[str, str, object]]:
    off = 0
    n = len(data)
    while off < n:
        if off + 3 > n:
            raise SamFormatError("truncated BAM tag block")
        name = data[off:off + 2].decode("ascii")
        code = chr(data[off + 2])
        off += 3
        if code == "A":
            yield name, "A", bytes((data[off],)).decode("ascii")
            off += 1
        elif code in _INT_BOUNDS:
            s = _TAG_STRUCTS[code]
            (v,) = s.unpack_from(data, off)
            yield name, "i", v
            off += s.size
        elif code == "f":
            (v,) = _TAG_STRUCTS["f"].unpack_from(data, off)
            yield name, "f", v
            off += 4
        elif code in ("Z", "H"):
            end = data.index(b"\x00", off)
            body = data[off:end].decode("ascii")
            if code == "Z":
                yield name, "Z", body
            else:
                yield name, "H", bytes.fromhex(body)
            off = end + 1
        elif code == "B":
            sub = chr(data[off])
            if sub not in _ARRAY_SUBTYPES:
                raise SamFormatError(f"invalid B-array subtype {sub!r}")
            (count,) = struct.unpack_from("<i", data, off + 1)
            off += 5
            if count > n - off:  # before the format string is built
                raise SamFormatError("truncated BAM B-array tag")
            fmt = "<" + _STRUCT_OF[sub] * count
            values = struct.unpack_from(fmt, data, off)
            off += struct.calcsize(fmt)
            yield name, "B", (sub, tuple(values))
        else:
            raise SamFormatError(f"unknown BAM tag type code {code!r}")


#: Value bytes by BAM type code: 0 for the self-delimiting ``Z``/``B``,
#: -1 for what :func:`canonical_tag_blocks` leaves to the record path
#: (unknown codes, and ``H``, whose hex case re-encoding normalizes).
_VALUE_SIZE = np.full(256, -1, np.int64)
_VALUE_SIZE[list(b"AfZBcCsSiI")] = (1, 4, 0, 0, 1, 1, 2, 2, 4, 4)
#: Bytes per integer by type code / ``B`` subtype; 0 for the others.
_INT_SIZE = np.zeros(256, np.int64)
_INT_SIZE[list(b"cCsSiI")] = (1, 1, 2, 2, 4, 4)


def canonical_tag_blocks(buf: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray) -> bool:
    """Walk the tag blocks ``buf[lo[i]:hi[i]]`` in lockstep, one tag of
    every record per step, and tell whether each is byte for byte what
    ``encode_tags(decode_tags(block))`` returns — after rewriting in
    *buf* the integer codes whose width this module keeps (``C`` 7 is
    ``c`` 7 here).  ``False``: a block is malformed or re-encodes
    differently (an integer that narrows, ``H``, a float array, an
    Inf/NaN float — the round trip quiets a signalling NaN —,
    non-ASCII text), so take the record path."""
    live = np.flatnonzero(lo < hi)
    cur, end = lo[live].astype(np.int64), hi[live].astype(np.int64)
    nuls = None
    while len(cur):
        if (cur + 3 > end).any() \
                or ((buf[cur] | buf[cur + 1]) & 0x80).any():
            return False
        code, val = buf[cur + 2], cur + 3
        size = _VALUE_SIZE[code]
        if (size < 0).any():
            return False
        text = np.flatnonzero(code == ord("Z"))
        if len(text):
            if nuls is None:
                nuls = np.flatnonzero(buf == 0)
            k = np.searchsorted(nuls, val[text])
            if (k == len(nuls)).any():
                return False
            size[text] = nuls[k] - val[text] + 1
            if (buf[ragged_index(val[text], size[text], np.int64)]
                    & 0x80).any():
                return False
        array = np.flatnonzero(code == ord("B"))
        if len(array):
            at = val[array]
            if (at + 5 > end[array]).any():
                return False
            width = _INT_SIZE[buf[at]]
            count = sum(buf[at + 1 + j].astype(np.int64) << 8 * j
                        for j in range(4))
            if (width == 0).any() or (count >> 31).any():
                return False
            size[array] = 5 + count * width
        if (val + size > end).any():
            return False
        real = val[code == ord("f")]
        if (buf[val[code == ord("A")]] & 0x80).any() or (
                (buf[real + 3] & 0x7F == 0x7F) & (buf[real + 2] >> 7)).any():
            return False
        for width, narrower, negative in ((1, -1, 0), (2, 0xFF, 0x80),
                                          (4, 0xFFFF, 0x8000)):
            ints = np.flatnonzero(_INT_SIZE[code] == width)
            value = sum(buf[val[ints] + j].astype(np.int64) << 8 * j
                        for j in range(width))
            unsigned = code[ints] & 0x20 == 0
            if ((value <= narrower) | ~unsigned
                    & (value >= (1 << 8 * width) - negative)).any():
                return False
            # ASCII case bit: C -> c, S -> s, I -> i.
            buf[cur[ints[unsigned & (value < 1 << 8 * width - 1)]] + 2] \
                |= 0x20
        cur = val + size
        cur, end = cur[cur < end], end[cur < end]
    return True


def encode_tags(tags: list[Tag]) -> bytes:
    """Encode a tag list into one contiguous BAM tag block."""
    return b"".join(encode_tag(t) for t in tags)


def parse_tags(fields: list[str]) -> list[Tag]:
    """Parse the optional columns of a SAM line (columns 12+)."""
    return [parse_tag(f) for f in fields]


def format_tags(tags: list[Tag]) -> str:
    """Render tags back to tab-joined SAM text (empty string if none)."""
    return "\t".join(t.to_sam() for t in tags)
