"""An independent BAM decoder from the SAM specification's tables (§4.2 BAM, §4.2.4 tags,
§5.3 binning), importing nothing of ``repro``: stdlib ``gzip`` inflates, ``struct`` reads.
A record comes back as the SAM line its fields spell."""

import gzip
import struct

CIGAR_OPS = "MIDNSHP=X"
BASES = "=ACMGRSVTWYHKDBN"
#: The struct code of each tag value type and B-array subtype.
CODES = {"A": "c", "c": "b", "C": "B", "s": "h", "S": "H", "i": "i", "I": "I", "f": "f"}
FIXED = struct.Struct("<iiBBHHHiiii")


def reg2bin(beg, end):
    """The specification's ``reg2bin`` (§5.3)."""
    end -= 1
    for shift, first in ((14, 4681), (17, 585), (20, 73), (23, 9), (26, 1)):
        if beg >> shift == end >> shift:
            return first + (beg >> shift)
    return 0


def read_bam(path):
    """``(header text, [(name, length)], [SAM line])`` of a BAM file."""
    with gzip.open(path, "rb") as fh:
        data = fh.read()
    assert data[:4] == b"BAM\x01", "bad magic"
    (l_text,) = struct.unpack_from("<i", data, 4)
    text, at = data[8:8 + l_text].decode("ascii").rstrip("\0"), 8 + l_text
    (n_ref,) = struct.unpack_from("<i", data, at)
    refs, at = [], at + 4
    for _ in range(n_ref):
        (l_name,) = struct.unpack_from("<i", data, at)
        (length,) = struct.unpack_from("<i", data, at + 4 + l_name)
        refs.append((data[at + 4:at + 3 + l_name].decode("ascii"), length))
        at += 8 + l_name
    lines = []
    while at < len(data):
        (block_size,) = struct.unpack_from("<i", data, at)
        lines.append(_line(data[at + 4:at + 4 + block_size], refs))
        at += 4 + block_size
    return text, refs, lines


def _line(body, refs):
    (ref_id, pos, l_name, mapq, bin_, n_cigar, flag, l_seq, next_ref,
     next_pos, tlen) = FIXED.unpack_from(body)
    at = FIXED.size + l_name
    name = body[FIXED.size:at - 1].decode("ascii")
    assert body[at - 1] == 0, "read name without its NUL"
    ops = struct.unpack_from(f"<{n_cigar}I", body, at)
    at += 4 * n_cigar
    seq = "".join(BASES[body[at + i // 2] >> 4 * (1 - i % 2) & 15] for i in range(l_seq))
    at += (l_seq + 1) // 2
    qual, at = body[at:at + l_seq], at + l_seq
    span = sum(op >> 4 for op in ops if CIGAR_OPS[op & 15] in "MDN=X")
    assert bin_ == reg2bin(pos, pos + max(span, 1)), f"bin of {name}"
    tags = []
    while at < len(body):
        tag, kind, at = body[at:at + 2].decode("ascii"), chr(body[at + 2]), at + 3
        if kind in "ZH":
            end = body.index(0, at)
            value, at = body[at:end].decode("ascii"), end + 1
        elif kind == "B":
            sub, (count,) = chr(body[at]), struct.unpack_from("<i", body, at + 1)
            fmt = f"<{count}{CODES[sub]}"
            value = ",".join([sub, *map(str, struct.unpack_from(fmt, body, at + 5))])
            at += 5 + struct.calcsize(fmt)
        else:
            (value,) = struct.unpack_from("<" + CODES[kind], body, at)
            at += struct.calcsize(CODES[kind])
            value = value.decode("ascii") if kind == "A" else value
        tags.append(f"{tag}:{kind if kind in 'AZHBf' else 'i'}:{value}")
    rname = refs[ref_id][0] if ref_id >= 0 else "*"
    rnext = "*" if next_ref < 0 else "=" if next_ref == ref_id else refs[next_ref][0]
    cigar = "".join(f"{op >> 4}{CIGAR_OPS[op & 15]}" for op in ops) or "*"
    qual = "*" if not qual or qual[0] == 0xFF else "".join(chr(q + 33) for q in qual)
    return "\t".join([name, str(flag), rname, str(pos + 1), str(mapq), cigar, rnext,
                      str(next_pos + 1), str(tlen), seq or "*", qual, *tags])
