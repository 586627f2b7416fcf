"""Seeded input generator and output oracle for the e2e benchmark.

Everything here is independent of ``repro``: the SAM text and the
BGZF/BAM bytes are produced by this module's own encoder, and the
expected BED6 / FASTQ / SAM output of any record subset is rendered
from the same numpy arrays.  A change to the program therefore cannot
change its own input or its own expected output.

Record mix (fixed shape, only the draws depend on the seed): 100 bp
paired reads on three chromosomes, a quarter of the templates piled on
fixed hot spots, both pair orientations, ~85 % ``100M`` and the rest
I/D/S CIGARs, 2 % unmapped (pairs, at the end of the file), 1 %
secondary/supplementary lines, variable-length names, MAPQ 0-60, tags
``NM:i AS:i RG:Z``, random SEQ/QUAL.  Density is 25 records per kb
whatever the record count, so a 40 kb window holds ~1000 records.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import NamedTuple

import numpy as np

READ_LEN = 100
BP_PER_RECORD = 40
CHROMS = (("chr1", 0.5), ("chr2", 0.3), ("chr3", 0.2))
HOT_CENTRES = (0.15, 0.40, 0.62, 0.90)   # fraction of the chromosome
HOT_SHARE = 0.25                          # of each chromosome's templates
HOT_SD = 0.012                            # fraction of the chromosome
READ_GROUPS = ("grpA", "grpB", "grpC", "grpD")
NAME_PREFIXES = ("r", "HWI-ST1023:7:", "M0:1101:", "NB501:22:HJ:")

# (text, BAM words, reference span); query length is always READ_LEN.
_M, _I, _D, _S = 0, 1, 2, 4
_CIGARS = (
    ("100M", ((100, _M),)),
    ("50M2I48M", ((50, _M), (2, _I), (48, _M))),
    ("60M3D40M", ((60, _M), (3, _D), (40, _M))),
    ("8S92M", ((8, _S), (92, _M))),
    ("95M5S", ((95, _M), (5, _S))),
    ("30M1I40M2D29M", ((30, _M), (1, _I), (40, _M), (2, _D), (29, _M))),
)
_CIGAR_WEIGHTS = (0.85, 0.03, 0.03, 0.03, 0.03, 0.03)
CIGAR_TEXT = tuple(c[0] for c in _CIGARS)
_CIGAR_BYTES = tuple(
    b"".join(struct.pack("<I", n << 4 | op) for n, op in c[1])
    for c in _CIGARS)
_CIGAR_SPAN = np.array(
    [sum(n for n, op in c[1] if op in (_M, _D)) for c in _CIGARS],
    dtype=np.int32)

F_PAIRED, F_PROPER, F_UNMAPPED, F_MUNMAPPED = 0x1, 0x2, 0x4, 0x8
F_REVERSE, F_MREVERSE, F_READ1, F_READ2 = 0x10, 0x20, 0x40, 0x80
F_SECONDARY, F_SUPPLEMENTARY = 0x100, 0x800
_NOT_PRIMARY = F_SECONDARY | F_SUPPLEMENTARY

#: The filter every ``filtered`` op passes to the program, and the same
#: predicate over this module's arrays.
FILTER_EXPR = "q=30,mapped,primary"
FILTER_MIN_MAPQ = 30

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)
_COMPLEMENT = np.zeros(256, dtype=np.uint8)
_COMPLEMENT[list(b"ACGT")] = list(b"TGCA")
_NYBBLE = np.zeros(256, dtype=np.uint8)
_NYBBLE[list(b"ACGT")] = (1, 2, 4, 8)

BGZF_BLOCK = 0xFF00
BGZF_EOF = bytes.fromhex(
    "1f8b08040000000000ff0600424302001b0003000000000000000000")


def reg2bin(beg: np.ndarray, end: np.ndarray) -> np.ndarray:
    """UCSC bin of each 0-based half-open interval (SAM spec §5.3)."""
    last = end - 1
    out = np.zeros(beg.shape, dtype=np.int64)
    done = np.zeros(beg.shape, dtype=bool)
    for shift, first in ((14, 4681), (17, 585), (20, 73), (23, 9), (26, 1)):
        hit = ~done & (beg >> shift == last >> shift)
        out[hit] = first + (beg[hit] >> shift)
        done |= hit
    return out


def bgzf_compress(data: bytes, level: int = 6) -> bytes:
    """*data* as a complete BGZF stream, EOF block included."""
    out = []
    for start in range(0, len(data), BGZF_BLOCK):
        chunk = data[start:start + BGZF_BLOCK]
        comp = zlib.compressobj(level, zlib.DEFLATED, -15)
        cdata = comp.compress(chunk) + comp.flush()
        out.append(struct.pack(
            "<4BI2BH2B2H", 0x1F, 0x8B, 8, 4, 0, 0, 0xFF, 6, 66, 67, 2,
            len(cdata) + 25))
        out.append(cdata)
        out.append(struct.pack("<2I", zlib.crc32(chunk), len(chunk)))
    out.append(BGZF_EOF)
    return b"".join(out)


def _rows(flat: bytes, width: int, n: int) -> list[bytes]:
    return [flat[i:i + width] for i in range(0, n * width, width)]


class Dataset:
    """One generated alignment file, as columns in file order."""

    def __init__(self, seed: int, n_records: int, salt: int = 0) -> None:
        """*salt* tells apart files of one run that share a size."""
        if n_records < 200 or n_records % 2:
            raise ValueError("n_records must be even and >= 200")
        rng = np.random.default_rng([seed, n_records, salt])
        self.seed = seed
        self.n = n_records
        genome = n_records * BP_PER_RECORD
        self.chrom_names = [c for c, _ in CHROMS]
        self.chrom_lengths = [int(genome * share) for _, share in CHROMS]

        n_extra = max(2, round(n_records * 0.01) // 2 * 2)
        n_pairs = (n_records - n_extra) // 2
        n_unmapped_pairs = max(1, round(n_records * 0.01))
        n_mapped_pairs = n_pairs - n_unmapped_pairs

        # -- mapped templates: chromosome, two positions, orientation ----
        shares = np.array([s for _, s in CHROMS])
        t_ref = rng.choice(len(CHROMS), size=n_mapped_pairs, p=shares)
        t_len = np.array(self.chrom_lengths)[t_ref]
        frac = rng.random(n_mapped_pairs)
        hot = rng.random(n_mapped_pairs) < HOT_SHARE
        centre = np.array(HOT_CENTRES)[rng.integers(
            0, len(HOT_CENTRES), n_mapped_pairs)]
        frac = np.where(hot, centre + rng.normal(0, HOT_SD, n_mapped_pairs),
                        frac)
        insert = np.clip(rng.normal(300, 30, n_mapped_pairs), 210, 450)
        insert = insert.astype(np.int64)
        left = np.clip((frac * t_len).astype(np.int64), 0, t_len - 600)
        right = left + insert - READ_LEN
        first_is_left = rng.random(n_mapped_pairs) < 0.5

        # Reads in template order: [read1s..., read2s...], then unmapped
        # pairs, then the secondary/supplementary extras.
        tid = np.arange(n_pairs)
        m = n_mapped_pairs
        pos1 = np.where(first_is_left, left, right)
        pos2 = np.where(first_is_left, right, left)
        rev1 = ~first_is_left
        flag1 = (F_PAIRED | F_PROPER | F_READ1
                 | np.where(rev1, F_REVERSE, F_MREVERSE))
        flag2 = (F_PAIRED | F_PROPER | F_READ2
                 | np.where(rev1, F_MREVERSE, F_REVERSE))
        tlen1 = np.where(first_is_left, insert, -insert)
        u = n_unmapped_pairs
        un_flag = F_PAIRED | F_UNMAPPED | F_MUNMAPPED
        minus = np.full(u, -1, dtype=np.int64)

        ref = np.concatenate([t_ref, t_ref, minus, minus])
        pos = np.concatenate([pos1, pos2, minus, minus])
        nref = ref.copy()
        npos = np.concatenate([pos2, pos1, minus, minus])
        flag = np.concatenate([flag1, flag2,
                               np.full(u, un_flag | F_READ1),
                               np.full(u, un_flag | F_READ2)])
        tlen = np.concatenate([tlen1, -tlen1, minus * 0, minus * 0])
        template = np.concatenate([tid[:m], tid[:m], tid[m:], tid[m:]])
        n_primary = 2 * n_pairs
        mapped_primary = 2 * m
        mapq = np.zeros(n_primary, dtype=np.int64)
        mapq[:mapped_primary] = np.where(
            rng.random(mapped_primary) < 0.7, 60,
            rng.integers(0, 60, mapped_primary))
        cigar = np.zeros(n_primary, dtype=np.int64)
        cigar[:mapped_primary] = rng.choice(
            len(_CIGARS), size=mapped_primary, p=_CIGAR_WEIGHTS)
        seq = _BASES[rng.integers(0, 4, (n_primary, READ_LEN), dtype=np.uint8)]
        qual = rng.integers(35, 75, (n_primary, READ_LEN), dtype=np.uint8)

        # -- extras: a second placement of an existing mapped read -------
        src = rng.choice(mapped_primary, size=n_extra, replace=False)
        kind = np.where(rng.random(n_extra) < 0.5, F_SECONDARY,
                        F_SUPPLEMENTARY)
        x_ref = rng.integers(0, len(CHROMS), n_extra)
        x_len = np.array(self.chrom_lengths)[x_ref]
        x_pos = (rng.random(n_extra) * (x_len - 600)).astype(np.int64)
        ref = np.concatenate([ref, x_ref])
        pos = np.concatenate([pos, x_pos])
        nref = np.concatenate([nref, nref[src]])
        npos = np.concatenate([npos, npos[src]])
        flag = np.concatenate([flag, (flag[src] & ~F_PROPER) | kind])
        tlen = np.concatenate([tlen, np.zeros(n_extra, dtype=np.int64)])
        template = np.concatenate([template, template[src]])
        mapq = np.concatenate([mapq, rng.integers(0, 30, n_extra)])
        cigar = np.concatenate(
            [cigar, rng.integers(0, len(_CIGARS), n_extra)])
        seq = np.concatenate([seq, seq[src]])
        qual = np.concatenate([qual, qual[src]])

        # -- coordinate sort, unmapped last ------------------------------
        key = np.where(ref < 0, len(CHROMS), ref) * (1 << 40) \
            + np.where(pos < 0, 0, pos)
        order = np.argsort(key, kind="stable")
        self.ref = ref[order].astype(np.int32)
        self.pos = pos[order].astype(np.int32)
        self.next_ref = nref[order].astype(np.int32)
        self.next_pos = npos[order].astype(np.int32)
        self.flag = flag[order].astype(np.uint16)
        self.tlen = tlen[order].astype(np.int32)
        self.mapq = mapq[order].astype(np.uint8)
        self.cigar = cigar[order].astype(np.int8)
        self.seq = np.ascontiguousarray(seq[order])
        self.qual = np.ascontiguousarray(qual[order])
        self.end = np.where(self.pos < 0, -1,
                            self.pos + _CIGAR_SPAN[self.cigar])
        self.nm = rng.integers(0, 6, self.n).astype(np.uint8)
        self.score = (READ_LEN - 5 * self.nm).astype(np.uint8)
        self.rg = rng.integers(0, len(READ_GROUPS), self.n).astype(np.int8)
        prefix = rng.integers(0, len(NAME_PREFIXES), n_pairs).tolist()
        serial = rng.integers(0, 10 ** 7, n_pairs).tolist()
        names = [f"{NAME_PREFIXES[p]}{t}:{s}"
                 for t, (p, s) in enumerate(zip(prefix, serial))]
        self.names = [names[t] for t in template[order].tolist()]

        self.mapped = (self.flag & F_UNMAPPED) == 0
        self.primary = (self.flag & _NOT_PRIMARY) == 0
        self.reverse = (self.flag & F_REVERSE) != 0
        self.passes_filter = (self.mapped & self.primary
                              & (self.mapq >= FILTER_MIN_MAPQ))
        self.header_text = (
            "@HD\tVN:1.4\tSO:coordinate\n"
            + "".join(f"@SQ\tSN:{c}\tLN:{n}\n" for c, n
                      in zip(self.chrom_names, self.chrom_lengths))
            + "".join(f"@RG\tID:{g}\tSM:bench\n" for g in READ_GROUPS))

    # -- record selections -------------------------------------------------

    def flagstat(self) -> dict[str, int]:
        """The samtools-flagstat categories this mix can tell apart
        (pair categories count primary lines only)."""
        proper = (self.flag & F_PROPER) != 0
        return {
            "total": self.n,
            "secondary": int(((self.flag & F_SECONDARY) != 0).sum()),
            "supplementary": int(
                ((self.flag & F_SUPPLEMENTARY) != 0).sum()),
            "mapped": int(self.mapped.sum()),
            "paired": int(self.primary.sum()),
            "properly_paired": int(
                (self.primary & self.mapped & proper).sum()),
        }

    def covered_bases(self) -> dict[str, int]:
        """Per chromosome, the sum over mapped records of the
        reference bases each spans (= the sum of a coverage histogram)."""
        span = (self.end - self.pos).astype(np.int64)
        return {name: int(span[self.mapped & (self.ref == i)].sum())
                for i, name in enumerate(self.chrom_names)}

    def select(self, region: tuple[int, int, int] | None = None,
               filtered: bool = False) -> np.ndarray:
        """File-order indices of the records a conversion must see:
        those *starting* in ``(ref_id, start, end)`` (0-based half-open;
        None = the whole file), optionally only those passing
        :data:`FILTER_EXPR`."""
        if region is None:
            idx = np.arange(self.n)
        else:
            ref_id, start, end = region
            key = self.ref.astype(np.int64) * (1 << 32) + self.pos
            n_placed = int(self.mapped.sum())
            lo = np.searchsorted(key[:n_placed],
                                 ref_id * (1 << 32) + start, "left")
            hi = np.searchsorted(key[:n_placed],
                                 ref_id * (1 << 32) + end, "left")
            idx = np.arange(lo, hi)
        return idx[self.passes_filter[idx]] if filtered else idx

    def region_text(self, region: tuple[int, int, int]) -> str:
        """samtools-style (1-based inclusive) spelling of *region*."""
        ref_id, start, end = region
        return f"{self.chrom_names[ref_id]}:{start + 1}-{end}"

    def windows(self, rng: np.random.Generator, count: int,
                min_len: int = 20_000, max_len: int = 60_000,
                ) -> list[tuple[int, int, int]]:
        """*count* windows spread evenly over the genome with seeded
        jitter, so every seed covers hot spots and quiet stretches in
        the same proportion."""
        bounds = np.cumsum([0] + self.chrom_lengths)
        out = []
        for i in range(count):
            at = (i + rng.random()) / count * bounds[-1]
            ref_id = int(np.searchsorted(bounds, at, "right") - 1)
            length = int(rng.integers(min_len, max_len + 1))
            chrom_len = self.chrom_lengths[ref_id]
            start = int(min(at - bounds[ref_id],
                            max(0, chrom_len - length)))
            out.append((ref_id, start, min(start + length, chrom_len)))
        return out

    # -- expected outputs ----------------------------------------------------

    def _strings(self, idx: np.ndarray, original: bool,
                 ) -> tuple[list[str], list[str]]:
        """SEQ and QUAL text of *idx*; in instrument orientation when
        *original* (reverse-strand reads are reverse-complemented)."""
        seq, qual = self.seq[idx], self.qual[idx]
        if original:
            rev = self.reverse[idx]
            seq, qual = seq.copy(), qual.copy()
            seq[rev] = _COMPLEMENT[seq[rev][:, ::-1]]
            qual[rev] = qual[rev][:, ::-1]
        k = len(idx)
        s = seq.tobytes().decode("ascii")
        q = qual.tobytes().decode("ascii")
        return ([s[i:i + READ_LEN] for i in range(0, k * READ_LEN, READ_LEN)],
                [q[i:i + READ_LEN] for i in range(0, k * READ_LEN, READ_LEN)])

    def _chrom_text(self, ref: np.ndarray, same_as: np.ndarray | None = None,
                    ) -> list[str]:
        table = self.chrom_names + ["*"]
        if same_as is None:
            return [table[r] for r in ref.tolist()]
        return ["*" if r < 0 else "=" if r == s else table[r]
                for r, s in zip(ref.tolist(), same_as.tolist())]

    def render(self, target: str, idx: np.ndarray) -> bytes:
        """The bytes a correct conversion of records *idx* to *target*
        (``bed``, ``fastq`` or ``sam`` body) must produce."""
        if target == "bed":
            idx = idx[self.mapped[idx]]
            if not len(idx):
                return b""
            names = [self.names[i] for i in idx.tolist()]
            strand = ["-" if r else "+" for r in self.reverse[idx].tolist()]
            cols = zip(self._chrom_text(self.ref[idx]),
                       map(str, self.pos[idx].tolist()),
                       map(str, self.end[idx].tolist()), names,
                       map(str, self.mapq[idx].tolist()), strand)
            lines = ["\t".join(c) for c in cols]
        elif target == "fastq":
            idx = idx[self.primary[idx]]
            if not len(idx):
                return b""
            seq, qual = self._strings(idx, original=True)
            mate = np.where(self.flag[idx] & F_READ1, 1, 2).tolist()
            lines = [f"@{self.names[i]}/{m}\n{s}\n+\n{q}"
                     for i, m, s, q in zip(idx.tolist(), mate, seq, qual)]
        elif target == "sam":
            if not len(idx):
                return b""
            seq, qual = self._strings(idx, original=False)
            mapped = self.mapped[idx].tolist()
            cigar = [CIGAR_TEXT[c] if ok else "*" for c, ok
                     in zip(self.cigar[idx].tolist(), mapped)]
            tags = [f"NM:i:{nm}\tAS:i:{sc}\tRG:Z:{READ_GROUPS[g]}"
                    for nm, sc, g in zip(self.nm[idx].tolist(),
                                         self.score[idx].tolist(),
                                         self.rg[idx].tolist())]
            cols = zip([self.names[i] for i in idx.tolist()],
                       map(str, self.flag[idx].tolist()),
                       self._chrom_text(self.ref[idx]),
                       map(str, (self.pos[idx] + 1).tolist()),
                       map(str, self.mapq[idx].tolist()), cigar,
                       self._chrom_text(self.next_ref[idx], self.ref[idx]),
                       map(str, (self.next_pos[idx] + 1).tolist()),
                       map(str, self.tlen[idx].tolist()), seq, qual, tags)
            lines = ["\t".join(c) for c in cols]
        else:
            raise ValueError(f"no oracle for target {target!r}")
        lines.append("")
        return "\n".join(lines).encode("ascii")

    def expect(self, target: str, region: tuple[int, int, int] | None = None,
               filtered: bool = False) -> "Expected":
        """Digest and line count of the correct *target* output."""
        idx = self.select(region, filtered)
        body = self.render(target, idx)
        return Expected(hashlib.sha256(body).hexdigest(),
                        body.count(b"\n"), len(idx))

    # -- input files ---------------------------------------------------------

    def write_sam(self, path: str) -> int:
        """Write the dataset as SAM text; return the file size."""
        body = self.render("sam", np.arange(self.n))
        with open(path, "wb") as fh:
            fh.write(self.header_text.encode("ascii"))
            fh.write(body)
        return len(self.header_text) + len(body)

    def bam_bytes(self) -> bytes:
        """The uncompressed BAM stream (header + alignment blocks)."""
        n = self.n
        text = self.header_text.encode("ascii")
        head = [b"BAM\x01", struct.pack("<i", len(text)), text,
                struct.pack("<i", len(CHROMS))]
        for name, length in zip(self.chrom_names, self.chrom_lengths):
            raw = name.encode("ascii") + b"\x00"
            head.append(struct.pack("<i", len(raw)) + raw
                        + struct.pack("<i", length))
        names = [s.encode("ascii") + b"\x00" for s in self.names]
        name_len = np.fromiter(map(len, names), dtype=np.int64, count=n)
        n_cigar = np.where(
            self.mapped,
            np.array([len(c) // 4 for c in _CIGAR_BYTES])[self.cigar], 0)
        fixed = np.zeros(n, dtype=np.dtype([
            ("block_size", "<i4"), ("ref", "<i4"), ("pos", "<i4"),
            ("l_name", "u1"), ("mapq", "u1"), ("bin", "<u2"),
            ("n_cigar", "<u2"), ("flag", "<u2"), ("l_seq", "<i4"),
            ("next_ref", "<i4"), ("next_pos", "<i4"), ("tlen", "<i4")]))
        tag_size = 16
        fixed["block_size"] = (32 + name_len + 4 * n_cigar
                               + READ_LEN // 2 + READ_LEN + tag_size)
        fixed["ref"], fixed["pos"] = self.ref, self.pos
        fixed["l_name"], fixed["mapq"] = name_len, self.mapq
        fixed["bin"] = np.where(
            self.mapped, reg2bin(self.pos.astype(np.int64),
                                 self.end.astype(np.int64)), 4680)
        fixed["n_cigar"], fixed["flag"] = n_cigar, self.flag
        fixed["l_seq"] = READ_LEN
        fixed["next_ref"], fixed["next_pos"] = self.next_ref, self.next_pos
        fixed["tlen"] = self.tlen
        nyb = _NYBBLE[self.seq]
        packed = (nyb[:, 0::2] << 4 | nyb[:, 1::2]).tobytes()
        tags = np.zeros(n, dtype=np.dtype([
            ("nm_k", "S3"), ("nm", "u1"), ("as_k", "S3"), ("as", "u1"),
            ("rg_k", "S3"), ("rg", "S5")]))
        tags["nm_k"], tags["nm"] = b"NMC", self.nm
        tags["as_k"], tags["as"] = b"ASC", self.score
        tags["rg_k"] = b"RGZ"
        tags["rg"] = np.array([g.encode("ascii") for g in READ_GROUPS],
                              dtype="S5")[self.rg]
        cigars = [_CIGAR_BYTES[c] if ok else b"" for c, ok
                  in zip(self.cigar.tolist(), self.mapped.tolist())]
        pieces = zip(_rows(fixed.tobytes(), 36, n), names, cigars,
                     _rows(packed, READ_LEN // 2, n),
                     _rows((self.qual - 33).tobytes(), READ_LEN, n),
                     _rows(tags.tobytes(), tag_size, n))
        return b"".join(head) + b"".join(b"".join(p) for p in pieces)

    def write_bam(self, path: str, level: int = 6) -> int:
        """Write the dataset as BAM; return the file size."""
        data = bgzf_compress(self.bam_bytes(), level)
        with open(path, "wb") as fh:
            fh.write(data)
        return len(data)


class Expected(NamedTuple):
    """What a correct output looks like: body digest, line count, and
    how many input records the conversion had to visit."""

    sha256: str
    lines: int
    records: int
