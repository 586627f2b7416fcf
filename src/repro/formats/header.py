"""SAM header model (the ``@``-prefixed comment lines).

A header is an ordered list of records; each record has a two-character
type (``HD``, ``SQ``, ``RG``, ``PG``, ``CO``) and, except for ``CO``
(free-text comment), a list of ``KE:value`` fields.  The header carries the
reference-sequence dictionary (``@SQ`` lines) that BAM, BAI and BAIX all
key on, so :class:`SamHeader` exposes the reference names/lengths in their
declaration order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import SamFormatError

_TYPE_RE = re.compile(r"^@([A-Za-z][A-Za-z])$")
_KEY_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]$")

#: Header record types defined by the SAM specification.
KNOWN_TYPES = ("HD", "SQ", "RG", "PG", "CO")


@dataclass(slots=True)
class HeaderLine:
    """One header record: *type* plus ordered *fields* (or comment text)."""

    type: str
    fields: list[tuple[str, str]] = field(default_factory=list)
    comment: str = ""

    def get(self, key: str) -> str | None:
        """Return the first value of *key*, or None."""
        for k, v in self.fields:
            if k == key:
                return v
        return None

    def to_sam(self) -> str:
        """Render back to a SAM header line (including leading ``@``)."""
        if self.type == "CO":
            return f"@CO\t{self.comment}"
        cols = "\t".join(f"{k}:{v}" for k, v in self.fields)
        return f"@{self.type}\t{cols}" if cols else f"@{self.type}"


@dataclass(slots=True)
class Reference:
    """One reference sequence from an ``@SQ`` line: name and length."""

    name: str
    length: int


class SamHeader:
    """Ordered SAM header with a derived reference dictionary.

    Parameters
    ----------
    lines:
        Parsed :class:`HeaderLine` records, in file order.
    """

    def __init__(self, lines: list[HeaderLine] | None = None) -> None:
        self.lines: list[HeaderLine] = list(lines or [])
        self._refresh_references()

    def _refresh_references(self) -> None:
        self.references: list[Reference] = []
        self._ref_index: dict[str, int] = {}
        for line in self.lines:
            if line.type != "SQ":
                continue
            name = line.get("SN")
            length = line.get("LN")
            if name is None or length is None:
                raise SamFormatError("@SQ line missing SN or LN field")
            try:
                ln = int(length)
            except ValueError:
                raise SamFormatError(
                    f"@SQ LN value {length!r} is not an integer") from None
            if ln <= 0:
                raise SamFormatError(f"@SQ LN value {ln} must be positive")
            if name in self._ref_index:
                raise SamFormatError(f"duplicate @SQ reference {name!r}")
            self._ref_index[name] = len(self.references)
            self.references.append(Reference(name, ln))

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "SamHeader":
        """Parse a block of ``@`` lines (as found at the top of a SAM file
        or in the ``text`` field of a BAM header)."""
        lines = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            if not raw:
                continue
            lines.append(parse_header_line(raw, lineno=lineno))
        return cls(lines)

    @classmethod
    def from_references(cls, references: list[Reference] | list[tuple[str, int]],
                        sort_order: str = "unknown") -> "SamHeader":
        """Build a minimal header (``@HD`` + one ``@SQ`` per reference)."""
        lines = [HeaderLine("HD", [("VN", "1.4"), ("SO", sort_order)])]
        for ref in references:
            if isinstance(ref, tuple):
                name, length = ref
            else:
                name, length = ref.name, ref.length
            lines.append(HeaderLine("SQ", [("SN", name), ("LN", str(length))]))
        return cls(lines)

    # -- queries ----------------------------------------------------------

    def ref_id(self, name: str) -> int:
        """Return the 0-based reference id of *name* (BAM refID)."""
        try:
            return self._ref_index[name]
        except KeyError:
            raise SamFormatError(f"unknown reference {name!r}") from None

    def ref_name(self, ref_id: int) -> str:
        """Return the reference name for a 0-based BAM refID."""
        if not 0 <= ref_id < len(self.references):
            raise SamFormatError(f"reference id {ref_id} out of range")
        return self.references[ref_id].name

    def ref_ids(self, rname: str, rnext: str) -> tuple[int, int]:
        """``(refID, next_refID)`` of a record's RNAME/RNEXT columns:
        ``-1`` for ``*``, the record's own reference for ``=``."""
        ref_id = -1 if rname == "*" else self.ref_id(rname)
        if rnext == "*":
            return ref_id, -1
        return ref_id, ref_id if rnext == "=" else self.ref_id(rnext)

    def ref_names(self, ref_id: int, next_ref: int) -> tuple[str, str]:
        """Inverse of :meth:`ref_ids`: ``(RNAME, RNEXT)`` columns."""
        rname = "*" if ref_id < 0 else self.ref_name(ref_id)
        if next_ref < 0:
            return rname, "*"
        return rname, "=" if next_ref == ref_id else self.ref_name(next_ref)

    def has_reference(self, name: str) -> bool:
        """Return True if *name* appears in the reference dictionary."""
        return name in self._ref_index

    @property
    def sort_order(self) -> str:
        """The ``@HD SO`` value, defaulting to ``unknown``."""
        for line in self.lines:
            if line.type == "HD":
                return line.get("SO") or "unknown"
        return "unknown"

    def with_sort_order(self, order: str) -> "SamHeader":
        """Return a copy whose ``@HD SO`` field is *order*."""
        lines = [HeaderLine(l.type, list(l.fields), l.comment)
                 for l in self.lines]
        for line in lines:
            if line.type == "HD":
                line.fields = [(k, order if k == "SO" else v)
                               for k, v in line.fields]
                if line.get("SO") is None:
                    line.fields.append(("SO", order))
                break
        else:
            lines.insert(0, HeaderLine("HD", [("VN", "1.4"), ("SO", order)]))
        return SamHeader(lines)

    # -- output -----------------------------------------------------------

    def to_text(self) -> str:
        """Render the header block; empty string for an empty header,
        otherwise newline-terminated."""
        if not self.lines:
            return ""
        return "\n".join(l.to_sam() for l in self.lines) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SamHeader):
            return NotImplemented
        return self.to_text() == other.to_text()

    def __repr__(self) -> str:
        return (f"SamHeader({len(self.lines)} lines, "
                f"{len(self.references)} references)")


def parse_header_line(raw: str, *, lineno: int | None = None) -> HeaderLine:
    """Parse one ``@``-prefixed SAM header line."""
    if not raw.startswith("@"):
        raise SamFormatError("header line must start with '@'", lineno=lineno)
    cols = raw.rstrip("\n").split("\t")
    m = _TYPE_RE.match(cols[0])
    if not m:
        raise SamFormatError(f"invalid header record type {cols[0]!r}",
                             lineno=lineno)
    rtype = m.group(1)
    if rtype == "CO":
        return HeaderLine("CO", comment="\t".join(cols[1:]))
    fields: list[tuple[str, str]] = []
    for col in cols[1:]:
        if ":" not in col:
            raise SamFormatError(
                f"header field {col!r} is not KEY:value", lineno=lineno)
        key, value = col.split(":", 1)
        if not _KEY_RE.match(key):
            raise SamFormatError(f"invalid header field key {key!r}",
                                 lineno=lineno)
        fields.append((key, value))
    return HeaderLine(rtype, fields)
