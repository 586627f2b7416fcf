"""Structural validation of alignment files (Picard ValidateSamFile
equivalent).

Checks performed, each yielding a coded :class:`ValidationIssue`:

==============================  ==========================================
code                            meaning
==============================  ==========================================
``RECORD_INVALID``              a record fails AlignmentRecord.validate()
``UNKNOWN_REFERENCE``           RNAME/RNEXT not in the header dictionary
``POS_BEYOND_REFERENCE``        POS (or end) exceeds the reference length
``MISSING_HEADER``              mapped records but no @SQ dictionary
``NOT_COORDINATE_SORTED``       @HD says coordinate but records are not
``MATE_INCONSISTENT``           paired primary mates disagree on position
``DUPLICATE_PRIMARY``           >2 primary lines for one template
==============================  ==========================================

Validation is streaming except for mate cross-checks, which buffer one
small entry per template name.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..errors import FormatError, SamFormatError
from ..formats.flags import Flag, is_primary
from ..formats.header import SamHeader
from ..formats.record import AlignmentRecord


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    """One finding: severity ("error"/"warning"), code, context."""

    severity: str
    code: str
    message: str
    record_index: int | None = None


@dataclass(slots=True)
class ValidationReport:
    """All findings plus summary counters."""

    issues: list[ValidationIssue] = field(default_factory=list)
    records_checked: int = 0

    @property
    def errors(self) -> list[ValidationIssue]:
        """Only the error-severity findings."""
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> list[ValidationIssue]:
        """Only the warning-severity findings."""
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no errors were found (warnings allowed)."""
        return not self.errors

    def add(self, severity: str, code: str, message: str,
            record_index: int | None = None) -> None:
        """Record one finding."""
        self.issues.append(ValidationIssue(severity, code, message,
                                           record_index))

    def format_report(self, limit: int = 20) -> str:
        """Human-readable summary (first *limit* findings)."""
        lines = [f"checked {self.records_checked} records: "
                 f"{len(self.errors)} errors, "
                 f"{len(self.warnings)} warnings"]
        for issue in self.issues[:limit]:
            where = "" if issue.record_index is None \
                else f" [record {issue.record_index}]"
            lines.append(f"  {issue.severity.upper()} {issue.code}"
                         f"{where}: {issue.message}")
        if len(self.issues) > limit:
            lines.append(f"  ... and {len(self.issues) - limit} more")
        return "\n".join(lines)


@dataclass(slots=True)
class _MateInfo:
    rname: str
    pos: int
    pnext: int
    rnext: str
    reverse: bool
    mate_reverse: bool


def validate_records(records: Iterable[AlignmentRecord],
                     header: SamHeader,
                     check_mates: bool = True) -> ValidationReport:
    """Validate an in-memory record stream against *header*."""
    report = ValidationReport()
    ref_lengths = {r.name: r.length for r in header.references}
    sorted_claim = header.sort_order == "coordinate"
    last_key: tuple[int, int] | None = None
    mates: dict[tuple[str, int], _MateInfo] = {}
    primary_seen: dict[tuple[str, int], int] = {}
    for index, record in enumerate(records):
        report.records_checked += 1
        try:
            record.validate()
        except (SamFormatError, FormatError) as exc:
            report.add("error", "RECORD_INVALID", str(exc), index)
            continue
        if record.rname != "*":
            if not ref_lengths:
                report.add("error", "MISSING_HEADER",
                           "mapped record but no @SQ reference "
                           "dictionary", index)
            elif record.rname not in ref_lengths:
                report.add("error", "UNKNOWN_REFERENCE",
                           f"RNAME {record.rname!r} not in header",
                           index)
            else:
                length = ref_lengths[record.rname]
                if record.pos >= length or record.end > length:
                    report.add("error", "POS_BEYOND_REFERENCE",
                               f"{record.rname}:{record.pos} (end "
                               f"{record.end}) beyond length {length}",
                               index)
                if sorted_claim and record.pos >= 0:
                    key = (header.ref_id(record.rname), record.pos)
                    if last_key is not None and key < last_key:
                        report.add("error", "NOT_COORDINATE_SORTED",
                                   "@HD SO:coordinate but records are "
                                   "out of order", index)
                        sorted_claim = False  # report once
                    last_key = key
        if record.rnext not in ("*", "=") and ref_lengths \
                and record.rnext not in ref_lengths:
            report.add("error", "UNKNOWN_REFERENCE",
                       f"RNEXT {record.rnext!r} not in header", index)
        if check_mates and record.is_paired and is_primary(record.flag):
            mate_no = record.mate_number
            if mate_no in (1, 2):
                own = (record.qname, mate_no)
                count = primary_seen.get(own, 0) + 1
                primary_seen[own] = count
                if count > 1:
                    report.add("error", "DUPLICATE_PRIMARY",
                               f"template {record.qname!r} has {count} "
                               f"primary read{mate_no} lines", index)
                other = (record.qname, 3 - mate_no)
                if other in mates:
                    _check_mate_pair(record, mates.pop(other), index,
                                     report)
                else:
                    rn = record.rname if record.is_mapped else "*"
                    mates[(record.qname, mate_no)] = _MateInfo(
                        rn, record.pos, record.pnext, record.rnext,
                        record.is_reverse,
                        bool(record.flag & Flag.MATE_REVERSE))
    return report


def _check_mate_pair(record: AlignmentRecord, other: _MateInfo,
                     index: int, report: ValidationReport) -> None:
    """Cross-check one primary pair's mutual mate fields."""
    if not record.is_mapped or other.rname == "*":
        return  # unmapped sides carry no coordinates to cross-check
    if record.pnext != other.pos:
        report.add("error", "MATE_INCONSISTENT",
                   f"template {record.qname!r}: PNEXT {record.pnext} != "
                   f"mate POS {other.pos}", index)
    if other.pnext != record.pos:
        report.add("error", "MATE_INCONSISTENT",
                   f"template {record.qname!r}: mate PNEXT "
                   f"{other.pnext} != POS {record.pos}", index)
    if bool(record.flag & Flag.MATE_REVERSE) != other.reverse:
        report.add("warning", "MATE_INCONSISTENT",
                   f"template {record.qname!r}: MATE_REVERSE flag "
                   f"disagrees with mate orientation", index)


def validate_file(path: str | os.PathLike[str],
                  check_mates: bool = True) -> ValidationReport:
    """Validate a SAM, BAM or record-store file on disk."""
    from ..core.base import open_records
    with open_records(path, "repro validate") as (header, records):
        return validate_records(records, header, check_mates)
