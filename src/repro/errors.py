"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one base class at pipeline
boundaries.  Subclasses distinguish the layer that failed: format codecs,
indexing, the parallel runtime, or conversion orchestration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FormatError(ReproError):
    """A file or record violates its format specification.

    Parameters
    ----------
    message:
        Human-readable description of the violation.
    source:
        Optional name of the offending file or stream.
    lineno:
        Optional 1-based line (text formats) or record index (binary
        formats) at which the violation was detected.
    """

    def __init__(self, message: str, *, source: str | None = None,
                 lineno: int | None = None) -> None:
        self.source = source
        self.lineno = lineno
        prefix = ""
        if source is not None:
            prefix += f"{source}: "
        if lineno is not None:
            prefix += f"record {lineno}: "
        super().__init__(prefix + message)


class SamFormatError(FormatError):
    """A SAM text line or header violates the SAM specification."""


class BamFormatError(FormatError):
    """A BAM binary stream violates the BAM specification."""


class BgzfError(FormatError):
    """A BGZF block stream is malformed or truncated."""


class BamxFormatError(FormatError):
    """A BAMX file violates its fixed-record layout."""


class IndexError_(ReproError):
    """An index (BAI or BAIX) is missing, stale, or inconsistent."""


class RegionError(ReproError):
    """A genomic region string or interval is invalid for the dataset."""


class RuntimeLayerError(ReproError):
    """The parallel runtime was misused (unknown executor, no rank
    specs, bad shard count) or a pool worker died."""


class PartitionError(RuntimeLayerError):
    """Byte-range or record-range partitioning produced an invalid split."""


class ConversionError(ReproError):
    """Format conversion could not be completed."""


class CapacityError(BamxFormatError):
    """A record exceeds the fixed field capacities of a BAMX layout."""


class FaultInjectedError(ReproError):
    """An armed fault-injection point fired (see
    :mod:`repro.runtime.faults`).  Only ever raised under an explicit
    ``REPRO_FAULTS`` configuration — production code never sees it."""


class ServiceError(ReproError):
    """The conversion job service was misused or failed internally."""


class CacheIntegrityError(ServiceError):
    """A cache entry failed digest verification.  The offending entry
    has already been quarantined when this is raised; callers can
    retry and will rebuild from the source input."""


class JournalError(ServiceError):
    """The job journal could not be written or replayed."""


class JobNotFoundError(ServiceError):
    """A job id does not name any job known to the service."""


class ProtocolError(ServiceError):
    """A client/daemon line-JSON message is malformed."""


class ServiceOverloadedError(ServiceError):
    """The gateway refused an operation because the service is at its
    admission limit (or draining for shutdown).  Explicit backpressure:
    callers should retry later instead of queueing unboundedly."""
