"""Write-ahead job journal: crash-durable JSONL log of job state.

The worker pool holds every job in memory, so a daemon crash used to
lose the whole queue.  The journal fixes that with the standard
write-ahead discipline: every submission and every state transition is
appended to an append-only JSONL file *before* the in-memory change
becomes visible, and a restarted service replays the file to rebuild
the queue — same job ids, same attempt counts, same results for jobs
that already finished.

Record grammar (one JSON object per line)::

    {"event": "submit",     "job": {<Job.to_spec()>}}
    {"event": "transition", "job_id": ..., "to": "running",
     "attempts": N, "error": ..., "result": ...,
     "started_at": ..., "finished_at": ...}
    {"event": "id_floor",   "seq": N}

Replay folds the records in order: ``submit`` (re)creates the job
spec, ``transition`` updates it, ``id_floor`` (written by compaction
once the pool has forgotten old finished jobs) keeps the highest job-id
sequence no longer in the file, so new ids never reuse one.  A torn
tail — the half-line a crash leaves behind — and corrupt interior
lines are *skipped and counted*, never fatal: the journal exists
precisely for processes that died mid-write.

Compaction rewrites the file as one ``submit`` record per job the pool
still retains, holding its current spec (atomic ``os.replace`` of a
fsynced temp file), and runs automatically once ``compact_threshold``
records accumulate.

Durability is configurable per deployment through the fsync policy:

* ``always``   — fsync after every append (every acknowledged record
  survives power loss);
* ``interval`` — flush every append, fsync at most once per
  ``fsync_interval`` seconds (bounded-loss window, default);
* ``never``    — flush to the OS only (survives process crashes, not
  power loss).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any

from ..defaults import FSYNC_POLICIES
from ..errors import JournalError
from ..runtime import faults
from .jobs import Job, job_id_sequence


class JobJournal:
    """Append-only JSONL write-ahead log of job state.

    Parameters
    ----------
    path:
        Journal file; created (with its parent directory) on demand.
    fsync:
        One of :data:`FSYNC_POLICIES`.
    fsync_interval:
        Maximum staleness of the ``interval`` policy's last fsync.
    compact_threshold:
        Auto-compact after this many appended records (``None``
        disables auto-compaction; :meth:`compact` always works).
    """

    def __init__(self, path: str | os.PathLike[str],
                 fsync: str = "interval",
                 fsync_interval: float = 0.2,
                 compact_threshold: int | None = 10_000) -> None:
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"unknown fsync policy {fsync!r}; choose from "
                f"{FSYNC_POLICIES}")
        if compact_threshold is not None and compact_threshold < 1:
            raise JournalError(
                f"compact_threshold {compact_threshold} must be >= 1")
        self.path = os.fspath(path)
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.compact_threshold = compact_threshold
        self._lock = threading.RLock()
        self._last_fsync = 0.0
        self._records_since_compact = 0
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._fh = open(self.path, "ab")
        self._seal_torn_tail()

    def _seal_torn_tail(self) -> None:
        # A crash mid-append can leave a half-written last line with
        # no trailing newline.  Appending straight after it would glue
        # the next record onto the torn fragment, and replay would
        # drop *both* as one bad_line — turning a harmless torn tail
        # into a lost acknowledged record.  Sealing the tail with a
        # newline confines the damage to the torn line itself.
        try:
            if os.path.getsize(self.path) == 0:
                return
            with open(self.path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                torn = probe.read(1) != b"\n"
            if torn:
                self._fh.write(b"\n")
                self._fh.flush()
                if self.fsync != "never":
                    os.fsync(self._fh.fileno())
        except OSError as exc:
            raise JournalError(
                f"cannot repair journal tail {self.path}: {exc}") \
                from None

    # -- writing -----------------------------------------------------

    def append_submit(self, job: Job) -> None:
        """Journal a job submission (call *before* enqueueing it)."""
        self._append({"event": "submit", "job": job.to_spec()})

    def append_transition(self, job: Job) -> None:
        """Journal the state *job* just transitioned into."""
        self._append({
            "event": "transition",
            "job_id": job.job_id,
            "to": job.state.value,
            "attempts": job.attempts,
            "error": job.error,
            "result": job.result,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
        })

    def _append(self, record: dict[str, Any]) -> None:
        try:
            data = json.dumps(record, separators=(",", ":"),
                              allow_nan=False).encode("utf-8") + b"\n"
        except (TypeError, ValueError) as exc:
            raise JournalError(
                f"unserializable journal record: {exc}") from None
        with self._lock:
            if self._fh.closed:
                raise JournalError(
                    f"journal {self.path} is closed")
            faults.fire("journal.append")
            data = faults.corrupt("journal.append", data)
            try:
                self._fh.write(data)
                self._fh.flush()
                self._maybe_fsync()
            except OSError as exc:
                raise JournalError(
                    f"cannot append to journal {self.path}: {exc}") \
                    from None
            self._records_since_compact += 1

    def _maybe_fsync(self) -> None:
        # Called with the lock held, after a flushed write.
        if self.fsync == "never":
            return
        now = time.monotonic()
        if self.fsync == "interval" \
                and now - self._last_fsync < self.fsync_interval:
            return
        os.fsync(self._fh.fileno())
        self._last_fsync = now

    def needs_compact(self) -> bool:
        """Whether the record budget is exhausted (cheap pre-check)."""
        with self._lock:
            return self.compact_threshold is not None \
                and self._records_since_compact \
                >= self.compact_threshold

    def maybe_compact(self, jobs: list[Job], id_floor: int = 0) -> bool:
        """Auto-compact when the record budget is exhausted.

        The pool calls this opportunistically after journaling; it
        returns whether a compaction ran.  The threshold re-check and
        the compaction itself happen under one hold of the journal
        lock, so two racing callers cannot both rewrite the file.

        .. warning:: *jobs* must be a complete snapshot that cannot go
           stale while this call runs — the caller is responsible for
           excluding concurrent submits (see
           :meth:`WorkerPool.compact_journal`, which holds the
           scheduler lock across snapshot and compaction).  A submit
           appended to the old file after the snapshot would be erased
           by the rewrite.
        """
        with self._lock:
            if not self.needs_compact():
                return False
            self.compact(jobs, id_floor)
        return True

    def compact(self, jobs: list[Job], id_floor: int = 0) -> None:
        """Atomically rewrite the journal as one record per job (plus
        an ``id_floor`` record when ids were forgotten).

        The snapshot is written to a temp file, fsynced, and
        ``os.replace``d over the journal, so a crash during compaction
        leaves either the old log or the new snapshot — never a mix.
        """
        tmp_path = self.path + ".compact"
        with self._lock:
            try:
                records = [{"event": "submit", "job": job.to_spec()}
                           for job in jobs]
                if id_floor > 0:
                    records.insert(0, {"event": "id_floor",
                                       "seq": id_floor})
                with open(tmp_path, "wb") as tmp:
                    for record in records:
                        tmp.write(json.dumps(
                            record, separators=(",", ":"),
                            allow_nan=False).encode("utf-8") + b"\n")
                    tmp.flush()
                    os.fsync(tmp.fileno())
                if not self._fh.closed:
                    self._fh.close()
                os.replace(tmp_path, self.path)
            except OSError as exc:
                if os.path.exists(tmp_path):
                    os.unlink(tmp_path)
                raise JournalError(
                    f"cannot compact journal {self.path}: {exc}") \
                    from None
            finally:
                if self._fh.closed:
                    self._fh = open(self.path, "ab")
            self._records_since_compact = 0

    def close(self) -> None:
        """Flush, fsync (unless ``never``) and close the file."""
        with self._lock:
            if self._fh.closed:
                return
            self._fh.flush()
            if self.fsync != "never":
                os.fsync(self._fh.fileno())
            self._fh.close()


def replay(path: str | os.PathLike[str],
           ) -> tuple[dict[str, dict[str, Any]], dict[str, int]]:
    """Fold a journal file into the latest spec per job.

    Returns ``(specs, stats)`` where *specs* maps job id to the job's
    most recent :meth:`Job.to_spec` view in submission order, and
    *stats* counts ``records``, ``bad_lines`` (torn tail / corrupt
    interior lines, skipped), ``orphan_transitions`` (transitions
    whose submit record was lost to corruption, skipped) and carries
    ``id_floor`` (highest forgotten job-id sequence, 0 if none).
    """
    specs: dict[str, dict[str, Any]] = {}
    stats = {"records": 0, "bad_lines": 0, "orphan_transitions": 0,
             "id_floor": 0}
    path = os.fspath(path)
    if not os.path.exists(path):
        return specs, stats
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except (UnicodeDecodeError, ValueError):
                stats["bad_lines"] += 1
                continue
            event = record.get("event")
            if event == "submit":
                job = record.get("job")
                if not isinstance(job, dict) or "job_id" not in job:
                    stats["bad_lines"] += 1
                    continue
                specs[job["job_id"]] = job
            elif event == "transition":
                spec = specs.get(record.get("job_id"))
                if spec is None:
                    stats["orphan_transitions"] += 1
                    continue
                spec["state"] = record.get("to", spec["state"])
                spec["attempts"] = record.get("attempts",
                                              spec["attempts"])
                spec["error"] = record.get("error")
                spec["result"] = record.get("result")
                spec["started_at"] = record.get("started_at")
                spec["finished_at"] = record.get("finished_at")
            elif event == "id_floor" \
                    and isinstance(record.get("seq"), int):
                stats["id_floor"] = max(stats["id_floor"], record["seq"])
            else:
                stats["bad_lines"] += 1
                continue
            stats["records"] += 1
    return specs, stats


def high_water_mark(specs: dict[str, dict[str, Any]]) -> int:
    """Highest numeric job-id sequence in replayed *specs* (0 if
    none); seeds :func:`~repro.service.jobs.seed_job_counter`."""
    if not specs:
        return 0
    return max(job_id_sequence(job_id) for job_id in specs)
