"""Deterministic fault injection for the service's recovery paths.

Crash recovery, cache quarantine and journal replay are only real if
something exercises them.  This module provides a process-global
registry of *named injection points* compiled into the code paths that
must survive faults; a disarmed point costs one module-global boolean
check, so production runs pay nothing.

Points are armed through the ``REPRO_FAULTS`` environment variable (or
:func:`arm` directly)::

    REPRO_FAULTS="cache.fetch:partial-write:1.0:7,journal.append:delay"

Each comma-separated spec is ``point:kind[:prob[:seed]]``:

``point``
    One of the catalog in :data:`POINTS` (arming an unknown point is
    an error — a typo must not silently disarm a test).
``kind``
    * ``exception`` — raise :class:`~repro.errors.FaultInjectedError`;
    * ``delay`` — sleep :data:`DELAY_SECONDS`, then continue;
    * ``partial-write`` — truncate the bytes being written (only at
      write-shaped call sites; elsewhere it degrades to ``exception``);
    * ``crash`` — ``os._exit(CRASH_EXIT_CODE)``, simulating SIGKILL.
``prob``
    Per-evaluation fire probability (default 1.0).
``seed``
    Seed of the point's private :class:`random.Random` (default 0), so
    a given spec fires on exactly the same evaluation sequence in
    every run.

Call sites use :func:`fire` (control-flow faults) and
:func:`corrupt` / :func:`should_corrupt` (data faults)::

    faults.fire("scheduler.attempt")
    payload = faults.corrupt("journal.append", payload)

The registry is armed from the environment at import time, so armed
subprocesses (``repro serve`` under the crash smoke test) need no code
changes, and :func:`snapshot` reports evaluation/fire counters per
point for assertions.
"""

from __future__ import annotations

import os
import random
import threading
import time

from ..errors import FaultInjectedError, ReproError

#: Catalog of injection points compiled into the codebase.
POINTS = (
    "cache.build",        # ArtifactCache._build, after the builder ran
    "cache.fetch",        # ArtifactCache verification on every fetch
    "cache.digest",       # ArtifactCache._digest, before reading a file
    "journal.append",     # JobJournal.append, around the write
    "scheduler.attempt",  # WorkerPool, at the start of each attempt
    "gateway.dispatch",   # Dispatcher.dispatch, before op routing
    "shard.batch",        # SAM converter, once per slab of lines
    "preprocess.rank",    # a BAM opened on ranks, each inflate/encode rank
    "merge.copy",         # merge_shard_outputs, before each part it joins
    "output.write",       # a part file, before its publish (short write)
    "shard.done",         # merge_shard_outputs, each complete shard part
    "store.publish",      # publishing, before a store's moves
)

#: Fault kinds a point can be armed with.
KINDS = ("exception", "delay", "partial-write", "crash")

#: Sleep injected by ``delay`` faults.
DELAY_SECONDS = 0.05

#: Exit code of ``crash`` faults (distinguishable from real crashes).
CRASH_EXIT_CODE = 86


class _ArmedPoint:
    """Mutable state of one armed injection point."""

    __slots__ = ("point", "kind", "prob", "seed", "rng",
                 "evaluations", "fires")

    def __init__(self, point: str, kind: str, prob: float,
                 seed: int) -> None:
        self.point = point
        self.kind = kind
        self.prob = prob
        self.seed = seed
        self.rng = random.Random(seed)
        self.evaluations = 0
        self.fires = 0

    def should_fire(self) -> bool:
        self.evaluations += 1
        if self.prob >= 1.0 or self.rng.random() < self.prob:
            self.fires += 1
            return True
        return False


_lock = threading.Lock()
_points: dict[str, _ArmedPoint] = {}
#: Fast-path flag: the *only* thing a disarmed :func:`fire` reads.
_armed = False


def parse_spec(text: str) -> list[tuple[str, str, float, int]]:
    """Parse a ``REPRO_FAULTS`` value into (point, kind, prob, seed)
    tuples; raises :class:`~repro.errors.ReproError` on any typo."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) < 2 or len(fields) > 4:
            raise ReproError(
                f"bad fault spec {part!r}; want "
                f"point:kind[:prob[:seed]]")
        point, kind = fields[0], fields[1]
        if point not in POINTS:
            raise ReproError(
                f"unknown fault point {point!r}; choose from {POINTS}")
        if kind not in KINDS:
            raise ReproError(
                f"unknown fault kind {kind!r}; choose from {KINDS}")
        try:
            prob = float(fields[2]) if len(fields) > 2 else 1.0
            seed = int(fields[3]) if len(fields) > 3 else 0
        except ValueError as exc:
            raise ReproError(f"bad fault spec {part!r}: {exc}") \
                from None
        if not 0.0 <= prob <= 1.0:
            raise ReproError(
                f"bad fault spec {part!r}: prob {prob} not in [0, 1]")
        out.append((point, kind, prob, seed))
    return out


def arm(spec: str) -> None:
    """Arm the registry from a ``REPRO_FAULTS``-style spec string.

    Replaces any previous arming (one coherent configuration at a
    time); an empty spec disarms.
    """
    global _armed
    parsed = parse_spec(spec)
    with _lock:
        _points.clear()
        for point, kind, prob, seed in parsed:
            _points[point] = _ArmedPoint(point, kind, prob, seed)
        _armed = bool(_points)


def arm_from_env() -> None:
    """Arm from ``REPRO_FAULTS`` if set (no-op otherwise)."""
    spec = os.environ.get("REPRO_FAULTS")
    if spec:
        arm(spec)


def disarm() -> None:
    """Disarm every point (restores zero-overhead operation)."""
    global _armed
    with _lock:
        _points.clear()
        _armed = False


def is_armed(point: str | None = None) -> bool:
    """Whether anything (or a specific *point*) is armed."""
    if not _armed:
        return False
    with _lock:
        return bool(_points) if point is None else point in _points


def fire(point: str) -> None:
    """Evaluate injection point *point* for control-flow faults.

    No-op unless the registry is armed at this point and the point's
    probability fires.  ``partial-write`` does not trigger here — data
    corruption only makes sense where bytes flow through
    :func:`corrupt`/:func:`should_corrupt`; a ``partial-write`` spec
    still fires at byte-level call sites only.
    """
    if not _armed:
        return
    with _lock:
        armed = _points.get(point)
        if armed is None or armed.kind == "partial-write" \
                or not armed.should_fire():
            return
        kind = armed.kind
    if kind == "exception":
        raise FaultInjectedError(f"injected fault at {point}")
    if kind == "delay":
        time.sleep(DELAY_SECONDS)
        return
    # kind == "crash": die the way SIGKILL would — no cleanup, no
    # atexit, no flushing; recovery must cope with exactly this.
    os._exit(CRASH_EXIT_CODE)


def should_corrupt(point: str) -> bool:
    """Whether a ``partial-write`` fault fires at *point* right now.

    For call sites that corrupt their own storage (e.g. truncating an
    artifact file) rather than a byte payload.
    """
    if not _armed:
        return False
    with _lock:
        armed = _points.get(point)
        return armed is not None and armed.kind == "partial-write" \
            and armed.should_fire()


def corrupt(point: str, data: bytes) -> bytes:
    """Return *data* truncated when a ``partial-write`` fault fires.

    The truncation length is drawn from the point's deterministic RNG
    (strictly shorter than the payload, possibly empty), simulating a
    torn write interrupted by a crash.
    """
    if not _armed or not data:
        return data
    with _lock:
        armed = _points.get(point)
        if armed is None or armed.kind != "partial-write" \
                or not armed.should_fire():
            return data
        cut = armed.rng.randrange(len(data))
    return data[:cut]


def snapshot() -> dict[str, dict]:
    """Per-point counters for test assertions and diagnostics."""
    with _lock:
        return {
            name: {"kind": p.kind, "prob": p.prob, "seed": p.seed,
                   "evaluations": p.evaluations, "fires": p.fires}
            for name, p in _points.items()
        }


# Arm automatically so REPRO_FAULTS reaches spawned daemons (the crash
# smoke test and the CI fault-injection job) without plumbing.
arm_from_env()
