"""Content-addressed preprocessing-artifact cache with LRU eviction
and digest-verified integrity.

The paper's partial-conversion result (Fig. 8) only pays off when the
sequential preprocessing products (BAMX/BAIX) are built once and reused
across many region requests.  This cache makes that reuse explicit:
artifacts are keyed by ``sha256(input file content || canonical
preprocessing parameters)``, so two submissions of the same BAM with
the same parameters share one preprocessing run no matter what the
file is called, while any content or parameter change misses cleanly.

Layout on disk::

    <cache_dir>/<key>/          one entry per key
        <stem>.bamx             whatever the builder writes
        <stem>.bamx.baix
        meta.json               key, input, params, per-file digests
    <cache_dir>/quarantine/     entries that failed integrity checks

Entries are built in a temp directory and published with one
``os.rename`` so readers never observe a half-written entry; losing
that rename race to a concurrent publisher of the same key is treated
as a hit of the existing entry.  ``meta.json`` records a SHA-256
digest per artifact file; fetches re-verify those digests (always by
default, or sampled), and an entry whose bytes no longer match — bit
rot, torn writes, manual tampering — is moved to ``quarantine/``
instead of ever being served, then rebuilt from the source input.

Hash once, then verify by identity: a file's digest is remembered
against its ``(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)``
(:meth:`ArtifactCache._digest`), for inputs and artifacts alike, and a
verified entry's file names and digests against the identities of its
directory and its ``meta.json`` (:meth:`ArtifactCache._check_entry`).
While both hold — adding or removing a file changes the directory's,
rewriting ``meta.json`` that file's — a fetch only stats the entry and
its files.  It reads ``meta.json`` and lists the entry when either
identity changed, and reads a file's bytes only when its identity
changed (``ctime`` cannot be set from userland, so a rewrite that
restores size and ``mtime`` still shows), when this process has not
hashed it yet — a fresh build, the first fetch after a restart — or
when its last hash is older than :data:`FULL_DIGEST_SECONDS`
(bounding exposure to silent media rot).
Startup adopts surviving entries, sweeps stale ``.build-*`` temp dirs
left by crashed builds, and quarantines entries whose ``meta.json`` is
corrupt rather than refusing to start.

A global lock guards the LRU book-keeping; per-key build locks (kept
only while a build of that key is in flight) let concurrent submitters
of the *same* input share one build while different keys build in
parallel.  Eviction is size-capped LRU: after
each build the total size is trimmed to ``max_bytes``, never evicting
the entry that was just requested.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import CacheIntegrityError, ServiceError
from ..runtime import faults
from ..runtime.buffers import file_identity, settled
from ..runtime.metrics import ServiceMetrics

_CHUNK = 1 << 20
_META = "meta.json"
_QUARANTINE = "quarantine"
#: Longest a remembered digest stands in for re-reading the bytes.
FULL_DIGEST_SECONDS = 3600.0
#: Most recently used files whose (identity, digest) is remembered.
DIGEST_MEMO_ROWS = 1024


def content_digest(path: str | os.PathLike[str]) -> str:
    """Streaming sha256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def cache_key(input_path: str | os.PathLike[str], params: dict) -> str:
    """Cache key: input *content* hash combined with canonical params."""
    return _keyed(content_digest(input_path), params)


def _keyed(input_digest: str, params: dict) -> str:
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256()
    digest.update(input_digest.encode("ascii"))
    digest.update(b"\x00")
    digest.update(canon.encode("utf-8"))
    return digest.hexdigest()


def _dir_bytes(path: str) -> int:
    total = 0
    for name in os.listdir(path):
        total += os.path.getsize(os.path.join(path, name))
    return total


def file_digests(entry_dir: str) -> dict[str, str]:
    """Per-artifact SHA-256 digests of every file except the meta."""
    return {
        name: content_digest(os.path.join(entry_dir, name))
        for name in sorted(os.listdir(entry_dir)) if name != _META
    }


@dataclass(frozen=True, slots=True)
class CacheEntry:
    """One published cache entry."""

    key: str
    path: str
    size_bytes: int

    def file(self, name: str) -> str:
        """Absolute path of artifact *name* inside the entry."""
        return os.path.join(self.path, name)

    def files(self) -> list[str]:
        """All artifact paths in the entry (meta excluded)."""
        return sorted(
            os.path.join(self.path, name)
            for name in os.listdir(self.path) if name != _META)


class ArtifactCache:
    """Content-addressed, size-capped LRU artifact store.

    Parameters
    ----------
    cache_dir:
        Root directory; created on demand and rescanned on startup so a
        restarted service inherits earlier preprocessing runs.
    max_bytes:
        Total size cap; ``None`` disables eviction.  A single entry
        larger than the cap is kept (evicting the entry just built
        would livelock repeat requests).
    metrics:
        Optional shared :class:`ServiceMetrics` for hit/miss/eviction/
        verification counters and size gauges.
    verify:
        Digest verification policy on fetch: ``"always"`` (default),
        ``"never"``, or a float sample probability in ``[0, 1]``.
        Freshly built entries are always verified before being
        returned regardless of this policy — a partially written
        build must never be served even once.
    """

    def __init__(self, cache_dir: str | os.PathLike[str],
                 max_bytes: int | None = None,
                 metrics: ServiceMetrics | None = None,
                 verify: str | float = "always") -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ServiceError(f"max_bytes {max_bytes} must be positive")
        self.cache_dir = os.fspath(cache_dir)
        self.max_bytes = max_bytes
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.verify_prob = self._parse_verify(verify)
        self._verify_rng = random.Random(0x5EED)
        self._lock = threading.Lock()
        self._build_locks: dict[str, list] = {}     # key -> [lock, users]
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        #: path -> (identity, digest, monotonic time hashed), LRU.
        self._digests: OrderedDict[str, tuple[tuple, str, float]] \
            = OrderedDict()
        #: key -> ((entry dir, meta.json identities), artifact digests)
        #: of a verified entry; dropped with the entry.
        self._verified: dict[str, tuple[tuple, dict[str, str]]] = {}
        os.makedirs(self.cache_dir, exist_ok=True)
        self._scan()

    @staticmethod
    def _parse_verify(verify: str | float) -> float:
        if verify == "always":
            return 1.0
        if verify == "never":
            return 0.0
        try:
            prob = float(verify)
        except (TypeError, ValueError):
            raise ServiceError(
                f"bad cache verify policy {verify!r}; want 'always', "
                f"'never' or a probability") from None
        if not 0.0 <= prob <= 1.0:
            raise ServiceError(
                f"cache verify probability {prob} not in [0, 1]")
        return prob

    # -- public API --------------------------------------------------

    def get_or_build(self, input_path: str | os.PathLike[str],
                     params: dict,
                     builder: Callable[[str], None],
                     deadline: float | None = None,
                     ) -> tuple[CacheEntry, bool]:
        """Return the entry for (*input_path*, *params*), building it
        on a miss.

        *builder(entry_dir)* must populate *entry_dir* with the
        artifacts; it runs at most once per key even under concurrent
        submission.  An entry that fails digest verification is
        quarantined and rebuilt transparently.  Waiting for another
        thread's build of the key ends in :class:`TimeoutError` at
        *deadline* (``time.monotonic()``).  Returns ``(entry, hit)``.
        """
        key = _keyed(self._digest(input_path)[0], params)
        entry = self._fetch(key)
        if entry is not None:
            return entry, True
        with self._building(key, deadline):
            # Re-check: another thread may have built while we waited.
            entry = self._fetch(key)
            if entry is not None:
                return entry, True
            self.metrics.inc("cache_misses")
            entry = self._build(key, input_path, params, builder)
        self._evict(keep=key)
        return entry, False

    def lookup(self, input_path: str | os.PathLike[str],
               params: dict) -> CacheEntry | None:
        """Entry for (*input_path*, *params*) if cached (and passing
        verification), else ``None``."""
        entry = self._fetch(_keyed(self._digest(input_path)[0], params))
        if entry is None:
            self.metrics.inc("cache_misses")
        return entry

    def total_bytes(self) -> int:
        """Sum of all entry sizes."""
        with self._lock:
            return sum(e.size_bytes for e in self._entries.values())

    def keys(self) -> list[str]:
        """Keys in LRU order (least recently used first)."""
        with self._lock:
            return list(self._entries)

    def artifacts(self, entry: CacheEntry) -> list[str]:
        """Paths of *entry*'s artifacts: the names its verification
        remembered, else :meth:`CacheEntry.files` lists them."""
        with self._lock:
            row = self._verified.get(entry.key)
        if row is None:
            return entry.files()
        return [entry.file(name) for name in sorted(row[1])]

    def quarantined(self) -> list[str]:
        """Paths currently held in the quarantine directory."""
        qdir = os.path.join(self.cache_dir, _QUARANTINE)
        if not os.path.isdir(qdir):
            return []
        return sorted(os.path.join(qdir, name)
                      for name in os.listdir(qdir))

    # -- integrity ---------------------------------------------------

    def _digest(self, path: str | os.PathLike[str]) -> tuple[str, bool]:
        """SHA-256 of *path* and whether its bytes were read for it.

        The digest remembered for an unchanged identity stands in until
        it is :data:`FULL_DIGEST_SECONDS` old.
        """
        path = os.path.abspath(path)
        st = os.stat(path)
        identity = file_identity(st)
        now = time.monotonic()
        with self._lock:
            row = self._digests.pop(path, None)
            if row is not None and row[0] == identity \
                    and now - row[2] < FULL_DIGEST_SECONDS:
                self._digests[path] = row       # most recently used
                return row[1], False
        digest = content_digest(path)
        if settled(st):
            with self._lock:
                self._digests[path] = (identity, digest, now)
                while len(self._digests) > DIGEST_MEMO_ROWS:
                    self._digests.popitem(last=False)
        return digest, True

    def _check_entry(self, entry: CacheEntry) -> str | None:
        """Digest-verify one entry; returns a failure detail or
        ``None`` when the entry is intact (counted as
        ``cache_verify_ok`` when any byte was read for it, else as
        ``cache_verify_identity``).  A verified entry's digests stand
        in for its ``meta.json`` and listing while the identities of
        both, taken before either is read and remembered once
        :func:`settled`, are unchanged."""
        meta_path = os.path.join(entry.path, _META)
        try:
            stats = (os.stat(entry.path), os.stat(meta_path))
        except OSError as exc:
            return f"unreadable meta.json: {exc}"
        identities = tuple(file_identity(st) for st in stats)
        with self._lock:
            row = self._verified.get(entry.key)
        remembered = row is not None and row[0] == identities
        if remembered:
            digests = row[1]
        else:
            try:
                with open(meta_path, encoding="utf-8") as fh:
                    meta = json.load(fh)
                if not isinstance(meta, dict):
                    return "meta.json is not an object"
            except (OSError, ValueError, UnicodeDecodeError) as exc:
                return f"unreadable meta.json: {exc}"
            digests = meta.get("files")
            if not isinstance(digests, dict):
                # Entry predates digest recording: nothing to verify
                # against.  Served as-is for compatibility, but counted
                # so operators can see unverifiable entries exist.
                self.metrics.inc("cache_verify_skipped")
                return None
        hashed = False
        for name, want in sorted(digests.items()):
            path = os.path.join(entry.path, name)
            try:
                got, read = self._digest(path)
                hashed |= read
            except OSError as exc:
                return f"artifact {name} unreadable: {exc}"
            if got != want:
                return (f"artifact {name} digest mismatch "
                        f"(want {want[:12]}..., got {got[:12]}...)")
        if not remembered:
            extra = set(os.listdir(entry.path)) - set(digests) - {_META}
            if extra:
                return f"unexpected files in entry: {sorted(extra)}"
            if all(settled(st) for st in stats):
                with self._lock:
                    self._verified[entry.key] = (identities, digests)
        self.metrics.inc("cache_verify_ok" if hashed
                         else "cache_verify_identity")
        return None

    def _fetch(self, key: str) -> CacheEntry | None:
        """The entry under *key* if cached and verified (a hit)."""
        with self._lock:
            entry = self._touch(key)
        if entry is not None:
            entry = self._verified_or_quarantined(entry)
            if entry is not None:
                self.metrics.inc("cache_hits")
        return entry

    @contextlib.contextmanager
    def _building(self, key: str,
                  deadline: float | None) -> Iterator[None]:
        """Hold *key*'s build lock, which exists only while some thread
        is in here (the table cannot outgrow the builds in flight), or
        raise :class:`TimeoutError` if it is not free by *deadline*."""
        with self._lock:
            slot = self._build_locks.setdefault(
                key, [threading.Lock(), 0])
            slot[1] += 1
        try:
            if not slot[0].acquire(timeout=-1 if deadline is None else max(
                    0.0, deadline - time.monotonic())):
                raise TimeoutError(f"gave up waiting at the deadline for "
                                   f"the build of cache entry {key}")
            try:
                yield
            finally:
                slot[0].release()
        finally:
            with self._lock:
                slot[1] -= 1
                if not slot[1]:
                    del self._build_locks[key]

    def _verified_or_quarantined(self,
                                 entry: CacheEntry) -> CacheEntry | None:
        """Apply the fetch-time verification policy to *entry*.

        Returns the entry when it passes (or verification is skipped
        by policy), or ``None`` after quarantining a failing entry —
        the caller treats that as a miss and rebuilds.
        """
        faults.fire("cache.fetch")
        if faults.should_corrupt("cache.fetch"):
            self._corrupt_one_artifact(entry)
        if self.verify_prob <= 0.0:
            return entry
        if self.verify_prob < 1.0 \
                and self._verify_rng.random() >= self.verify_prob:
            return entry
        detail = self._check_entry(entry)
        if detail is None:
            return entry
        self.metrics.inc("cache_verify_failed")
        self._quarantine(entry.key, entry.path, detail)
        return None

    @staticmethod
    def _corrupt_one_artifact(entry: CacheEntry) -> None:
        # Fault-injection helper: simulate bit rot by truncating the
        # first artifact file of the entry.
        files = entry.files()
        if files:
            size = os.path.getsize(files[0])
            with open(files[0], "r+b") as fh:
                fh.truncate(size // 2)

    def _quarantine(self, key: str, path: str, reason: str) -> None:
        """Move a failing entry aside; it must never be served again."""
        qdir = os.path.join(self.cache_dir, _QUARANTINE)
        os.makedirs(qdir, exist_ok=True)
        base = os.path.basename(path.rstrip(os.sep))
        dest = os.path.join(qdir, base)
        n = 0
        while os.path.exists(dest):
            n += 1
            dest = os.path.join(qdir, f"{base}.{n}")
        try:
            os.rename(path, dest)
        except OSError:
            # Cross-device or concurrent removal: deleting is as safe
            # as quarantining — the entry just must not be served.
            shutil.rmtree(path, ignore_errors=True)
        with self._lock:
            self._entries.pop(key, None)
            self._verified.pop(key, None)
            self._publish_gauges()
        self.metrics.inc("cache_quarantined")

    # -- internals ---------------------------------------------------

    def _touch(self, key: str) -> CacheEntry | None:
        # Called with the lock held: mark *key* most recently used.
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def _scan(self) -> None:
        """Adopt entries already on disk (service restart).

        Stale ``.build-*`` temp dirs — the residue of builds a crash
        interrupted before publication — are swept.  Entries whose
        ``meta.json`` is truncated or corrupt are quarantined instead
        of crashing the whole daemon on startup.
        """
        found = []
        for name in os.listdir(self.cache_dir):
            path = os.path.join(self.cache_dir, name)
            if name == _QUARANTINE:
                continue
            if name.startswith(".build-") and os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
                self.metrics.inc("cache_tmp_swept")
                continue
            meta_path = os.path.join(path, _META)
            if not os.path.isfile(meta_path):
                continue  # foreign file or dir; leave it alone
            try:
                with open(meta_path, encoding="utf-8") as fh:
                    meta = json.load(fh)
                if not isinstance(meta, dict):
                    raise ValueError("meta.json is not an object")
            except (OSError, ValueError, UnicodeDecodeError) as exc:
                self.metrics.inc("cache_scan_errors")
                self._quarantine(name, path,
                                 f"corrupt meta.json at startup: {exc}")
                continue
            found.append((meta.get("last_used", 0.0),
                          CacheEntry(name, path, _dir_bytes(path))))
        for _, entry in sorted(found, key=lambda pair: pair[0]):
            self._entries[entry.key] = entry
        self._publish_gauges()

    def _build(self, key: str, input_path: str | os.PathLike[str],
               params: dict, builder: Callable[[str], None]) -> CacheEntry:
        final_dir = os.path.join(self.cache_dir, key)
        tmp_dir = os.path.join(self.cache_dir,
                               f".build-{key[:16]}-{os.getpid()}")
        os.makedirs(tmp_dir, exist_ok=True)
        try:
            builder(tmp_dir)
            faults.fire("cache.build")
            meta = {
                "key": key,
                "input": os.fspath(input_path),
                "params": params,
                "files": file_digests(tmp_dir),
                "created_at": time.time(),
                "last_used": time.time(),
            }
            with open(os.path.join(tmp_dir, _META), "w",
                      encoding="utf-8") as fh:
                json.dump(meta, fh)
            if faults.should_corrupt("cache.build"):
                self._corrupt_one_artifact(
                    CacheEntry(key, tmp_dir, 0))
            try:
                os.rename(tmp_dir, final_dir)
            except OSError:
                # Lost the publish race: a concurrent process already
                # renamed this key into place (ENOTEMPTY/EEXIST).
                # Its entry is byte-equivalent by construction — the
                # key is content-addressed — so adopt it as a hit
                # instead of failing the build.
                if not os.path.isfile(os.path.join(final_dir, _META)):
                    raise
                shutil.rmtree(tmp_dir, ignore_errors=True)
                self.metrics.inc("cache_publish_races")
        except BaseException:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            raise
        entry = CacheEntry(key, final_dir, _dir_bytes(final_dir))
        # A just-built entry is always verified before being served:
        # a torn write (crash, full disk, injected fault) must surface
        # as a structured error now, not as corrupt conversions later.
        detail = self._check_entry(entry)
        if detail is not None:
            self.metrics.inc("cache_verify_failed")
            self._quarantine(key, final_dir, detail)
            raise CacheIntegrityError(
                f"cache entry {key[:16]}... failed verification "
                f"after build ({detail}); entry quarantined")
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._publish_gauges()
        return entry

    def _evict(self, keep: str) -> None:
        """Trim total size to ``max_bytes``, sparing entry *keep*."""
        if self.max_bytes is None:
            return
        doomed: list[CacheEntry] = []
        with self._lock:
            total = sum(e.size_bytes for e in self._entries.values())
            for key in list(self._entries):
                if total <= self.max_bytes:
                    break
                if key == keep:
                    continue
                entry = self._entries.pop(key)
                self._verified.pop(key, None)
                total -= entry.size_bytes
                doomed.append(entry)
            self._publish_gauges()
        for entry in doomed:
            shutil.rmtree(entry.path, ignore_errors=True)
            self.metrics.inc("cache_evictions")

    def _publish_gauges(self) -> None:
        # Called with the lock held.
        self.metrics.set_gauge(
            "cache_bytes",
            sum(e.size_bytes for e in self._entries.values()))
        self.metrics.set_gauge("cache_entries", len(self._entries))
