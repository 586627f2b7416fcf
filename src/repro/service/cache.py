"""Content-addressed preprocessing-artifact cache with LRU eviction
and digest-verified integrity, shared through its directory by every
process that opens it.

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
    <cache_dir>/<key>.lock      the key's build lock and last-use stamp
    <cache_dir>/.build-<key>/   the key's build in flight
    <cache_dir>/quarantine/     entries that failed integrity checks

Entries are built in a temp directory and published with one
``os.rename`` so readers never observe a half-written entry; losing
that rename race to a concurrent publisher of the same key is treated
as a hit of the existing entry.  ``meta.json`` records a SHA-256
digest per artifact file; every fetch re-verifies those digests, and
an entry whose bytes no longer match — bit rot, torn writes, manual
tampering — is moved to ``quarantine/`` instead of ever being served,
then rebuilt from the source input.

The directory is the only shared state: processes (the service's body
workers) and threads share a cache through it.  A key's build holds an
``fcntl.flock`` on its lock file, taken through a fresh ``open`` by
each caller, so it excludes other processes and threads alike and dies
with its holder; only the holder unlinks the file.  The file outlives
the build as the entry's last-use stamp (``os.utime`` on every hit).
Eviction — size-capped LRU after each build, never evicting the entry
just requested — orders the listed entries by stamp and renames each
victim out of sight under its lock before deleting it.  An entry that
vanished under a fetch is a plain miss, never a verification failure.

Hash once, then verify by identity: a file's digest is remembered
against its ``(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)``
(:meth:`ArtifactCache._digest`), for inputs and artifacts alike, and a
verified entry's file names and digests against the identities of its
directory and its ``meta.json`` (:meth:`ArtifactCache._check_entry`).
Both memos live in the process: each process hashes a file at most
once while its identity holds.  While both hold — adding or removing
a file changes the directory's, rewriting ``meta.json`` that file's — a
fetch only stats the entry and its files.  It reads ``meta.json`` and
lists the entry when either identity changed, and reads a file's bytes
only when its identity changed (``ctime`` cannot be set from userland,
so a rewrite that restores size and ``mtime`` still shows), when this
process has not hashed it yet — a fresh build, the first fetch after a
restart — or when its last hash is older than
:data:`FULL_DIGEST_SECONDS` (bounding exposure to silent media rot).
Startup adopts surviving entries, sweeps ``.build-*`` temp dirs whose
key nobody holds (left by crashed builds), and quarantines entries
whose ``meta.json`` is corrupt rather than refusing to start.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
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
_LOCK = ".lock"
_BUILD = ".build-"
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
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


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
    """

    def __init__(self, cache_dir: str | os.PathLike[str],
                 max_bytes: int | None = None,
                 metrics: ServiceMetrics | None = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ServiceError(f"max_bytes {max_bytes} must be positive")
        self.cache_dir = os.fspath(cache_dir)
        self.max_bytes = max_bytes
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._lock = threading.Lock()
        #: path -> (identity, digest, monotonic time hashed), LRU.
        self._digests: OrderedDict[str, tuple[tuple, str, float]] \
            = OrderedDict()
        #: key -> ((entry dir, meta.json identities), artifact digests)
        #: of a verified entry; a rebuilt entry fails the identities.
        self._verified: dict[str, tuple[tuple, dict[str, str]]] = {}
        os.makedirs(self.cache_dir, exist_ok=True)
        self._scan()

    # -- public API --------------------------------------------------

    def get_or_build(self, input_path: str | os.PathLike[str],
                     params: dict,
                     builder: Callable[[str], None],
                     ) -> tuple[CacheEntry, bool]:
        """Return the entry for (*input_path*, *params*), building it
        on a miss.

        *builder(entry_dir)* must populate *entry_dir* with the
        artifacts; it runs at most once per key even under concurrent
        submission, from threads or processes.  An entry that fails
        digest verification is quarantined and rebuilt transparently.
        Returns ``(entry, hit)``."""
        key = _keyed(self._digest(input_path)[0], params)
        entry = self._fetch(key)
        if entry is not None:
            return entry, True
        with self._locked(key):
            # Re-check: another builder may have published meanwhile.
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

    def keys(self) -> list[str]:
        """Keys on disk in LRU order (least recently used first)."""
        return [key for _, key, _ in sorted(self._listed())]

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
        faults.fire("cache.digest")
        digest = content_digest(path)
        if settled(st):
            with self._lock:
                self._digests[path] = (identity, digest, now)
                while len(self._digests) > DIGEST_MEMO_ROWS:
                    self._digests.popitem(last=False)
        return digest, True

    def _check_entry(self, entry: CacheEntry,
                     dir_stat: os.stat_result) -> str | None:
        """Digest-verify one entry, whose directory stat is *dir_stat*;
        returns a failure detail or ``None`` when the entry is intact
        (counted as ``cache_verify_ok`` when any byte was read for it,
        else as ``cache_verify_identity``).  A verified entry's digests
        stand in for its ``meta.json`` and listing while the identities
        of both, taken before either is read and remembered once
        :func:`settled`, are unchanged."""
        meta_path = os.path.join(entry.path, _META)
        try:
            stats = (dir_stat, os.stat(meta_path))
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
        """The entry under *key* if it is on disk and passes
        verification (a hit, stamped as just used);
        else ``None``, after quarantining an entry that failed.  An
        entry removed before or during the fetch is a plain miss."""
        entry = CacheEntry(key, os.path.join(self.cache_dir, key))
        try:
            dir_stat = os.stat(entry.path)
        except FileNotFoundError:
            return None
        faults.fire("cache.fetch")
        if faults.should_corrupt("cache.fetch"):
            self._corrupt_one_artifact(entry)
        detail = self._check_entry(entry, dir_stat)
        if detail is not None:
            if os.path.isdir(entry.path):       # else: removed meanwhile
                self.metrics.inc("cache_verify_failed")
                self._quarantine(key, entry.path, detail)
            return None
        self._stamp(key)
        self.metrics.inc("cache_hits")
        return entry

    def _lock_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key + _LOCK)

    def _stamp(self, key: str, ns: int | None = None) -> None:
        """Set *key*'s last use to *ns*, by default now (finer than
        the clock that stamps a file)."""
        ns = time.time_ns() if ns is None else ns
        with contextlib.suppress(FileNotFoundError):
            os.utime(self._lock_path(key), ns=(ns, ns))

    @contextlib.contextmanager
    def _locked(self, key: str, wait: bool = True) -> Iterator[None]:
        """Hold *key*'s lock — an ``flock`` on a fresh descriptor of its
        lock file, so it excludes other threads of this process too —
        or, unless *wait*, raise :class:`BlockingIOError` when another
        holds it.  On leaving, a key with no entry loses its lock file:
        only the holder unlinks it, and a waiter that then wins the
        lock of the unlinked file locks the name afresh."""
        path = self._lock_path(key)
        while True:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX if wait
                            else fcntl.LOCK_EX | fcntl.LOCK_NB)
                with contextlib.suppress(FileNotFoundError):
                    if os.path.samestat(os.fstat(fd), os.stat(path)):
                        break
            except BaseException:
                os.close(fd)
                raise
            os.close(fd)
        try:
            yield
        finally:
            if not os.path.isdir(os.path.join(self.cache_dir, key)):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)
            os.close(fd)

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
            self._verified.pop(key, None)
        self.metrics.inc("cache_quarantined")
        self._publish_gauges(self._listed())

    # -- internals ---------------------------------------------------

    def _listed(self) -> list[tuple[int, str, int]]:
        """``(last use, key, bytes)`` of every entry on disk; an entry
        with no stamp counts as used longest ago."""
        rows = []
        for key in os.listdir(self.cache_dir):
            path, lock = os.path.join(self.cache_dir, key), \
                self._lock_path(key)
            with contextlib.suppress(OSError):      # removed while listed
                if not key.startswith(".") \
                        and os.path.isfile(os.path.join(path, _META)):
                    rows.append((os.stat(lock).st_mtime_ns
                                 if os.path.exists(lock) else 0,
                                 key, _dir_bytes(path)))
        return rows

    def _scan(self) -> None:
        """Adopt entries already on disk (a restart, another process).

        ``.build-*`` temp dirs and lock files of keys nobody holds and
        no entry has — the residue of builds a crash interrupted — are
        swept; an entry without a stamp is stamped at its build time.
        Entries whose ``meta.json`` is corrupt are quarantined instead
        of crashing the whole daemon on startup.
        """
        for name in os.listdir(self.cache_dir):
            path = os.path.join(self.cache_dir, name)
            if name.startswith(_BUILD) or name.endswith(_LOCK):
                swept = name.startswith(_BUILD)
                key = name[len(_BUILD):] if swept else name[:-len(_LOCK)]
                with contextlib.suppress(BlockingIOError), \
                        self._locked(key, wait=False):
                    if swept:
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
            if not os.path.exists(self._lock_path(name)):
                os.close(os.open(self._lock_path(name),
                                 os.O_WRONLY | os.O_CREAT, 0o644))
                self._stamp(name, int(meta.get("last_used", 0.0) * 1e9))
        self._publish_gauges(self._listed())

    def _build(self, key: str, input_path: str | os.PathLike[str],
               params: dict, builder: Callable[[str], None]) -> CacheEntry:
        # Called holding the key's lock, so a temp dir under its name
        # is a dead builder's: start afresh.
        final_dir = os.path.join(self.cache_dir, key)
        tmp_dir = os.path.join(self.cache_dir, _BUILD + key)
        shutil.rmtree(tmp_dir, ignore_errors=True)
        os.makedirs(tmp_dir)
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
                self._corrupt_one_artifact(CacheEntry(key, tmp_dir))
            try:
                os.rename(tmp_dir, final_dir)
            except OSError:
                # Lost the publish race: a publisher that does not
                # take the key's lock already renamed this key into
                # place (ENOTEMPTY/EEXIST).  Its entry is
                # byte-equivalent by construction — the key is
                # content-addressed — so adopt it as a hit instead of
                # failing the build.
                if not os.path.isfile(os.path.join(final_dir, _META)):
                    raise
                shutil.rmtree(tmp_dir, ignore_errors=True)
                self.metrics.inc("cache_publish_races")
        except BaseException:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            raise
        entry = CacheEntry(key, final_dir)
        # A just-built entry is always verified before being served:
        # a torn write (crash, full disk, injected fault) must surface
        # as a structured error now, not as corrupt conversions later.
        detail = self._check_entry(entry, os.stat(final_dir))
        if detail is not None:
            self.metrics.inc("cache_verify_failed")
            self._quarantine(key, final_dir, detail)
            raise CacheIntegrityError(
                f"cache entry {key[:16]}... failed verification "
                f"after build ({detail}); entry quarantined")
        self._stamp(key)
        return entry

    def _evict(self, keep: str) -> None:
        """Trim total size to ``max_bytes``, least recently used entry
        first, sparing entry *keep* and any entry whose key another
        caller holds."""
        listed = self._listed()
        total = sum(size for *_, size in listed)
        for _, key, size in sorted(listed):
            if self.max_bytes is None or total <= self.max_bytes:
                break
            if key == keep:
                continue
            trash = os.path.join(self.cache_dir, _BUILD + key)
            with contextlib.suppress(BlockingIOError, FileNotFoundError), \
                    self._locked(key, wait=False):
                shutil.rmtree(trash, ignore_errors=True)
                # Out of sight in one step, then deleted at leisure.
                os.rename(os.path.join(self.cache_dir, key), trash)
                shutil.rmtree(trash, ignore_errors=True)
                with self._lock:
                    self._verified.pop(key, None)
                total -= size
                self.metrics.inc("cache_evictions")
        self._publish_gauges(self._listed())

    def _publish_gauges(self, listed: list[tuple[int, str, int]]) -> None:
        self.metrics.set_gauge("cache_bytes",
                               sum(size for *_, size in listed))
        self.metrics.set_gauge("cache_entries", len(listed))
