"""Tests for artifact-cache integrity: per-file digests, quarantine
of corrupt entries, the corrupt-meta.json startup regression, publish
races, temp-dir sweeping, verification policies, and hash-once /
verify-by-identity fetches."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.runtime.buffers import SETTLE_NS
from repro.runtime.metrics import ServiceMetrics
from repro.service import cache as cache_mod
from repro.service.cache import ArtifactCache, cache_key, \
    content_digest, file_digests


PAYLOAD = b"bamx-artifact-bytes" * 10


def make_input(tmp_path, payload=b"input-bytes"):
    path = tmp_path / "input.bam"
    path.write_bytes(payload)
    return str(path)


def builder(entry_dir):
    with open(os.path.join(entry_dir, "data.bamx"), "wb") as fh:
        fh.write(PAYLOAD)
    with open(os.path.join(entry_dir, "data.bamx.baix"), "wb") as fh:
        fh.write(b"index-bytes")


def build_one(tmp_path, **cache_kwargs):
    cache = ArtifactCache(tmp_path / "cache", **cache_kwargs)
    source = make_input(tmp_path)
    entry, hit = cache.get_or_build(source, {"op": "x"}, builder)
    assert not hit
    return cache, source, entry


# ---------------------------------------------------------------------
# digest recording and verification


def test_meta_records_per_file_digests(tmp_path):
    _, _, entry = build_one(tmp_path)
    with open(entry.file("meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["files"] == {
        "data.bamx": content_digest(entry.file("data.bamx")),
        "data.bamx.baix": content_digest(entry.file("data.bamx.baix")),
    }
    assert meta["files"] == file_digests(entry.path)


def test_corrupt_artifact_is_quarantined_not_served(tmp_path):
    metrics = ServiceMetrics()
    cache, source, entry = build_one(tmp_path, metrics=metrics)
    with open(entry.file("data.bamx"), "ab") as fh:
        fh.write(b"bit rot")
    # The rotted entry is never served: lookup quarantines it ...
    assert cache.lookup(source, {"op": "x"}) is None
    assert cache.keys() == []
    assert len(cache.quarantined()) == 1
    assert metrics.counter("cache_verify_failed") == 1
    assert metrics.counter("cache_quarantined") == 1
    # ... and get_or_build transparently rebuilds a clean copy.
    rebuilt, hit = cache.get_or_build(source, {"op": "x"}, builder)
    assert not hit
    with open(rebuilt.file("data.bamx"), "rb") as fh:
        assert fh.read() == PAYLOAD
    # A subsequent fetch digest-verifies the rebuilt entry.
    assert cache.lookup(source, {"op": "x"}) is not None
    assert metrics.counter("cache_verify_ok") >= 1


def test_extra_file_in_entry_fails_verification(tmp_path):
    cache, source, entry = build_one(tmp_path)
    with open(entry.file("smuggled.bin"), "wb") as fh:
        fh.write(b"?")
    assert cache.lookup(source, {"op": "x"}) is None
    assert len(cache.quarantined()) == 1


# ---------------------------------------------------------------------
# startup scan robustness (the corrupt-meta regression)


def test_truncated_meta_json_quarantined_at_startup(tmp_path):
    """Regression: a truncated meta.json used to crash ``_scan`` (and
    with it every service start) with a JSONDecodeError."""
    metrics = ServiceMetrics()
    _, source, entry = build_one(tmp_path)
    meta_path = entry.file("meta.json")
    data = open(meta_path, "rb").read()
    with open(meta_path, "wb") as fh:
        fh.write(data[:len(data) // 2])
    reopened = ArtifactCache(tmp_path / "cache", metrics=metrics)
    assert reopened.keys() == []
    assert len(reopened.quarantined()) == 1
    assert metrics.counter("cache_scan_errors") == 1
    # The quarantined key rebuilds cleanly on the next request.
    rebuilt, hit = reopened.get_or_build(source, {"op": "x"}, builder)
    assert not hit
    with open(rebuilt.file("data.bamx"), "rb") as fh:
        assert fh.read() == PAYLOAD


def test_binary_garbage_meta_quarantined_at_startup(tmp_path):
    _, _, entry = build_one(tmp_path)
    with open(entry.file("meta.json"), "wb") as fh:
        fh.write(b"\x00\xff\xfe not json at all")
    reopened = ArtifactCache(tmp_path / "cache")
    assert reopened.keys() == []
    assert len(reopened.quarantined()) == 1


def test_non_object_meta_quarantined_at_startup(tmp_path):
    _, _, entry = build_one(tmp_path)
    with open(entry.file("meta.json"), "w", encoding="utf-8") as fh:
        fh.write("[1, 2, 3]")
    reopened = ArtifactCache(tmp_path / "cache")
    assert reopened.keys() == []
    assert len(reopened.quarantined()) == 1


def test_stale_build_dirs_swept_at_startup(tmp_path):
    metrics = ServiceMetrics()
    cache_dir = tmp_path / "cache"
    _, _, entry = build_one(tmp_path)
    stale = cache_dir / ".build-deadbeef-12345"
    stale.mkdir()
    (stale / "partial.bamx").write_bytes(b"half")
    reopened = ArtifactCache(cache_dir, metrics=metrics)
    assert not stale.exists()
    assert metrics.counter("cache_tmp_swept") == 1
    # The published entry itself was adopted untouched.
    assert reopened.keys() == [entry.key]


def test_legacy_entry_without_digests_is_served(tmp_path):
    """Entries written before digest recording have no ``files`` map;
    they are served (counted as skipped), not quarantined."""
    metrics = ServiceMetrics()
    _, source, entry = build_one(tmp_path)
    with open(entry.file("meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    del meta["files"]
    with open(entry.file("meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    reopened = ArtifactCache(tmp_path / "cache", metrics=metrics)
    found = reopened.lookup(source, {"op": "x"})
    assert found is not None and found.key == entry.key
    assert metrics.counter("cache_verify_skipped") == 1
    assert reopened.quarantined() == []


# ---------------------------------------------------------------------
# concurrent publication


def test_lost_publish_race_is_a_hit(tmp_path):
    """Two cache instances over one directory: the loser of the
    ``os.rename`` publish race adopts the winner's entry instead of
    failing with ENOTEMPTY."""
    metrics = ServiceMetrics()
    source = make_input(tmp_path)
    winner = ArtifactCache(tmp_path / "cache")
    loser = ArtifactCache(tmp_path / "cache", metrics=metrics)
    entry_w, hit_w = winner.get_or_build(source, {"op": "x"}, builder)
    assert not hit_w
    # The winner's entry is out of sight when the loser looks, so the
    # loser builds; it comes back while the loser builds, the way a
    # publisher that does not take the key's lock would put it there,
    # and the loser's publish collides with it.
    aside = tmp_path / "aside"
    os.rename(entry_w.path, aside)

    def racing_builder(entry_dir):
        builder(entry_dir)
        os.rename(aside, entry_w.path)

    entry_l, hit_l = loser.get_or_build(source, {"op": "x"}, racing_builder)
    assert not hit_l
    assert entry_l.path == entry_w.path
    assert metrics.counter("cache_publish_races") == 1
    with open(entry_l.file("data.bamx"), "rb") as fh:
        assert fh.read() == PAYLOAD
    # No stray temp dirs survive the race.
    assert [name for name in os.listdir(tmp_path / "cache")
            if name.startswith(".build-")] == []


def test_cache_key_is_content_addressed(tmp_path):
    a = tmp_path / "a.bam"
    b = tmp_path / "b.bam"
    a.write_bytes(b"same-bytes")
    b.write_bytes(b"same-bytes")
    assert cache_key(a, {"op": "x"}) == cache_key(b, {"op": "x"})
    assert cache_key(a, {"op": "x"}) != cache_key(a, {"op": "y"})


# ---------------------------------------------------------------------
# hash once, then verify by identity


def settle() -> None:
    """Let file timestamps age past the racy-identity window."""
    time.sleep(2.5 * SETTLE_NS / 1e9)


@pytest.fixture
def digest_calls(monkeypatch):
    """Paths handed to ``content_digest`` from inside the cache."""
    calls: list[str] = []

    def counting(path):
        calls.append(os.fspath(path))
        return content_digest(path)

    monkeypatch.setattr(cache_mod, "content_digest", counting)
    return calls


def warm(tmp_path, **cache_kwargs):
    """A built entry whose identities the cache has remembered."""
    metrics = ServiceMetrics()
    cache, source, entry = build_one(tmp_path, metrics=metrics,
                                     **cache_kwargs)
    settle()
    assert cache.lookup(source, {"op": "x"}) is not None
    return cache, source, entry, metrics


def test_steady_state_hit_reads_no_file(tmp_path, digest_calls):
    cache, source, entry, metrics = warm(tmp_path)
    del digest_calls[:]
    for _ in range(5):
        found, hit = cache.get_or_build(source, {"op": "x"}, builder)
        assert hit and found.key == entry.key
    assert digest_calls == []
    assert metrics.counter("cache_verify_identity") == 5


def test_first_fetch_after_restart_digests_exactly_once(tmp_path,
                                                        digest_calls):
    _, source, entry, _ = warm(tmp_path)
    metrics = ServiceMetrics()
    reopened = ArtifactCache(tmp_path / "cache", metrics=metrics)
    del digest_calls[:]
    assert reopened.lookup(source, {"op": "x"}) is not None
    # The input for the key, then every artifact of the adopted entry.
    assert sorted(digest_calls) == sorted(
        [source, entry.file("data.bamx"), entry.file("data.bamx.baix")])
    assert metrics.counter("cache_verify_ok") == 1
    del digest_calls[:]
    assert reopened.lookup(source, {"op": "x"}) is not None
    assert digest_calls == []
    assert metrics.counter("cache_verify_identity") == 1


def test_full_digest_comes_back_when_the_last_one_is_old(
        tmp_path, digest_calls, monkeypatch):
    cache, source, _, metrics = warm(tmp_path)
    monkeypatch.setattr(cache_mod, "FULL_DIGEST_SECONDS", 0.0)
    del digest_calls[:]
    assert cache.lookup(source, {"op": "x"}) is not None
    assert len(digest_calls) == 3       # input + both artifacts
    assert metrics.counter("cache_verify_identity") == 0


def overwrite_keeping_size_and_mtime(path: str) -> None:
    before = os.stat(path)
    with open(path, "r+b") as fh:
        fh.write(b"X")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == \
        (before.st_size, before.st_mtime_ns)


def replace_by_rename(path: str) -> None:
    before = os.stat(path)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path + ".new", "wb") as fh:
        fh.write(b"Y" + data[1:])
    os.utime(path + ".new", ns=(before.st_atime_ns, before.st_mtime_ns))
    os.replace(path + ".new", path)


def edit_meta(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    name = "data.bamx"
    meta["files"][name] = "0" * len(meta["files"][name])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


TAMPERINGS = {
    "in-place-same-size-mtime-restored":
        ("data.bamx", overwrite_keeping_size_and_mtime),
    "replaced-by-rename": ("data.bamx", replace_by_rename),
    "deleted-artifact": ("data.bamx.baix", os.unlink),
    "extra-file": ("smuggled.bin",
                   lambda path: open(path, "wb").close()),
    "edited-meta": ("meta.json", edit_meta),
}


@pytest.mark.parametrize("how", sorted(TAMPERINGS))
def test_tampered_warm_entry_is_quarantined_never_served(tmp_path, how):
    cache, source, entry, metrics = warm(tmp_path)
    name, tamper = TAMPERINGS[how]
    tamper(entry.file(name))
    assert cache.lookup(source, {"op": "x"}) is None
    assert len(cache.quarantined()) == 1
    assert metrics.counter("cache_verify_failed") == 1
    rebuilt, hit = cache.get_or_build(source, {"op": "x"}, builder)
    assert not hit
    with open(rebuilt.file("data.bamx"), "rb") as fh:
        assert fh.read() == PAYLOAD


#: tamper -> (file it touches, how), each after hits settled by identity
IDENTITY_TAMPERS = {
    "meta-rewritten-in-place": ("meta.json", edit_meta),
    "stray-file": ("smuggled.bin", lambda path: open(path, "wb").close()),
    "artifact-deleted": ("data.bamx.baix", os.unlink),
    "artifact-truncated": ("data.bamx", lambda path: os.truncate(path, 3)),
    "artifact-rewritten-same-size-mtime":
        ("data.bamx", overwrite_keeping_size_and_mtime),
}


@pytest.mark.parametrize("how", sorted(IDENTITY_TAMPERS))
def test_settled_hits_only_stat_and_tampers_still_quarantine(
        tmp_path, monkeypatch, how):
    """Once an entry's directory and ``meta.json`` identities are
    remembered, a hit opens no file and lists no directory; every
    tamper still quarantines on the next fetch."""
    cache, source, entry, metrics = warm(tmp_path)
    opened: list[str] = []
    listed: list[str] = []
    real_listdir = os.listdir

    def spy_open(path, *args, **kwargs):
        opened.append(os.fspath(path))
        return open(path, *args, **kwargs)

    def spy_listdir(path="."):
        listed.append(os.fspath(path))
        return real_listdir(path)

    monkeypatch.setattr(cache_mod, "open", spy_open, raising=False)
    monkeypatch.setattr(cache_mod.os, "listdir", spy_listdir)
    for _ in range(20):
        found, hit = cache.get_or_build(source, {"op": "x"}, builder)
        assert hit and found.key == entry.key
    assert (opened, listed) == ([], [])
    assert metrics.counter("cache_verify_identity") == 20
    name, tamper = IDENTITY_TAMPERS[how]
    tamper(entry.file(name))
    assert cache.lookup(source, {"op": "x"}) is None
    assert len(cache.quarantined()) == 1
    assert metrics.counter("cache_verify_failed") == 1


def test_input_rewritten_in_place_at_same_size_gets_new_key(tmp_path):
    cache, source, entry, _ = warm(tmp_path)
    before = os.stat(source)
    with open(source, "r+b") as fh:
        fh.write(b"INPUT")      # same length as the b"input" it replaces
    os.utime(source, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(source).st_size == before.st_size
    rebuilt, hit = cache.get_or_build(source, {"op": "x"}, builder)
    assert not hit and rebuilt.key != entry.key
    assert rebuilt.key == cache_key(source, {"op": "x"})


def test_locks_and_memo_rows_stay_bounded(tmp_path, monkeypatch):
    """Regression: one build lock per key ever requested, forever.  A
    key's lock file lasts only as long as its entry."""
    monkeypatch.setattr(cache_mod, "DIGEST_MEMO_ROWS", 16)
    size = len(PAYLOAD) + len(b"index-bytes") + 400     # ~ one entry
    cache = ArtifactCache(tmp_path / "cache", max_bytes=3 * size)
    sources = []
    for i in range(500):
        sources.append(tmp_path / f"input{i}.bam")
        sources[-1].write_bytes(b"input-%d" % i)
    settle()
    for i, source in enumerate(sources):
        cache.get_or_build(source, {"op": i}, builder)
    assert len(cache.keys()) <= 3
    locks = [name[:-len(".lock")] for name in os.listdir(cache.cache_dir)
             if name.endswith(".lock")]
    assert sorted(locks) == sorted(cache.keys())
    assert len(cache._digests) == 16


# ---------------------------------------------------------------------
# one directory, many processes: the directory is the only shared state


def test_one_build_across_processes_and_threads(tmp_path):
    """Two forked processes and a thread ask for one key at once with a
    slow builder: it runs once, and the other two callers hit."""
    import multiprocessing
    import threading
    source = make_input(tmp_path)
    marker = tmp_path / "builds"

    def slow_builder(entry_dir):
        with open(marker, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        time.sleep(0.3)
        builder(entry_dir)

    def fetch():
        cache = ArtifactCache(tmp_path / "cache")
        return cache.get_or_build(source, {"op": "x"}, slow_builder)[1]

    def child():
        raise SystemExit(0 if fetch() else 7)      # 0: hit, 7: built

    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=child) for _ in range(2)]
    hits = []
    thread = threading.Thread(target=lambda: hits.append(fetch()))
    for proc in procs:
        proc.start()
    thread.start()
    for proc in procs:
        proc.join(30)
    thread.join(30)
    outcomes = sorted([proc.exitcode == 0 for proc in procs] + hits)
    assert sorted(proc.exitcode for proc in procs) in ([0, 0], [0, 7])
    assert outcomes == [False, True, True]
    assert len(marker.read_text().splitlines()) == 1


def blob_builder(entry_dir):
    with open(os.path.join(entry_dir, "blob"), "wb") as fh:
        fh.write(b"x" * 1000)


def test_a_hit_in_one_instance_orders_eviction_in_another(tmp_path):
    """``test_cache_lru_eviction``'s sequence with the builds in A and
    the hits in B: B's hit makes entry 1 the newest in A's eyes."""
    a = ArtifactCache(tmp_path / "cache", max_bytes=3000)
    b = ArtifactCache(tmp_path / "cache")
    srcs = []
    for i in range(4):
        srcs.append(tmp_path / f"in{i}.bam")
        srcs[-1].write_bytes(bytes([i]) * 8)
    for src in srcs[:3]:
        a.get_or_build(src, {}, blob_builder)
    assert a.metrics.counter("cache_evictions") == 1
    assert b.lookup(srcs[0], {}) is None
    assert b.lookup(srcs[1], {}) is not None
    assert b.lookup(srcs[2], {}) is not None
    assert b.get_or_build(srcs[1], {}, blob_builder)[1]
    a.get_or_build(srcs[3], {}, blob_builder)
    assert b.lookup(srcs[2], {}) is None
    assert b.lookup(srcs[1], {}) is not None


def test_an_entry_another_instance_evicted_is_a_clean_miss(tmp_path):
    metrics = ServiceMetrics()
    a = ArtifactCache(tmp_path / "cache", metrics=metrics)
    source = make_input(tmp_path)
    a.get_or_build(source, {"op": "x"}, builder)
    assert a.lookup(source, {"op": "x"}) is not None
    b = ArtifactCache(tmp_path / "cache", max_bytes=1)
    other = tmp_path / "other.bam"
    other.write_bytes(b"other")
    b.get_or_build(other, {"op": "x"}, builder)
    assert b.metrics.counter("cache_evictions") == 1
    entry, hit = a.get_or_build(source, {"op": "x"}, builder)
    assert not hit
    assert metrics.counter("cache_verify_failed") == 0
    assert metrics.counter("cache_quarantined") == 0
    assert a.quarantined() == []
    with open(entry.file("data.bamx"), "rb") as fh:
        assert fh.read() == PAYLOAD


def test_a_build_in_flight_survives_another_instances_startup(tmp_path):
    import threading
    started, go = threading.Event(), threading.Event()

    def held_builder(entry_dir):
        builder(entry_dir)
        started.set()
        assert go.wait(10)

    a = ArtifactCache(tmp_path / "cache")
    source = make_input(tmp_path)
    results = []
    thread = threading.Thread(target=lambda: results.append(
        a.get_or_build(source, {"op": "x"}, held_builder)))
    thread.start()
    try:
        assert started.wait(10)
        metrics = ServiceMetrics()
        b = ArtifactCache(tmp_path / "cache", metrics=metrics)
        assert metrics.counter("cache_tmp_swept") == 0
    finally:
        go.set()
        thread.join(10)
    ((entry, hit),) = results
    assert not hit
    assert b.lookup(source, {"op": "x"}) == entry
