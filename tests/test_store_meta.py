"""Store metadata resident per file identity
(:func:`repro.formats.store.store_meta`): a warm region query opens the
store once and the index not at all — and never answers from a file
that is no longer the one on disk."""

import builtins
import os
import sys
import threading
import time

import pytest

from repro.core import BamConverter
from repro.errors import BamxFormatError
from repro.formats import store as store_mod
from repro.formats.bam import write_bam
from repro.formats.store import RESIDENT_FILES, index_path_for, \
    open_record_store, store_meta

REGION = "chr1:1-40000"


@pytest.fixture(autouse=True)
def cold():
    store_mod._resident.clear()
    yield
    store_mod._resident.clear()


def _settle():
    """Files are remembered once their timestamps are 20 ms old."""
    time.sleep(0.03)


def _build(header, records, work, store_format="bamx", compress=False):
    work.mkdir(parents=True, exist_ok=True)
    write_bam(work / "reads.bam", header, records)
    path = BamConverter(store_format=store_format).preprocess(
        work / "reads.bam", work, compress=compress)[0]
    _settle()
    return path


def _replace(built, live):
    """Publish the store at *built* (and its sidecars) over *live*, the
    way preprocessing does: ``os.replace``, sidecars first."""
    for suffix in (".bzi", ".baix", ".baix2", ""):
        if os.path.exists(built + suffix):
            os.replace(built + suffix, live + suffix)


def _region(store, out, **kwargs):
    result = BamConverter().convert_region(store, None, REGION, "sam", out,
                                           **kwargs)
    return [open(path, "rb").read() for path in result.outputs]


def _oracle(store, out, **kwargs):
    """The same query with nothing resident, before and after."""
    store_mod._resident.clear()
    result = BamConverter(pipeline="record").convert_region(
        store, None, REGION, "sam", out, **kwargs)
    store_mod._resident.clear()
    return [open(path, "rb").read() for path in result.outputs]


@pytest.mark.parametrize("store_format, compress, opens", [
    ("bamx", False, 2), ("bamc", False, 2), ("bamx", True, 3)])
def test_warm_region_query_opens_the_store_once(
        workload, tmp_path, monkeypatch, store_format, compress, opens):
    """Store and output — and BAMZ's ``.bzi`` — nothing else: the parent
    opened six files (store to sniff, store to read, twice over; BAIX;
    output)."""
    _, header, records = workload
    store = _build(header, records, tmp_path / "w", store_format, compress)
    want = _region(store, tmp_path / "o")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", counting_open)
    for mode in ("start", "overlap"):
        BamConverter().convert_region(store, None, REGION, "sam",
                                      tmp_path / "o", mode=mode)
        del opened[:]
        got = BamConverter().convert_region(store, None, REGION, "sam",
                                            tmp_path / "o", mode=mode)
        assert len(opened) == opens <= 3, opened
        assert opened.count(store) == 1
    monkeypatch.undo()
    assert want == _oracle(store, tmp_path / "o")
    assert got.records > 0


def test_rebuilt_store_answers_from_the_new_file(workload, tmp_path):
    _, header, records = workload
    live = _build(header, records, tmp_path / "live")
    before = _region(live, tmp_path / "o")
    assert before == _region(live, tmp_path / "o")          # resident
    rebuilt = _build(header, records[::2], tmp_path / "next")
    _replace(rebuilt, live)
    after = _region(live, tmp_path / "o")
    assert after == _oracle(live, tmp_path / "o") != before
    with open_record_store(live) as reader:
        assert len(reader) == len(records[::2])


def test_replaced_index_is_reloaded(workload, tmp_path):
    """The store stays, its BAIX is swapped for one naming every second
    record: the next query follows the index on disk."""
    _, header, records = workload
    live = _build(header, records, tmp_path / "live")
    before = _region(live, tmp_path / "o")
    from repro.formats.baix import BaixIndex
    full = BaixIndex.load(index_path_for(live))
    BaixIndex(full.ref_ids[::2], full.positions[::2],
              full.indices[::2]).save(tmp_path / "half.baix")
    _settle()
    os.replace(tmp_path / "half.baix", index_path_for(live))
    after = _region(live, tmp_path / "o")
    assert after == _oracle(live, tmp_path / "o") != before


@pytest.mark.parametrize("gone", ["", ".baix"])
def test_removed_file_is_the_typed_error_not_a_stale_answer(
        workload, tmp_path, gone):
    _, header, records = workload
    live = _build(header, records, tmp_path / "live")
    _region(live, tmp_path / "o")
    os.unlink(live + gone)
    with pytest.raises(FileNotFoundError) as failure:
        _region(live, tmp_path / "o")
    assert failure.value.filename == live + gone


def test_store_swapped_for_another_kind_is_sniffed_again(workload, tmp_path):
    _, header, records = workload
    live = _build(header, records, tmp_path / "live")
    assert store_meta(live).kind == "bamx"
    columnar = _build(header, records, tmp_path / "next", "bamc")
    os.replace(columnar, live)
    assert store_meta(live).kind == "bamc"
    with open(tmp_path / "junk", "wb") as fh:
        fh.write(b"NOTAFORMAT" * 8)
    os.replace(tmp_path / "junk", live)
    with pytest.raises(BamxFormatError, match="not a BAMX, BAMC or BAMZ"):
        store_meta(live)


def test_a_file_still_settling_is_not_remembered(workload, tmp_path):
    """A rewrite in place within one clock tick of the first write could
    carry the same timestamps; what was read before the file is 20 ms
    old is used and forgotten."""
    _, header, records = workload
    live = _build(header, records, tmp_path / "live")
    os.utime(live)                      # ctime: now
    store_meta(live)
    assert [key[0] for key in store_mod._resident] == ["start"]
    _settle()
    first = store_meta(live)
    assert sorted(key[0] for key in store_mod._resident) == [
        "start", "store"]
    assert store_meta(live).header is first.header


def test_resident_files_are_bounded(workload, tmp_path):
    _, header, records = workload
    stores = [_build(header, records[i:i + 40], tmp_path / str(i))
              for i in range(0, 40 * (RESIDENT_FILES + 2), 40)]
    for path in stores:
        store_meta(path)
        store_meta(path, "overlap")
        assert len(store_mod._resident) <= RESIDENT_FILES
    assert len(store_mod._resident) == RESIDENT_FILES
    # Most recently used stay: the last store's three files are among them.
    kept = {key[1:] for key in store_mod._resident}
    for suffix in ("", ".baix", ".baix2"):
        st = os.stat(stores[-1] + suffix)
        assert (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns,
                st.st_ctime_ns) in kept


def test_threads_share_the_memo_without_losing_or_mixing_entries(
        workload, tmp_path):
    """More threads than cores and more stores than the bound, so
    entries are evicted and reloaded under every thread's feet: each
    answer is still its own store's, and the bound holds throughout."""
    _, header, records = workload
    stores = [_build(header, records[:10 + 3 * i], tmp_path / str(i))
              for i in range(RESIDENT_FILES + 1)]
    want = {path: store_meta(path).locate(0, 0, 1 << 30).tolist()
            for path in stores}
    assert len({len(indices) for indices in want.values()}) == len(stores)
    store_mod._resident.clear()
    wrong, deadline = [], time.monotonic() + 2.0

    def worker(seed):
        for step in range(400):
            if time.monotonic() > deadline:
                break
            path = stores[(seed * 7 + step * 5) % len(stores)]
            try:
                meta = store_meta(path)
                ok = meta.locate(0, 0, 1 << 30).tolist() == want[path] \
                    and meta.kind == "bamx" \
                    and len(store_mod._resident) <= RESIDENT_FILES
            except Exception as exc:    # noqa: BLE001 - reported below
                ok = exc
            if ok is not True:
                wrong.append((seed, step, path, ok))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong, wrong[:3]


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_ranks_on_a_cold_memo_and_pool_workers_give_the_oracle(
        workload, tmp_path, executor):
    """Thread ranks share this process's memo; a forked pool worker
    keeps its own across calls — and across a rebuild of the path it
    has resident."""
    _, header, records = workload
    live = _build(header, records, tmp_path / "live", "bamc")
    want = _oracle(live, tmp_path / "o", nprocs=3)
    for _ in range(2):
        assert _region(live, tmp_path / "o", nprocs=3,
                       executor=executor) == want
    rebuilt = _build(header, records[1::2], tmp_path / "next", "bamc")
    _replace(rebuilt, live)
    want = _oracle(live, tmp_path / "o", nprocs=3)
    assert _region(live, tmp_path / "o", nprocs=3,
                   executor=executor) == want
