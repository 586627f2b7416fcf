"""Record stores behind one interface: BAMX, BAMZ and BAMC.

All readers expose ``len``, ``[i]``, ``read_range``, iteration,
``.header`` and ``.layout``; converters call :func:`open_record_store`
and never care which physical format backs the store.  Everything else
that depends on the physical format lives here too, one row per store:

* :func:`chunk_protocol` / :func:`column_slabs` — how an opened store
  feeds the converters' chunk loop and the statistics kernels: as
  column slabs, which BAMC holds and BAMX/BAMZ rows decode to;
* :func:`open_store_writer` / :func:`encode_slab_part` /
  :func:`write_store_records` / :func:`write_indexes` /
  :func:`publishing` — how the preprocessors write a store and its
  BAIX/BAIX2 sidecars, and make them appear atomically;
* :func:`index_path_for` / :func:`store_meta` — how partial conversion
  finds a store's index and queries it: header and index stay resident
  per file identity, so a warm query pays for its records only.
"""

from __future__ import annotations

import glob
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from typing import Any, NamedTuple, Union

import numpy as np

from ..defaults import STORE_FORMATS
from ..errors import BamxFormatError
from . import baix as _baix
from . import baix2 as _baix2
from . import bamc as _bamc
from . import bamx as _bamx
from . import bamz as _bamz
from .baix import BaixIndex
from .baix2 import BaixOverlapIndex, record_columns
from .bamc import BamcReader, BamcWriter
from .bamx import BamxLayout, BamxReader, BamxWriter
from .bamz import BamzReader, BamzWriter
from .batch import DEFAULT_BATCH_SIZE, batched, convert_records
from .bgzf import is_bgzf
from .header import SamHeader
from .kernels import KernelFallback, kernel_emitter_for
from .record import AlignmentRecord

RecordStore = Union[BamxReader, BamzReader, BamcReader]


#: Files whose parsed form stays resident (stores and indexes alike).
RESIDENT_FILES = 8
#: Identities younger than this are not remembered: a coarse-clock
#: filesystem (tick <= 10 ms) may stamp a second write the same.
_SETTLE_NS = 20_000_000

# What this process parsed of a file — of a store (``what="store"``) its
# ``(reader class, header)``, of an index (``what`` = the query mode) its
# locator — under the file's identity ``(st_dev, st_ino, st_size,
# st_mtime_ns, st_ctime_ns)``, the rule ArtifactCache verifies hits by:
# stores and sidecars are published by ``os.replace``, so a rebuild is
# another inode, and ``ctime`` shows a rewrite in place.
_resident: OrderedDict[tuple, Any] = OrderedDict()
_resident_lock = threading.Lock()


def _fresh_lock() -> None:
    # A pool worker forked while a thread held the lock must not wait
    # for it; what is resident is the worker's to keep.
    global _resident_lock
    _resident_lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock)


def _identity(what: str, st: os.stat_result) -> tuple:
    return (what, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns,
            st.st_ctime_ns)


def _recall(what: str, st: os.stat_result) -> Any:
    """The resident *what* of the file *st* describes, or ``None``."""
    key = _identity(what, st)
    with _resident_lock:
        if key not in _resident:
            return None
        _resident.move_to_end(key)
        return _resident[key]


def _remember(what: str, st: os.stat_result, value: Any) -> Any:
    """Keep *value* resident — once the file has settled — among the
    :data:`RESIDENT_FILES` most recently used; returns *value*."""
    if max(st.st_mtime_ns, st.st_ctime_ns) < time.time_ns() - _SETTLE_NS:
        with _resident_lock:
            _resident[_identity(what, st)] = value
            while len(_resident) > RESIDENT_FILES:
                _resident.popitem(last=False)
    return value


def _sniff(head: bytes, path: str) -> type:
    for module, reader in ((_bamx, BamxReader), (_bamc, BamcReader)):
        if head.startswith(module.MAGIC):
            return reader
    # BAMZ files are BGZF streams; their magic is inside the first
    # block, so sniff by BGZF framing instead.
    if is_bgzf(head):
        return BamzReader
    raise BamxFormatError("not a BAMX, BAMC or BAMZ file", source=path)


def open_record_store(path: str | os.PathLike[str]) -> RecordStore:
    """Open a BAMX, BAMC or BAMZ file, dispatching on its magic bytes,
    read on the handle the reader keeps.  A file this process has opened
    before (same identity, see :func:`store_meta`) is neither sniffed
    nor its header parsed again: readers of one file share one
    :class:`~.header.SamHeader`, which nobody may alter."""
    path = os.fspath(path)
    fh = open(path, "rb")  # noqa: SIM115 - the reader owns it
    try:
        st = os.fstat(fh.fileno())
        reader_type, header = _recall("store", st) \
            or (_sniff(fh.read(18), path), None)
        reader = reader_type(fh, header)
    except BaseException:
        fh.close()
        raise
    if header is None:
        _remember("store", st, (reader_type, reader.header))
    return reader


def store_extension(compress: bool,
                    store_format: str = "bamx") -> str:
    """Canonical extension for a record store."""
    if store_format not in STORE_FORMATS:
        raise BamxFormatError(
            f"unknown store format {store_format!r}; choose one of "
            f"{STORE_FORMATS}")
    if store_format == "bamc":
        if compress:
            raise BamxFormatError(
                "BAMC does not support BGZF compression; use "
                "store_format='bamx' with compress=True for BAMZ")
        return ".bamc"
    return ".bamz" if compress else ".bamx"


# -- reading: the chunk protocol ------------------------------------

def _row_slabs(reader: BamxReader | BamzReader) -> tuple:
    """BAMX/BAMZ speak columns by decoding their fixed rows a slab at a
    time (:meth:`~.bamx.BamxLayout.decode_slab`): ``(range_chunks,
    pick_chunks)`` with the signatures of :func:`chunk_protocol`."""
    decode_slab, source = reader.layout.decode_slab, reader.source_name

    def range_chunks(start, stop, batch_size):
        for rows, count in reader.read_raw_batches(start, stop, batch_size):
            yield decode_slab(rows, count, start, source)
            start += count

    def pick_chunks(indices, batch_size):
        # One read per run of consecutive indices; the joined rows are
        # already in pick order, so the slab needs no gather.
        for off in range(0, len(indices), batch_size):
            part = np.asarray(indices[off:off + batch_size], np.int64)
            runs = np.split(part, np.flatnonzero(np.diff(part) != 1) + 1)
            rows = b"".join(
                rows for run in runs for rows, _ in reader.read_raw_batches(
                    int(run[0]), int(run[0]) + len(run), len(run)))
            yield decode_slab(rows, len(part), part, source)

    return range_chunks, pick_chunks


def chunk_protocol(reader: RecordStore) -> tuple:
    """How an opened store feeds the converters' one chunk loop: every
    store yields :class:`~.bamc.ColumnSlab`s — BAMC natively, BAMX/BAMZ
    through :func:`_row_slabs`.

    Returns ``(range_chunks, pick_chunks, decode_chunk,
    make_convert_chunk)``:

    * ``range_chunks(start, stop, batch_size)`` / ``pick_chunks(indices,
      batch_size)`` iterate the selection as slabs in record order;
    * ``decode_chunk(slab)`` yields the slab's alignment records (the
      binary-target and record-pipeline path);
    * ``make_convert_chunk(target, record_filter, pipeline)`` returns
      ``(convert_chunk, span_args, fallback_field)`` for
      :func:`repro.core.base.write_text_chunks` — the target's kernel
      emitter when ``pipeline == "batch"`` and it has one, else
      :func:`~.batch.convert_records` over ``decode_chunk``.  A slab a
      kernel declines degrades to the record driver and is counted in
      ``metrics.kernel_fallbacks``.
    """
    header = reader.header
    if isinstance(reader, BamcReader):
        def range_chunks(start, stop, batch_size):
            return reader.read_column_batches(start, stop)

        def pick_chunks(indices, batch_size):
            return reader.read_column_picks(indices)
    else:
        range_chunks, pick_chunks = _row_slabs(reader)

    def decode_chunk(slab):
        return slab.decode_all(header)

    def make_convert_chunk(target, record_filter, pipeline):
        def record_chunk(slab, out):
            seen, emitted = convert_records(decode_chunk(slab), target,
                                            record_filter, out)
            return seen, emitted, 1
        if pipeline != "batch":
            return record_chunk, None, None
        emit = kernel_emitter_for(target, header)

        def convert_chunk(slab, out):
            try:
                lines, seen = emit(slab, record_filter)
            except KernelFallback:
                return record_chunk(slab, out)
            out.extend(lines)
            return seen, len(lines), 0
        return (convert_chunk if emit else record_chunk,
                {"kernel": emit is not None}, "kernel_fallbacks")

    return range_chunks, pick_chunks, decode_chunk, make_convert_chunk


def column_slabs(reader: RecordStore) -> Iterator:
    """Every :class:`~.bamc.ColumnSlab` of a store, in record order:
    what the flagstat/histogram kernels run on."""
    return chunk_protocol(reader)[0](0, len(reader), DEFAULT_BATCH_SIZE)


# -- writing: store + index sidecars --------------------------------

def open_store_writer(path: str | os.PathLike[str], header: SamHeader,
                      layout: BamxLayout, store_format: str = "bamx",
                      compress: bool = False, level: int = 6,
                      slab_records: int = DEFAULT_BATCH_SIZE,
                      ) -> BamxWriter | BamzWriter | BamcWriter:
    """The writer for a *store_format* / *compress* combination
    (validated by :func:`store_extension`)."""
    if store_extension(compress, store_format) == ".bamc":
        return BamcWriter(path, header, layout, slab_records=slab_records)
    if compress:
        return BamzWriter(path, header, layout, level=level)
    return BamxWriter(path, header, layout)


def encode_slab_part(slab: _bamc.ColumnSlab, store_format: str = "bamx",
                     ) -> tuple[bytes | np.ndarray, BamxLayout]:
    """A slab as *store_format* bytes — BAMX/BAMZ rows, or one BAMC
    slab — under the tightest layout that holds it, and that layout:
    what a preprocessing rank can encode before anyone knows the
    store's, and the writer's ``write_encoded`` takes."""
    need = _bamx.slab_layout(slab)
    return (_bamc.encode_slab(slab, need) if store_format == "bamc"
            else need.encode_slab(slab)), need


def write_store_records(writer: BamxWriter | BamzWriter | BamcWriter,
                        records: Iterable[AlignmentRecord],
                        batch_size: int) -> tuple:
    """Append *records* in batches of *batch_size*; returns the
    ``(ref_ids, starts, ends, indices)`` columns of the placed ones,
    which is all :func:`write_indexes` needs of them."""
    return concat_columns([record_columns(
        enumerate(chunk, writer.write_batch(chunk)), writer.header)
        for chunk in batched(records, batch_size)])


def concat_columns(parts: list[tuple]) -> tuple:
    """Join per-batch ``(ref_ids, starts, ends, indices)`` columns."""
    return tuple(np.concatenate(column) for column in zip(*parts)) \
        if parts else ((), (), (), ())


@contextmanager
def publishing(store_path: str | os.PathLike[str],
               baix_path: str | os.PathLike[str] | None = None,
               ) -> Iterator[str]:
    """Yield a temporary sibling path to write a store (and beside it
    its ``.bzi``/``.baix``/``.baix2`` sidecars) under; move them into
    place on a clean exit — sidecars first, the store last.  Whatever
    is still there under the temporary name afterwards goes: a failed
    run's store and sidecars — it leaves nothing ``--bamx`` takes — and
    any scratch file kept as ``<tmp>.<suffix>`` (a spool, a part)."""
    store_path = os.fspath(store_path)
    tmp = f"{store_path}.tmp{os.getpid()}"
    moves = ((_bamz.index_path_for(tmp), _bamz.index_path_for(store_path)),
             (index_path_for(tmp), os.fspath(baix_path) if baix_path
              is not None else index_path_for(store_path)),
             (index_path_for(tmp, "overlap"),
              index_path_for(store_path, "overlap")),
             (tmp, store_path))
    try:
        yield tmp
        for written, final in moves:
            if os.path.exists(written):
                os.replace(written, final)
    finally:
        for left in (tmp, *glob.glob(glob.escape(tmp) + ".*")):
            with suppress(FileNotFoundError):
                os.unlink(left)


def index_path_for(store_path: str | os.PathLike[str],
                   mode: str = "start") -> str:
    """Sidecar index of a store: ``.baix`` for ``mode="start"``
    queries, ``.baix2`` for ``mode="overlap"``."""
    return (_baix2 if mode == "overlap" else _baix).default_index_path(
        store_path)


def write_indexes(ref_ids, starts, ends, indices,
                  store_path: str | os.PathLike[str]) -> None:
    """Build the BAIX and BAIX2 sidecars of a store from the columns of
    its placed records and save them beside it."""
    BaixIndex.from_columns(ref_ids, starts, indices).save(
        index_path_for(store_path))
    BaixOverlapIndex.from_columns(ref_ids, starts, ends, indices).save(
        index_path_for(store_path, "overlap"))


class StoreMeta(NamedTuple):
    """What a region query needs of a store before it reads a record."""

    #: ``"bamx"``, ``"bamc"`` or ``"bamz"``, by the store's magic.
    kind: str
    header: SamHeader
    #: ``locate(ref_id, start, end) -> record indices`` (an array).
    locate: Callable[[int, int, int], np.ndarray]


def store_meta(store_path: str | os.PathLike[str], mode: str = "start",
               index_path: str | os.PathLike[str] | None = None,
               ) -> StoreMeta:
    """Kind, header and region locator of a store, resident per file
    identity: a warm call is one ``stat`` of the store and one of its
    index, and opens neither.

    ``mode="start"`` (the paper's semantics) locates records whose
    starting position lies in the region, by binary search over the v1
    BAIX; ``mode="overlap"`` records whose alignment span overlaps it,
    via the v2 overlap index.  A resident index holds 24 (BAIX) or 28
    (BAIX2) bytes per placed record.
    """
    store_path = os.fspath(store_path)
    reader_type, header = _recall("store", os.stat(store_path)) \
        or (None, None)
    if header is None:
        with open_record_store(store_path) as reader:
            reader_type, header = type(reader), reader.header
    if index_path is None:
        index_path = index_path_for(store_path, mode)
    st = os.stat(index_path)
    locate = _recall(mode, st) \
        or _remember(mode, st, _load_locator(mode, index_path))
    return StoreMeta(reader_type.kind, header, locate)


def _load_locator(mode: str, index_path: str | os.PathLike[str],
                  ) -> Callable[[int, int, int], np.ndarray]:
    if mode == "overlap":
        return BaixOverlapIndex.load(index_path).locate_overlaps
    index = BaixIndex.load(index_path)
    return lambda ref_id, start, end: index.record_indices(
        *index.locate(ref_id, start, end))
