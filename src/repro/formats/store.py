"""Record stores behind one interface: BAMX, BAMZ and BAMC.

All readers expose ``len``, ``[i]``, ``read_range``, iteration,
``.header``, ``.layout`` and — what the converters' one rank task and
the statistics kernels read — ``read_column_batches(start, stop,
batch_size)`` / ``read_column_picks(indices, batch_size)``: column
slabs, which BAMC holds and BAMX/BAMZ rows decode to.  Callers use
:func:`open_record_store` and never care which physical format backs
the store.  Everything else that depends on the physical format lives
here too, one row per store:

* :func:`encode_slab_part` / :func:`join_store_parts` /
  :func:`publishing` — the one way a store and its BAIX/BAIX2 sidecars
  are written: ranks encode slabs into ordered part files, one reducer
  appends them under the capacities all need, and the files appear
  atomically;
* :func:`index_path_for` / :func:`store_meta` — how partial conversion
  finds a store's index and queries it: header and index stay resident
  per file identity, so a warm query pays for its records only.
"""

from __future__ import annotations

import glob
import os
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from functools import reduce
from typing import Any, NamedTuple, Union

import numpy as np

from ..defaults import DEFAULT_BATCH_SIZE, KNOBS
from ..errors import BamxFormatError
from ..runtime import faults
from ..runtime.buffers import file_identity, settled
from ..runtime.tracing import get_tracer
from . import baix as _baix
from . import baix2 as _baix2
from . import bamc as _bamc
from . import bamx as _bamx
from . import bamz as _bamz
from .baix import BaixIndex
from .baix2 import BaixOverlapIndex
from .bamc import BamcReader, BamcWriter
from .bamx import BamxLayout, BamxReader, BamxWriter
from .bamz import BamzReader, BamzWriter
from .bgzf import is_bgzf
from .header import SamHeader

RecordStore = Union[BamxReader, BamzReader, BamcReader]


#: Files whose parsed form stays resident (stores and indexes alike).
RESIDENT_FILES = 8

# What this process parsed of a file — of a store (``what="store"``) its
# ``(reader class, header)``, of an index (``what`` = the query mode) its
# locator — under ``(what, *file_identity)``, the rule ArtifactCache
# verifies hits by: stores and sidecars are published by ``os.replace``.
_resident: OrderedDict[tuple, Any] = OrderedDict()
_resident_lock = threading.Lock()


def _fresh_lock() -> None:
    # A pool worker forked while a thread held the lock must not wait
    # for it; what is resident is the worker's to keep.
    global _resident_lock
    _resident_lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock)


def _recall(what: str, st: os.stat_result) -> Any:
    """The resident *what* of the file *st* describes, or ``None``."""
    key = (what, *file_identity(st))
    with _resident_lock:
        if key not in _resident:
            return None
        _resident.move_to_end(key)
        return _resident[key]


def _remember(what: str, st: os.stat_result, value: Any) -> Any:
    """Keep *value* resident — once the file has settled — among the
    :data:`RESIDENT_FILES` most recently used; returns *value*."""
    if settled(st):
        with _resident_lock:
            _resident[(what, *file_identity(st))] = value
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
    KNOBS["store_format"].check(store_format, BamxFormatError)
    if store_format == "bamc":
        if compress:
            raise BamxFormatError(
                "BAMC does not support BGZF compression; use "
                "store_format='bamx' with compress=True for BAMZ")
        return ".bamc"
    return ".bamz" if compress else ".bamx"


def column_slabs(reader: RecordStore) -> Iterator:
    """Every :class:`~.bamc.ColumnSlab` of a store, in record order:
    what the flagstat/histogram kernels run on."""
    return reader.read_column_batches(0, len(reader), DEFAULT_BATCH_SIZE)


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


def join_store_parts(store_path: str, header: SamHeader,
                     parts: Iterable[tuple[str, list[tuple]]],
                     store_format: str = "bamx", compress: bool = False,
                     level: int = 6,
                     slab_records: int = DEFAULT_BATCH_SIZE) -> int:
    """The reducer of every store write: append the part files of
    *parts* — ``(path, slabs)`` in record order, each slab ``(bytes,
    records, index columns, layout)`` as :func:`encode_slab_part` made
    it — into one store at *store_path* under the capacities all the
    slabs need, removing each part once copied; then build the
    BAIX/BAIX2 sidecars from the slabs' index columns (numbered from 0
    in their slab).  Returns the records written."""
    parts = list(parts)
    layout = reduce(BamxLayout.merge, (need for _, slabs in parts
                                       for *_, need in slabs),
                    BamxLayout(0, 0, 0, 0))
    columns = []
    tracer = get_tracer()
    with tracer.span("write", "store", args={"parts": len(parts)}), \
            open_store_writer(store_path, header, layout, store_format,
                              compress, level, slab_records) as writer:
        for path, slabs in parts:
            with open(path, "rb") as part:
                for nbytes, count, placed, need in slabs:
                    first = writer.write_encoded(part.read(nbytes), count,
                                                 need)
                    columns.append((*placed[:3], placed[3] + first))
            os.unlink(path)
    columns = tuple(np.concatenate(column) for column in zip(*columns)) \
        if columns else ((), (), (), ())
    with tracer.span("index", "store", args={"entries": len(columns[-1])}):
        write_indexes(*columns, store_path)
    return writer.records_written


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
        faults.fire("store.publish")
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
    kind, header = store_header(store_path)
    if index_path is None:
        index_path = index_path_for(store_path, mode)
    st = os.stat(index_path)
    locate = _recall(mode, st) \
        or _remember(mode, st, _load_locator(mode, index_path))
    return StoreMeta(kind, header, locate)


def store_header(store_path: str | os.PathLike[str],
                 ) -> tuple[str, SamHeader]:
    """Kind and header of a store, resident per file identity like
    :func:`store_meta`'s: a warm call is one ``stat``."""
    reader_type, header = _recall("store", os.stat(store_path)) \
        or (None, None)
    if header is None:
        with open_record_store(store_path) as reader:
            reader_type, header = type(reader), reader.header
    return reader_type.kind, header


def _load_locator(mode: str, index_path: str | os.PathLike[str],
                  ) -> Callable[[int, int, int], np.ndarray]:
    if mode == "overlap":
        return BaixOverlapIndex.load(index_path).locate_overlaps
    index = BaixIndex.load(index_path)
    return lambda ref_id, start, end: index.record_indices(
        *index.locate(ref_id, start, end))
