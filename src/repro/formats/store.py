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
* :func:`index_path_for` / :func:`region_locator` — how partial
  conversion finds a store's index and queries it.
"""

from __future__ import annotations

import glob
import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from typing import Union

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
from .header import SamHeader
from .kernels import KernelFallback, kernel_emitter_for
from .record import AlignmentRecord

RecordStore = Union[BamxReader, BamzReader, BamcReader]


def open_record_store(path: str | os.PathLike[str]) -> RecordStore:
    """Open a BAMX, BAMC or BAMZ file, dispatching on its magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(len(_bamx.MAGIC))
    if head == _bamx.MAGIC:
        return BamxReader(path)
    if head == _bamc.MAGIC:
        return BamcReader(path)
    # BAMZ files are BGZF streams; their magic is inside the first
    # block, so sniff by extension/BGZF framing instead.
    from .bgzf import is_bgzf
    if is_bgzf(path):
        return BamzReader(path)
    raise BamxFormatError(
        "not a BAMX, BAMC or BAMZ file", source=os.fspath(path))


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


def region_locator(store_path: str | os.PathLike[str], mode: str,
                   index_path: str | os.PathLike[str] | None = None,
                   ) -> Callable[[int, int, int], Iterable[int]]:
    """``locate(ref_id, start, end) -> record indices`` over a store's
    sidecar index.

    ``mode="start"`` (the paper's semantics) selects records whose
    starting position lies in the region, by binary search over the v1
    BAIX; ``mode="overlap"`` selects records whose alignment span
    overlaps it, via the v2 overlap index.
    """
    if index_path is None:
        index_path = index_path_for(store_path, mode)
    if mode == "overlap":
        return BaixOverlapIndex.load(index_path).locate_overlaps
    index = BaixIndex.load(index_path)
    return lambda ref_id, start, end: index.record_indices(
        *index.locate(ref_id, start, end))
