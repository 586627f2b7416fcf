"""Shared harness of the eight paper-reproduction scripts.

Each ``bench_*.py`` here regenerates one table or figure of §V of the
paper and prints **seconds**.  Performance claims about this code base
come from ``benchmarks/e2e`` (``python -m benchmarks.e2e run``) and from
nowhere else; these scripts show that the paper's experiments still
have the paper's *shape*, on the same generated alignment files the
end-to-end benchmark uses (``benchmarks/e2e/gen.py``).

One :class:`Series` is one line of a figure.  Its ``run(nprocs,
executor)`` does one whole parallel call and is timed two ways:

* **measured** — the wall clock of the call on 1 and 2 *real* ranks of
  the ``thread`` and ``process`` executors (:data:`REAL_CELLS`), the
  best of interleaved repetitions (a stall on a shared host only ever
  adds time).  A single rank runs inline on the
  calling thread whatever the executor (``core/base.py: _dispatch``),
  so the 1-rank cell is timed once and stands under both.  The box
  decides how many cores two ranks really get, so nothing is asserted
  about these ratios.
* **modelled** — the same call on the ``simulate`` executor (ranks run
  and are timed one at a time), its per-rank metrics fed to
  :func:`repro.runtime.metrics.modeled_parallel_time` for the paper's
  cluster (8-core nodes, shared storage saturating at ``io_streams``
  concurrent streams).  That is the only way a 2-cpu host can say
  anything about 128 cores; it is printed beside the measured seconds,
  never instead of them.

Every call, whatever the executor, is one *timed cell*.  A cell under
:data:`MIN_CELL_SECONDS` measures the interpreter, not the work, so at
full size :meth:`Bench.report` fails the script until its dataset is
made larger.  Every cell's output is also fingerprinted and must equal
the first cell's.  ``REPRO_BENCH_SMOKE=1`` (the CI step) shrinks the
datasets tenfold and the sweep to three core counts and keeps only the
output-identity assertions; nothing is written to
``benchmarks/results/`` then.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.runtime.metrics import RankMetrics, modeled_parallel_time

from .e2e.gen import Dataset

#: No timed cell may be shorter than this at full size.
MIN_CELL_SECONDS = 0.2

#: The real ranks every series is reported on: ``(executor, ranks)``.
REAL_CELLS = (("thread", 1), ("thread", 2), ("process", 1), ("process", 2))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def smoke_mode() -> bool:
    """True when ``REPRO_BENCH_SMOKE`` is set (the CI perf-smoke step)."""
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def sized(full: int) -> int:
    """A dataset size: *full*, a tenth of it in smoke mode (kept even,
    as the generator wants)."""
    return full // 20 * 2 if smoke_mode() else full


def cores(full: tuple[int, ...]) -> tuple[int, ...]:
    """The modelled sweep: *full* (the paper's core counts), its first
    three in smoke mode."""
    return full[:3] if smoke_mode() else full


#: Core counts of the conversion and NL-means figures: the paper's
#: 1..128 at every other doubling (one node is 8 cores), so a sweep is
#: five calls of >= 0.2 s and the eight scripts fit in minutes.
CONVERSION_CORES = (1, 2, 8, 32, 128)


@functools.lru_cache(maxsize=None)
def dataset_dir() -> str:
    """One temp directory shared by all bench datasets this session,
    removed when the interpreter exits."""
    path = tempfile.mkdtemp(prefix="repro-bench-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


@functools.lru_cache(maxsize=None)
def _dataset(n_records: int) -> Dataset:
    return Dataset(1234, n_records)


@functools.lru_cache(maxsize=None)
def sam_dataset(n_records: int) -> str:
    """Build (once) and return a coordinate-sorted SAM of *n_records*."""
    path = os.path.join(dataset_dir(), f"bench{n_records}.sam")
    _dataset(n_records).write_sam(path)
    return path


@functools.lru_cache(maxsize=None)
def bam_dataset(n_records: int) -> str:
    """Build (once) and return the BAM twin of :func:`sam_dataset`."""
    path = os.path.join(dataset_dir(), f"bench{n_records}.bam")
    _dataset(n_records).write_bam(path)
    return path


def parts_digest(paths: list[str]) -> str:
    """SHA-256 of the part files' concatenation in rank order; the
    ``@`` header every rank repeats in a SAM part is left out."""
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        start = 0
        if path.endswith(".sam"):
            while data.startswith(b"@", start):
                start = data.index(b"\n", start) + 1
        digest.update(data[start:])
    return digest.hexdigest()


@dataclass
class Series:
    """One figure line: modelled seconds per core count, measured
    seconds per real cell, and the fingerprint all its cells share."""

    label: str
    modelled: dict[int, float] = field(default_factory=dict)
    real: dict[tuple[str, int], float] = field(default_factory=dict)
    fingerprint: Any = None

    def speedup(self, nprocs: int) -> float:
        """Modelled speedup over the modelled 1-core time."""
        return self.modelled[1] / self.modelled[nprocs]

    def real_row(self) -> list[float]:
        """The measured seconds in :data:`REAL_CELLS` order."""
        return [self.real[cell] for cell in REAL_CELLS]

    def table(self, paper: dict[int, object] | None = None) -> str:
        """cores | modelled T | modelled speedup | thread | process
        (| paper): measured seconds sit in the rows of 1 and 2 cores."""
        headers = ["cores", "modelled (s)", "modelled speedup",
                   "thread (s)", "process (s)"]
        rows = []
        for n, seconds in self.modelled.items():
            row = [n, seconds, f"{self.speedup(n):.2f}",
                   self.real.get(("thread", n), "-"),
                   self.real.get(("process", n), "-")]
            rows.append(row + [paper.get(n, "-")] if paper else row)
        if paper:
            headers.append("paper")
        return f"series: {self.label}\n" + format_rows(headers, rows)


class Bench:
    """The timed cells of one script and the report they end in."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cell_seconds: list[float] = []

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run *fn* as one timed cell: ``(its result, wall seconds)``."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        self.cell_seconds.append(wall)
        return out, wall

    def series(self, label: str,
               run: Callable[[int, str], tuple[list[RankMetrics], Any]],
               sweep: tuple[int, ...],
               fingerprint: Callable[[Any], Any] = lambda value: value,
               repeats: int = 2) -> Series:
        """Time ``run(nprocs, executor) -> (rank metrics, value)`` over
        the modelled *sweep* and the real cells.

        ``fingerprint(value)`` is taken outside the timed region; every
        cell's must equal the first's (the 1-core ``simulate`` call).
        A modelled point is one call — except the top one, a max over
        the most and shortest ranks, which a single stall moves most:
        the best of *repeats*.  A real cell is the best of *repeats*
        calls too, the repetitions interleaved across the cells so
        drift on a shared host falls on all of them alike.  Smoke mode
        runs every cell once.
        """
        if smoke_mode():
            repeats = 1
        out = Series(label)

        def cell(nprocs: int, executor: str) -> tuple[float, float]:
            (metrics, value), wall = self.timed(
                lambda: run(nprocs, executor))
            mark = fingerprint(value)
            if out.fingerprint is None:
                out.fingerprint = mark
            assert mark == out.fingerprint, \
                f"{label}: {executor} x{nprocs} changed the output"
            return modeled_parallel_time(metrics), wall

        sweep = cores(sweep)
        for nprocs in sweep:
            out.modelled[nprocs] = min(
                cell(nprocs, "simulate")[0]
                for _ in range(repeats if nprocs == sweep[-1] else 1))
        walls: dict[tuple[str, int], list[float]] = \
            {real: [] for real in REAL_CELLS if real != ("process", 1)}
        for _ in range(repeats):
            for executor, nprocs in walls:
                walls[executor, nprocs].append(cell(nprocs, executor)[1])
        out.real = {real: min(w) for real, w in walls.items()}
        out.real["process", 1] = out.real["thread", 1]    # inline alike
        return out

    def report(self, text: str) -> None:
        """Print the report and, at full size, persist it under
        ``benchmarks/results/`` — after checking that no timed cell was
        too short to mean anything."""
        shortest = min(self.cell_seconds)
        text += (f"\n\n{len(self.cell_seconds)} timed cells on this host "
                 f"({os.cpu_count()} cpus), shortest {shortest:.3f} s; "
                 "measured = best wall of one whole call on real ranks "
                 "(one rank runs inline whatever the executor: one "
                 "measurement under both), modelled = simulate-executor "
                 "rank times through the cluster model")
        banner = f"\n===== {self.name} =====\n{text}\n"
        print(banner)
        if smoke_mode():
            return
        assert shortest >= MIN_CELL_SECONDS, \
            (f"{self.name}: a timed cell took {shortest:.3f} s "
             f"(< {MIN_CELL_SECONDS}); enlarge the dataset")
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, f"{self.name}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(banner)


def assert_scales(series: Series, upto: int = 8,
                  tolerance: float = 0.10) -> None:
    """The shape every speedup figure shares, on modelled seconds: more
    cores never cost more than *tolerance* through the compute-bound
    range (1..*upto* cores, where a rank is tens of milliseconds and
    the bound survives a 0.1 s stall), and the largest machine beats
    *upto* cores."""
    counts = list(series.modelled)
    for few, many in zip(counts, counts[1:]):
        if many <= upto:
            assert series.modelled[many] < \
                (1 + tolerance) * series.modelled[few], \
                (series.label, few, many, series.modelled)
    assert series.modelled[counts[-1]] < series.modelled[upto], \
        (series.label, series.modelled)


def format_rows(headers: list[str], rows: list[list[object]]) -> str:
    """Simple fixed-width table formatter."""
    cells = [[str(h) for h in headers]] + \
        [[f"{c:.3f}" if isinstance(c, float) else str(c) for c in row]
         for row in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
