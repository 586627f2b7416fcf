#!/usr/bin/env python
"""BAM preprocessing on 1 and 2 ranks, in absolute seconds.

``repro simulate`` writes a coordinate-sorted BAM (default 200 000
records); ``BamConverter.preprocess`` then runs on it in every cell of

    {1 rank, 2 thread ranks, 2 process ranks} x {bamx, bamc}

five times, the cell order rotated every repetition so no cell always
runs first or last.  Every measurement is its own subprocess (fresh
interpreter; imports, numpy and the worker pool warmed on a small BAM
before the clock starts) and runs the phase twice: untraced for the
phase seconds, traced for the stage split — ``scan``, ``inflate``,
``walk``, ``encode``, ``append`` (the ``write`` stage, less the
``encode`` ranks in a tree whose ``write`` holds them), ``index`` — as
measured wall, a rank stage taken
from its first rank's start to its last rank's end.  Nothing is
modelled.

With ``--parent-src DIR`` (the ``src`` directory of another checkout,
e.g. the parent commit) that tree's ``preprocess`` — sequential,
whatever it is — is measured the same way beside them, and its stores
must have the same digests.

Every measurement also sorts the BAM (``sort_file``, same ranks) and
runs ``flagstat`` on it, each once, timed.

The stores and indexes of all cells must be byte-identical (sha-256
over ``.bamx``/``.bamc``, ``.baix``, ``.baix2``), and so must the sorted
BAMs inflated (each rank writes its own BGZF blocks) and the flagstat
reports: the tool exits 1 if not.  With ``REPRO_BENCH_SMOKE=1`` (the CI ``perf-smoke`` job) that
check is all it does — a small BAM, one repetition, no file written;
otherwise the table goes to ``benchmarks/results/`` as JSON.

Usage::

    python tools/preprocess_scaling.py [--records N] [--reps R]
        [--parent-src DIR] [--output PATH]
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STAGES = ("scan", "inflate", "walk", "encode", "append", "index")
#: (label, nprocs, executor); one rank runs in-process whatever it says.
RANKS = (("1 rank", 1, "simulate"), ("2 thread", 2, "thread"),
         ("2 process", 2, "process"))
STORES = ("bamx", "bamc")


def _digest(directory: str) -> str:
    sha = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        sha.update(name.encode())
        with open(os.path.join(directory, name), "rb") as fh:
            while chunk := fh.read(1 << 20):
                sha.update(chunk)
    return sha.hexdigest()


def _stage_split(spans: list) -> dict[str, float]:
    """Measured wall of every stage of one traced preprocess (a tree
    without these stages — the parent's two passes — gives its own
    ``plan``/``write``/``index``)."""
    def first(name: str) -> float:
        return min(s.start for s in spans if s.name == name)

    def wall(name: str) -> float:
        return max(s.end for s in spans if s.name == name) - first(name)
    names = {s.name for s in spans}
    split = {name: wall(name) for name in (*STAGES, "plan", "write")
             if name in names}
    if "encode" in split:
        nested = first("write") <= first("encode")
        split["append"] = split.pop("write") - nested * split["encode"]
    return split


def worker(bam: str, warm_bam: str, work: str, store: str, nprocs: int,
           executor: str) -> dict:
    """One measurement, in this (fresh) process; *sys.path* already
    leads to the tree under test."""
    from repro.core import BamConverter
    from repro.core.sort import sort_file
    from repro.runtime.tracing import Tracer, install
    from repro.tools.flagstat import flagstat_parallel
    converter = BamConverter(store_format=store)
    ranks = {"nprocs": nprocs, "executor": executor} if nprocs > 1 else {}

    def run(source: str, name: str) -> float:
        out = os.path.join(work, name)
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        converter.preprocess(source, out, **ranks)
        return time.perf_counter() - t0

    run(warm_bam, "warm")
    seconds = run(bam, "timed")
    digest = _digest(os.path.join(work, "timed"))
    tracer = Tracer()
    previous = install(tracer)
    try:
        run(bam, "traced")
    finally:
        install(previous)
    sorted_bam = os.path.join(work, "sorted.bam")
    t0 = time.perf_counter()
    sort_file(bam, sorted_bam, nprocs, executor, work_dir=work)
    sort_seconds = time.perf_counter() - t0
    stats, _ = flagstat_parallel(bam, nprocs, executor)
    flagstat_seconds = time.perf_counter() - t0 - sort_seconds
    with gzip.open(sorted_bam) as fh:
        sort_digest = hashlib.sha256(fh.read()).hexdigest()
    return {"seconds": seconds, "digest": digest,
            "stages": _stage_split(tracer.spans()),
            "sort_seconds": sort_seconds,
            "flagstat_seconds": flagstat_seconds,
            "sort_digest": sort_digest,
            "flagstat": stats.format_report()}


def _measure(src: str, *args: object) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", src,
         *map(str, args)], capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"worker failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=int,
                        default=4_000 if smoke else 200_000)
    parser.add_argument("--reps", type=int, default=1 if smoke else 5)
    parser.add_argument("--parent-src", default=None)
    parser.add_argument("--output", default=os.path.join(
        ROOT, "benchmarks", "results", "preprocess_scaling.json"))
    args = parser.parse_args(argv)

    work = tempfile.mkdtemp(prefix="preprocess-scaling-")
    try:
        bams = {}
        for name, records in (("reads", args.records), ("warm", 2_000)):
            bams[name] = os.path.join(work, f"{name}.bam")
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "simulate", bams[name],
                 "--templates", str(max(records // 2, 1))],
                env=dict(os.environ, PYTHONPATH=SRC), check=True,
                stdout=subprocess.DEVNULL)
        cells = [(SRC, label, store, nprocs, executor)
                 for label, nprocs, executor in RANKS for store in STORES]
        if args.parent_src:
            cells += [(os.path.abspath(args.parent_src), "parent", store,
                       1, "simulate") for store in STORES]
        runs: dict[tuple[str, str], list[dict]] = {
            (label, store): [] for _, label, store, _, _ in cells}
        for rep in range(args.reps):
            shift = rep % len(cells)
            for src, label, store, nprocs, executor \
                    in cells[shift:] + cells[:shift]:
                runs[label, store].append(_measure(
                    src, bams["reads"], bams["warm"],
                    os.path.join(work, "out"), store, nprocs, executor))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    table, failed = [], False
    for store in STORES:
        digests = {run["digest"] for (_, s), cell in runs.items()
                   if s == store for run in cell}
        if len(digests) != 1:
            print(f"FAIL {store}: {len(digests)} different digests "
                  f"across cells")
            failed = True
    for key, what in (("sort_digest", "sorted BAMs"),
                      ("flagstat", "flagstat reports")):
        seen = {run[key] for cell in runs.values() for run in cell}
        if len(seen) != 1:
            print(f"FAIL: {len(seen)} different {what} across cells")
            failed = True
    for (label, store), cell in runs.items():
        seconds = [run["seconds"] for run in cell]
        stages = {name: statistics.median(
            run["stages"][name] for run in cell) for name in cell[0]["stages"]}
        table.append({
            "cell": label, "store": store, "seconds": seconds,
            "median_seconds": statistics.median(seconds),
            "records_per_s": args.records / statistics.median(seconds),
            "stage_seconds": stages, "digest": cell[0]["digest"],
            "sort_seconds": statistics.median(
                run["sort_seconds"] for run in cell),
            "flagstat_seconds": statistics.median(
                run["flagstat_seconds"] for run in cell)})
    print(f"{args.records} records, {args.reps} repetitions "
          f"(seconds: median [min..max]; stages: median of traced runs)")
    print(f"{'cell':10s} {'store':5s} {'phase s':>22s} {'rec/s':>9s}  "
          + " ".join(f"{name:>7s}" for name in STAGES)
          + f" {'sort':>7s} {'flagst':>7s}")
    for row in table:
        s = row["seconds"]
        print(f"{row['cell']:10s} {row['store']:5s} "
              f"{row['median_seconds']:7.3f} [{min(s):5.3f}..{max(s):5.3f}]"
              f" {row['records_per_s']:9.0f}  " + (" ".join(
                  f"{row['stage_seconds'][name]:7.3f}" for name in STAGES)
                  if row["cell"] != "parent" else "  ".join(
                      f"{name} {seconds:.3f}" for name, seconds
                      in row["stage_seconds"].items()))
              + f" {row['sort_seconds']:7.3f} {row['flagstat_seconds']:7.3f}")
    by_cell = {(row["cell"], row["store"]): row for row in table}
    for store in STORES:
        one, two = (by_cell[label, store]
                    for label in ("1 rank", "2 process"))
        wins = sum(b < a for a, b in zip(one["seconds"], two["seconds"]))
        line = (f"{store}: 2 process ranks / 1 rank = "
                f"{two['median_seconds'] / one['median_seconds']:.2f}x "
                f"({wins} of {args.reps} repetitions faster)")
        if args.parent_src:
            parent = by_cell["parent", store]["median_seconds"]
            line += (f"; / parent sequential = "
                     f"{two['median_seconds'] / parent:.2f}x")
        serial = sum(one["stage_seconds"][name] for name in (
            "scan", "walk", "append", "index"))
        print(f"{line}; serial stages (scan + walk + append + index) "
              f"{serial:.3f} s of the 1-rank {one['median_seconds']:.3f} s")
    if not smoke and not failed:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump({"records": args.records, "reps": args.reps,
                       "cells": table}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.relpath(args.output, ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        src, bam, warm_bam, work, store, nprocs, executor = sys.argv[2:]
        sys.path.insert(0, src)
        print(json.dumps(worker(bam, warm_bam, work, store, int(nprocs),
                                executor)))
    else:
        sys.exit(main())
