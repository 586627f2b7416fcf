"""Parallel NL-means with halo replication (§IV-A).

The paper's three-step strategy:

1. evenly divide the 1-D histogram into one partition per core;
2. expand each partition with a fixed-size ``r + l`` region replicated
   from each neighbour (edge replication at the global ends, matching
   the sequential kernel's padding);
3. run NL-means over the enlarged partition but emit only the original
   partition's points, so replicated data is never *output*.

Because :func:`repro.stats.nlmeans.nlmeans_core` is partition-invariant,
the concatenated rank outputs are bitwise identical to the sequential
result — asserted in the tests.

The ranks run through :func:`repro.core.base.execute_rank_tasks`: the
spec handed to a rank *is* the scatter (its enlarged partition), the
ordered results placed by ``core_start`` are the gather.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.base import execute_rank_tasks
from ..errors import ReproError
from ..runtime.metrics import RankMetrics
from ..runtime.partition import even_split
from .nlmeans import _validate, nlmeans_core


@dataclass(frozen=True, slots=True, eq=False)
class NlmeansRankSpec:
    """Everything one rank needs (picklable for the process executor):
    where its core sits, the enlarged partition, the kernel parameters."""

    core_start: int
    core_len: int
    enlarged: np.ndarray
    search_radius: int
    half_patch: int
    sigma: float


@dataclass(slots=True)
class NlmeansRankResult:
    """One rank's denoised slice plus its measured work."""

    start: int
    values: np.ndarray
    metrics: RankMetrics


def halo_partition(values: np.ndarray, nparts: int, halo: int,
                   ) -> list[tuple[int, int, np.ndarray]]:
    """Split *values* into enlarged partitions.

    Returns one ``(core_start_global, core_len, enlarged_array)`` per
    rank, where *enlarged_array* carries exactly *halo* context points
    on each side of the core (replicated from neighbours, or
    edge-replicated at the global boundaries).
    """
    if halo < 0:
        raise ReproError(f"halo {halo} must be >= 0")
    padded = np.pad(values, halo, mode="edge")
    parts = []
    for start, end in even_split(len(values), nparts):
        # Core [start, end) sits at [start + halo, end + halo) in padded.
        enlarged = padded[start:end + 2 * halo]
        parts.append((start, end - start, enlarged))
    return parts


def nlmeans_rank_work(spec: NlmeansRankSpec) -> NlmeansRankResult:
    """Denoise one enlarged partition: the rank task of every executor."""
    t0 = time.perf_counter()
    metrics = RankMetrics()
    if spec.core_len == 0:
        values = np.empty(0)
    else:
        halo = spec.search_radius + spec.half_patch
        values = nlmeans_core(spec.enlarged, halo, spec.core_len,
                              spec.search_radius, spec.half_patch,
                              spec.sigma)
    metrics.compute_seconds = time.perf_counter() - t0
    metrics.records = spec.core_len
    metrics.bytes_read = spec.enlarged.nbytes
    metrics.bytes_written = values.nbytes
    return NlmeansRankResult(spec.core_start, values, metrics)


def nlmeans_parallel(values: np.ndarray, nprocs: int,
                     search_radius: int = 20, half_patch: int = 15,
                     sigma: float = 10.0, executor: str = "simulate",
                     ) -> tuple[np.ndarray, list[RankMetrics]]:
    """Run the halo-partitioned NL-means on *nprocs* ranks.

    Returns the reassembled result and per-rank metrics (under
    ``simulate`` they feed the simulated-cluster model; ``thread`` and
    ``process`` run the ranks concurrently on the shared pool).  Output
    is bitwise identical to :func:`repro.stats.nlmeans.nlmeans` on
    every executor.
    """
    v = _validate(values, search_radius, half_patch, sigma)
    if nprocs < 1:
        raise ReproError(f"nprocs {nprocs} must be >= 1")
    halo = search_radius + half_patch
    specs = [NlmeansRankSpec(*part, search_radius, half_patch, sigma)
             for part in halo_partition(v, nprocs, halo)]
    out = np.empty(len(v))
    metrics = []
    for result in execute_rank_tasks(nlmeans_rank_work, specs, executor):
        out[result.start:result.start + len(result.values)] = result.values
        metrics.append(result.metrics)
    return out, metrics
