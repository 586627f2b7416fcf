"""False discovery rate computation (§IV-B; Han et al. 2012).

Given an observed histogram ``r`` (M bins) and B random simulation
datasets ``r*``, the FDR of a candidate threshold ``p_t`` is::

    p_i      = sum_b  I(r_i <= r*_ib)                      (Eq. 4)
    d_b      = sum_i  I( sum_b' I(r*_ib <= r*_ib') <= p_t) (Eq. 5)
    FDR(p_t) = (B^-1 sum_b d_b) / sum_i I(p_i <= p_t)      (Eq. 6)

Implementations, slowest to fastest:

* :func:`fdr_reference` — literal loops over the equations (tests only);
* :func:`fdr_vectorized` — NumPy broadcasting, O(M B^2) like the paper;
* :func:`fdr_sorted` — an O(M B log B) extension using per-bin sorting
  (cross-checked against the quadratic version);
* :func:`fdr_parallel` — the paper's Algorithm 2: bin-direction
  partitioning, fused local sums ``sum_diamond`` / ``sum_star``
  computed concurrently, a single global reduction.  The *unfused*
  two-step variant (separate numerator and denominator reductions, one
  extra barrier) is provided for the Fig. 12 ablation.  Its ranks run
  through :func:`repro.core.base.execute_rank_tasks`: the spec handed to
  a rank is the scatter, summing the ordered results the reduction, the
  call returning the barrier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.base import execute_rank_tasks
from ..errors import ReproError
from ..runtime.metrics import RankMetrics
from ..runtime.partition import even_split

#: Bins per broadcasting chunk in the vectorized kernels; bounds the
#: B x B x chunk boolean intermediate to a few tens of MiB.
CHUNK_BINS = 2048


def _validate(histogram: np.ndarray, simulations: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray]:
    histogram = np.asarray(histogram, dtype=np.float64)
    simulations = np.asarray(simulations, dtype=np.float64)
    if histogram.ndim != 1:
        raise ReproError("histogram must be 1-dimensional")
    if simulations.ndim != 2:
        raise ReproError("simulations must be 2-dimensional (B, M)")
    if simulations.shape[1] != len(histogram):
        raise ReproError(
            f"simulations have {simulations.shape[1]} bins, histogram "
            f"has {len(histogram)}")
    if simulations.shape[0] < 1:
        raise ReproError("need at least one simulation dataset")
    return histogram, simulations


@dataclass(slots=True)
class FdrResult:
    """FDR value plus the intermediate sums (for inspection/tests)."""

    fdr: float
    numerator: float      # B^-1 * sum_b d_b  ==  sum_i sum_diamond_i / B
    denominator: float    # sum_i I(p_i <= p_t)
    threshold: float


def fdr_reference(histogram: np.ndarray, simulations: np.ndarray,
                  p_t: float) -> FdrResult:
    """Direct transcription of Equations 4-6 (O(M B^2), loops)."""
    hist, sims = _validate(histogram, simulations)
    n_sims, n_bins = sims.shape
    p = np.zeros(n_bins)
    for i in range(n_bins):
        for b in range(n_sims):
            if hist[i] <= sims[b, i]:
                p[i] += 1
    d = np.zeros(n_sims)
    for b in range(n_sims):
        for i in range(n_bins):
            rank = 0
            for b2 in range(n_sims):
                if sims[b, i] <= sims[b2, i]:
                    rank += 1
            if rank <= p_t:
                d[b] += 1
    denominator = float(np.sum(p <= p_t))
    numerator = float(d.sum() / n_sims)
    return FdrResult(_safe_ratio(numerator, denominator), numerator,
                     denominator, p_t)


def _local_sums_quadratic(hist: np.ndarray, sims: np.ndarray,
                          p_t: float) -> tuple[float, float]:
    """Fused sum_diamond / sum_star over one bin chunk (Eqs. 7-8),
    via B x B broadcasting."""
    # ranks[b, i] = #(b' : sims[b, i] <= sims[b', i])
    ranks = (sims[:, None, :] <= sims[None, :, :]).sum(axis=1)
    sum_diamond = float((ranks <= p_t).sum())
    p = (hist[None, :] <= sims).sum(axis=0)
    sum_star = float((p <= p_t).sum())
    return sum_diamond, sum_star


def _local_sums_sorted(hist: np.ndarray, sims: np.ndarray,
                       p_t: float) -> tuple[float, float]:
    """Fused local sums in O(B log B) per bin via per-column sorting.

    ``rank_ib = #(b': sims_bi <= sims_b'i) = B - lower_bound(col, x)``
    where the column is sorted ascending; ties are handled by the
    left-side search, matching the <= comparison.
    """
    n_sims = sims.shape[0]
    ordered = np.sort(sims, axis=0)
    sum_diamond = 0.0
    for i in range(sims.shape[1]):
        lo = np.searchsorted(ordered[:, i], sims[:, i], side="left")
        ranks = n_sims - lo
        sum_diamond += float((ranks <= p_t).sum())
    p = (hist[None, :] <= sims).sum(axis=0)
    sum_star = float((p <= p_t).sum())
    return sum_diamond, sum_star


def _safe_ratio(numerator: float, denominator: float) -> float:
    """FDR with the 0-denominator convention: no selected bins -> 0."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


def _fdr_chunked(histogram: np.ndarray, simulations: np.ndarray,
                 p_t: float, local_sums, chunk_bins: int) -> FdrResult:
    hist, sims = _validate(histogram, simulations)
    n_sims, n_bins = sims.shape
    sum_diamond = 0.0
    sum_star = 0.0
    for start in range(0, n_bins, chunk_bins):
        stop = min(start + chunk_bins, n_bins)
        d, s = local_sums(hist[start:stop], sims[:, start:stop], p_t)
        sum_diamond += d
        sum_star += s
    numerator = sum_diamond / n_sims
    return FdrResult(_safe_ratio(numerator, sum_star), numerator,
                     sum_star, p_t)


def fdr_vectorized(histogram: np.ndarray, simulations: np.ndarray,
                   p_t: float, chunk_bins: int = CHUNK_BINS) -> FdrResult:
    """Vectorized O(M B^2) computation (the paper's complexity)."""
    return _fdr_chunked(histogram, simulations, p_t,
                        _local_sums_quadratic, chunk_bins)


def fdr_sorted(histogram: np.ndarray, simulations: np.ndarray,
               p_t: float, chunk_bins: int = CHUNK_BINS) -> FdrResult:
    """O(M B log B) extension via per-bin sorting."""
    return _fdr_chunked(histogram, simulations, p_t,
                        _local_sums_sorted, chunk_bins)


# -- Algorithm 2: parallel FDR ------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class FdrRankSpec:
    """One rank's bin partition (picklable for the process executor):
    views of the histogram and of every simulation over the same bins."""

    hist_part: np.ndarray
    sims_part: np.ndarray
    p_t: float
    method: str


@dataclass(slots=True)
class FdrRankSums:
    """One rank's local sums and measured work."""

    sum_diamond: float
    sum_star: float
    metrics: RankMetrics


def fdr_rank_work(spec: FdrRankSpec) -> FdrRankSums:
    """Compute one bin partition's fused local sums (Eqs. 7-8): the
    rank task of every executor."""
    t0 = time.perf_counter()
    metrics = RankMetrics()
    hist_part, sims_part = spec.hist_part, spec.sims_part
    local_sums = _local_sums_quadratic if spec.method == "quadratic" \
        else _local_sums_sorted
    sum_diamond = 0.0
    sum_star = 0.0
    for start in range(0, len(hist_part), CHUNK_BINS):
        stop = min(start + CHUNK_BINS, len(hist_part))
        d, s = local_sums(hist_part[start:stop],
                          sims_part[:, start:stop], spec.p_t)
        sum_diamond += d
        sum_star += s
    metrics.compute_seconds = time.perf_counter() - t0
    metrics.records = len(hist_part)
    metrics.bytes_read = hist_part.nbytes + sims_part.nbytes
    return FdrRankSums(sum_diamond, sum_star, metrics)


def fdr_parallel(histogram: np.ndarray, simulations: np.ndarray,
                 p_t: float, nprocs: int, method: str = "quadratic",
                 fused: bool = True, executor: str = "simulate",
                 ) -> tuple[FdrResult, list[RankMetrics]]:
    """Algorithm 2 on *nprocs* ranks (``simulate``: one after another,
    feeding the cluster model; ``thread`` / ``process``: concurrently).

    *fused* selects the paper's optimization: compute ``sum_diamond``
    and ``sum_star`` concurrently and reduce once.  ``fused=False`` is
    the unoptimized two-step schedule of the Fig. 12 ablation — a
    numerator pass, a global synchronization, a denominator pass: the
    ranks run twice, and the first run returning is that barrier.
    """
    hist, sims = _validate(histogram, simulations)
    if nprocs < 1:
        raise ReproError(f"nprocs {nprocs} must be >= 1")
    specs = [FdrRankSpec(hist[a:b], sims[:, a:b], p_t, method)
             for a, b in even_split(len(hist), nprocs)]
    rank_sums = execute_rank_tasks(fdr_rank_work, specs, executor)
    metrics = [r.metrics for r in rank_sums]
    if not fused:
        # The two-pass schedule does the same arithmetic twice over the
        # partition (one pass per sum); charge the second sweep's rank
        # time so the model sees the real cost difference.
        second = execute_rank_tasks(fdr_rank_work, specs, executor)
        metrics = [m.merge(r.metrics) for m, r in zip(metrics, second)]
    sum_diamond = sum(r.sum_diamond for r in rank_sums)
    sum_star = sum(r.sum_star for r in rank_sums)
    numerator = sum_diamond / sims.shape[0]
    result = FdrResult(_safe_ratio(numerator, sum_star), numerator,
                       sum_star, p_t)
    return result, metrics
