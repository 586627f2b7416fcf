"""Self-tuning scheduler: the persistent cost model behind ``--shards
auto``.

* :class:`CostModel` — a small persistent profile of *observed*
  conversion cost, keyed by ``(target, store format, pipeline,
  input-size bucket)``.  Every observation folds into per-key EWMA
  statistics (mean seconds-per-unit, hottest shard's rate, the unit
  fraction carried by hot shards), so the file stays a few KiB no
  matter how many jobs feed it.  Updates are atomic (tmp +
  ``os.replace``) and the key count is bounded (oldest keys evicted),
  so a crash mid-save or years of use cannot corrupt or bloat it.

* :class:`AutoTuner` — turns the model into one decision.
  :meth:`AutoTuner.begin_job` resolves ``shards_per_rank="auto"``: it
  rebuilds the learned two-class cost distribution for every candidate
  shard count and asks :func:`simulate_schedule` which split has the
  best predicted makespan (a cold model falls back to the static
  schedule, so un-profiled workloads never regress).  The returned
  :class:`JobTuning` collects the job's measured ``(units, seconds)``
  pairs; the schedule itself is fixed once dispatched.  Outputs stay
  byte-identical; only the shard count changes.

The service keeps one model in the daemon: a job body builds its
tuner over a copy of the daemon's entries (:meth:`CostModel.restore`)
in a pool process, and its observations and ``autotune_*`` counters
ride home with the job's result for the daemon to fold in and save;
the CLI builds a tuner per command from
``--cost-model``/``REPRO_COST_MODEL``.  Every auto
decision is recorded as a ``cost_model`` provenance block on an
``autotune`` span inside the job's trace, so ``repro status --trace
JOB`` explains what was chosen and why.
"""

from __future__ import annotations

import json
import math
import os
import threading
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any

from ..defaults import AUTO
from ..errors import RuntimeLayerError
from .executor import default_worker_count, simulate_schedule

__all__ = [
    "CostModel", "AutoTuner", "JobTuning", "make_key", "size_bucket",
    "resolve_model_path", "AUTO", "DEFAULT_ALPHA", "DEFAULT_MAX_KEYS",
    "SHARD_CANDIDATES", "SHARD_OVERHEAD_SECONDS",
]

#: EWMA weight of the newest observation.
DEFAULT_ALPHA = 0.3

#: Keys kept in the model file; the least recently updated are evicted.
DEFAULT_MAX_KEYS = 128

#: ``shards_per_rank`` values the tuner evaluates.
SHARD_CANDIDATES = (1, 2, 4, 8, 16, 32)

#: Modeled fixed cost of dispatching one shard on the shared pool
#: (submit + pickle + span bookkeeping).  This is what stops the
#: predicted makespan from improving forever as shards shrink.
SHARD_OVERHEAD_SECONDS = 1e-3

#: Environment variable naming the default cost-model file.
MODEL_PATH_ENV = "REPRO_COST_MODEL"


def resolve_model_path(explicit: str | os.PathLike[str] | None = None,
                       ) -> str:
    """The cost-model file a CLI command should use.

    Preference order: explicit ``--cost-model`` argument, the
    ``REPRO_COST_MODEL`` environment variable, then the per-user
    default under ``~/.cache/repro/``.
    """
    if explicit is not None:
        return os.fspath(explicit)
    return os.environ.get(MODEL_PATH_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "cost-model.json")


def size_bucket(units: float) -> int:
    """Bucket an input size into power-of-4 classes.

    Jobs whose total cost units (bytes for SAM text, records for BAMX
    stores) are within a factor of 4 share one bucket, so one profile
    key covers re-runs of similar inputs without conflating a 10 KiB
    smoke file with a 10 GiB production input.
    """
    if units <= 1:
        return 0
    return int(math.log(units, 4))


def make_key(target: str, store_format: str, pipeline: str,
             units: float) -> str:
    """The model key of one workload class."""
    return f"{target}|{store_format}|{pipeline}|b{size_bucket(units)}"


class CostModel:
    """Persistent EWMA profile of observed per-unit conversion cost.

    Parameters
    ----------
    path:
        JSON file holding the profile; ``None`` keeps the model
        in-memory only (used by converters that auto-create a private
        tuner).  An existing file is loaded eagerly; a corrupt file is
        treated as empty, an entry without its statistics is dropped,
        and either is remembered in :attr:`load_error` rather than
        raised — a damaged profile must never break a conversion.
    alpha:
        EWMA weight of the newest observation (0 < alpha <= 1).
    max_keys:
        Bounded-history cap: beyond it, the least recently updated
        keys are evicted on save.

    Per key the model stores:

    ``rate``
        EWMA of mean seconds per cost unit (the job's total wall over
        its total units).
    ``rate_max``
        EWMA of the *hottest* shard's seconds per unit — how expensive
        the densest region of this workload class is.
    ``hot_frac``
        EWMA of the fraction of units carried by above-average-rate
        shards.  ``rate``/``rate_max``/``hot_frac`` together describe a
        two-class cost distribution the tuner can re-simulate at any
        candidate shard count.
    """

    def __init__(self, path: str | os.PathLike[str] | None = None,
                 alpha: float = DEFAULT_ALPHA,
                 max_keys: int = DEFAULT_MAX_KEYS) -> None:
        if not 0.0 < alpha <= 1.0:
            raise RuntimeLayerError(f"alpha {alpha} must be in (0, 1]")
        if max_keys < 1:
            raise RuntimeLayerError(f"max_keys {max_keys} must be >= 1")
        self.path = None if path is None else os.fspath(path)
        self.alpha = alpha
        self.max_keys = max_keys
        self.load_error: str | None = None
        self._lock = threading.Lock()
        self._keys: dict[str, dict[str, Any]] = {}
        self._clock = 0
        if self.path is not None:
            self._load()

    # -- persistence -------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            keys = doc["keys"]
            if not isinstance(keys, dict):
                raise ValueError("'keys' is not an object")
        except FileNotFoundError:
            return
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.load_error = \
                f"unreadable, treated as empty ({type(exc).__name__}: {exc})"
            return
        loaded = {str(k): _clean_entry(v) for k, v in keys.items()}
        dropped = sorted(k for k, entry in loaded.items() if entry is None)
        if dropped:
            self.load_error = (
                f"dropped entries without finite rate/rate_max/hot_frac: "
                f"{', '.join(dropped)}")
        self.restore({k: entry for k, entry in loaded.items()
                      if entry is not None})

    def restore(self, keys: dict[str, dict[str, Any]]) -> None:
        """Replace the profile by *keys*, entries as :meth:`snapshot`
        returns them (so already clean): how a service job body sees
        the daemon's model without opening its file."""
        with self._lock:
            self._keys = keys
            self._clock = max(
                (e["updated"] for e in keys.values()), default=0)

    def save(self) -> None:
        """Atomically persist the profile (no-op for in-memory models).

        The document is written to ``<path>.tmp<pid>`` and moved into
        place with ``os.replace``, so readers never see a torn file —
        also when several processes (CLI commands sharing
        ``--cost-model``) save the same model at once; the last one in
        wins.
        """
        if self.path is None:
            return
        with self._lock:
            self._evict_locked()
            doc = {
                "version": 1,
                "alpha": self.alpha,
                "keys": {k: dict(v) for k, v in self._keys.items()},
            }
        # No ``indent``: it forces the pure-Python encoder, once per job.
        text = json.dumps(doc, sort_keys=True) + "\n"
        tmp = f"{self.path}.tmp{os.getpid()}"
        try:
            fh = open(tmp, "w", encoding="utf-8")
        except FileNotFoundError:       # first save: no directory yet
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            fh = open(tmp, "w", encoding="utf-8")
        with fh:
            fh.write(text)
        os.replace(tmp, self.path)

    def reset(self) -> None:
        """Forget every key and remove the model file."""
        with self._lock:
            self._keys.clear()
            self._clock = 0
        if self.path is not None:
            with suppress(FileNotFoundError):
                os.remove(self.path)

    def _evict_locked(self) -> None:
        if len(self._keys) <= self.max_keys:
            return
        ordered = sorted(self._keys,
                         key=lambda k: self._keys[k]["updated"])
        for key in ordered[:len(self._keys) - self.max_keys]:
            del self._keys[key]

    # -- observation -------------------------------------------------

    def observe(self, key: str,
                pairs: list[tuple[float, float]]) -> None:
        """Fold one job's per-shard ``(units, seconds)`` pairs into the
        key's EWMA statistics.

        *pairs* come from real executions — per-rank on the static
        schedule, per-shard on the dynamic one — so the model learns
        from every run, not only from tuned ones.
        """
        pairs = [(float(u), float(s)) for u, s in pairs if u > 0]
        if not pairs:
            return
        total_units = sum(u for u, _ in pairs)
        total_seconds = sum(s for _, s in pairs)
        rate = total_seconds / total_units
        rates = [s / u for u, s in pairs]
        rate_max = max(rates)
        hot_units = sum(u for (u, _), r in zip(pairs, rates) if r > rate)
        hot_frac = hot_units / total_units
        with self._lock:
            self._clock += 1
            entry = self._keys.get(key)
            if entry is None:
                entry = self._keys[key] = {
                    "rate": rate, "rate_max": rate_max,
                    "hot_frac": hot_frac, "count": 0,
                }
            a = self.alpha
            entry["rate"] = (1 - a) * entry["rate"] + a * rate
            entry["rate_max"] = (1 - a) * entry["rate_max"] + a * rate_max
            entry["hot_frac"] = (1 - a) * entry["hot_frac"] + a * hot_frac
            entry["count"] += 1
            entry["updated"] = self._clock
            self._evict_locked()

    # -- lookup ------------------------------------------------------

    def lookup(self, key: str) -> dict[str, Any] | None:
        """The key's statistics, or ``None`` when cold."""
        with self._lock:
            entry = self._keys.get(key)
            return dict(entry) if entry is not None else None

    def nearest(self, key: str) -> dict[str, Any] | None:
        """A neighbouring size bucket's statistics (same target, store
        and pipeline, bucket off by one) — per-unit rates transfer well
        across a factor-of-4 size difference, so a near miss still
        beats flying blind."""
        workload, _, bucket = key.rpartition("|b")
        with self._lock:
            for delta in (-1, 1):
                entry = self._keys.get(f"{workload}|b{int(bucket) + delta}")
                if entry is not None:
                    return dict(entry)
        return None

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Every key's statistics (for ``repro tune show`` and tests)."""
        with self._lock:
            return {k: dict(v) for k, v in self._keys.items()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)


def _clean_entry(entry: Any) -> dict[str, Any] | None:
    """A loaded model entry cut down to the fields this module keeps
    (a legacy ``batches`` block goes), or ``None`` unless ``rate``,
    ``rate_max`` and ``hot_frac`` are all finite numbers."""
    def number(name: str, kind: type | tuple) -> Any:
        value = entry.get(name)
        return value if isinstance(value, kind) \
            and not isinstance(value, bool) and math.isfinite(value) \
            else None

    if not isinstance(entry, dict):
        return None
    clean: dict[str, Any] = {
        name: number(name, (int, float))
        for name in ("rate", "rate_max", "hot_frac")}
    if None in clean.values():
        return None
    for name in ("count", "updated"):
        clean[name] = number(name, int) or 0
    return clean


def _candidate_costs(entry: dict[str, Any], total_units: float,
                     tasks: int) -> list[float]:
    """Per-task cost list of the learned two-class distribution.

    ``hot_frac`` of the units cost ``rate_max`` seconds each; the rest
    cost whatever keeps the total at ``rate * total_units``.  This is
    the coarsest distribution consistent with the EWMA statistics —
    enough to make skew visible to :func:`simulate_schedule` without
    storing per-shard history.
    """
    rate = entry["rate"]
    rate_max = max(entry["rate_max"], rate)
    hot_frac = min(max(entry["hot_frac"], 0.0), 1.0)
    unit = total_units / tasks
    n_hot = min(tasks, round(hot_frac * tasks))
    if 0 < n_hot < tasks:
        cold_total = rate * total_units - rate_max * n_hot * unit
        rate_cold = max(cold_total / ((tasks - n_hot) * unit), 0.0)
    else:
        n_hot = 0
        rate_cold = rate
    costs = [rate_max * unit + SHARD_OVERHEAD_SECONDS] * n_hot
    costs += [rate_cold * unit + SHARD_OVERHEAD_SECONDS] \
        * (tasks - n_hot)
    return costs


@dataclass(slots=True)
class TuneDecision:
    """What the tuner chose for one job, and why."""

    key: str
    shards_per_rank: int
    batch_size: int
    hit: bool                      #: exact model key was warm
    borrowed: bool = False         #: a neighbour bucket supplied stats
    auto_shards: bool = False
    predicted_makespan: float | None = None
    predicted_static: float | None = None
    workers: int = 1


class AutoTuner:
    """Turns :class:`CostModel` statistics into scheduling decisions.

    Parameters
    ----------
    model:
        The cost model consulted and updated by every job.
    metrics:
        Optional :class:`~repro.runtime.metrics.ServiceMetrics`; when
        given (the service), decisions are mirrored as ``autotune_*``
        counters and gauges.
    workers:
        Worker count the candidate makespans are modeled over;
        defaults to the shared executor's cap.
    shard_candidates:
        ``shards_per_rank`` values evaluated for ``--shards auto``.
    """

    def __init__(self, model: CostModel,
                 metrics: Any | None = None,
                 workers: int | None = None,
                 shard_candidates: tuple[int, ...] = SHARD_CANDIDATES,
                 ) -> None:
        self.model = model
        self.metrics = metrics
        self.workers = default_worker_count() if workers is None \
            else workers
        self.shard_candidates = tuple(sorted(set(shard_candidates)))

    # -- decisions ---------------------------------------------------

    def begin_job(self, target: str, store_format: str, pipeline: str,
                  total_units: float, nprocs: int,
                  shards: int | str = 1,
                  batch_size: int = 0) -> "JobTuning":
        """Resolve a job's shard count and return its :class:`JobTuning`.

        *shards* may be a concrete value (kept as-is; the tuner still
        records observations) or :data:`AUTO`.  *batch_size* is what
        the job runs with, recorded for the provenance block only.
        """
        key = make_key(target, store_format, pipeline, total_units)
        entry = self.model.lookup(key)
        hit = entry is not None
        borrowed = False
        if entry is None:
            entry = self.model.nearest(key)
            borrowed = entry is not None
        decision = TuneDecision(
            key=key,
            shards_per_rank=1 if shards == AUTO else int(shards),
            batch_size=int(batch_size), hit=hit, borrowed=borrowed,
            auto_shards=shards == AUTO, workers=self.workers)
        if entry is not None:
            decision.predicted_static = simulate_schedule(
                _candidate_costs(entry, total_units, nprocs),
                self.workers)
            if shards == AUTO:
                decision.shards_per_rank, decision.predicted_makespan = \
                    self._choose_shards(entry, total_units, nprocs)
        if self.metrics is not None:
            self.metrics.inc("autotune_jobs")
            self.metrics.inc("autotune_model_hits" if hit
                             else "autotune_model_misses")
            if decision.auto_shards:
                self.metrics.inc("autotune_auto_jobs")
        return JobTuning(self, decision)

    def _choose_shards(self, entry: dict[str, Any], total_units: float,
                       nprocs: int) -> tuple[int, float]:
        """The candidate whose simulated LPT makespan is (near-)best.

        Among candidates within 5% of the minimum the *smallest* wins —
        extra decomposition that buys nothing just costs dispatch
        overhead and trace noise.
        """
        makespans = {
            n: simulate_schedule(
                _candidate_costs(entry, total_units, nprocs * n),
                self.workers)
            for n in self.shard_candidates}
        best = min(makespans.values())
        return next((n, makespan) for n, makespan in makespans.items()
                    if makespan <= best * 1.05)


@dataclass(slots=True)
class JobTuning:
    """One job's resolved shard count and feedback sink.

    ``run_conversion`` creates this via :meth:`AutoTuner.begin_job`,
    splits with :attr:`shards_per_rank`, passes it to
    ``execute_rank_tasks`` (which calls :meth:`observe`), and calls
    :meth:`finish` when done.
    """

    tuner: AutoTuner
    decision: TuneDecision
    observed: list[tuple[float, float]] = field(default_factory=list)
    observed_makespan: float = 0.0

    @property
    def shards_per_rank(self) -> int:
        """The resolved over-decomposition factor."""
        return self.decision.shards_per_rank

    def observe(self, pairs: list[tuple[float, float]],
                wall: float = 0.0) -> None:
        """Collect one dispatch's measured ``(units, seconds)`` pairs
        for the model, and its *wall* as the observed makespan."""
        self.observed.extend(pairs)
        self.observed_makespan += wall

    def finish(self) -> None:
        """Fold the job's observations into the model and persist it."""
        if self.observed:
            self.tuner.model.observe(self.decision.key, self.observed)
            self.observed.clear()
            # A read-only or vanished model directory must not fail the
            # conversion that produced correct output.
            with suppress(OSError):
                self.tuner.model.save()
        if self.tuner.metrics is not None:
            self.tuner.metrics.set_gauge("autotune_model_keys",
                                         len(self.tuner.model))

    def provenance(self) -> dict[str, Any]:
        """The ``cost_model`` block recorded in traced job spans."""
        d = self.decision
        block: dict[str, Any] = {
            "path": self.tuner.model.path,
            "key": d.key,
            "hit": d.hit,
            "borrowed": d.borrowed,
            "shards_per_rank": d.shards_per_rank,
            "batch_size": d.batch_size,
            "auto_shards": d.auto_shards,
            "workers": d.workers,
        }
        if d.predicted_makespan is not None:
            block["predicted_makespan"] = round(d.predicted_makespan, 6)
        if d.predicted_static is not None:
            block["predicted_static"] = round(d.predicted_static, 6)
        if self.observed_makespan:
            block["observed_makespan"] = round(self.observed_makespan, 6)
        return block
