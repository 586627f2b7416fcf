"""Long-lived conversion job service.

Turns the one-shot converters into a service: jobs with priorities,
timeouts and retries (:mod:`jobs`), a thread worker pool draining a
priority queue (:mod:`scheduler`), a write-ahead job journal replayed
for crash recovery (:mod:`journal`), a content-addressed cache of
preprocessing artifacts with LRU eviction and digest-verified
integrity (:mod:`cache`), a line-JSON wire protocol (:mod:`protocol`),
and the async gateway front door (:mod:`gateway`) multiplexing
unix-socket and TCP clients with per-connection sessions,
executor-backed dispatch and admission control (:mod:`server` wires it
all together; :mod:`client` is the blocking client).

Exports resolve on first use (PEP 562): ``from repro.service import
ServiceClient`` loads the client and the wire protocol only.
"""

import importlib

#: Export name -> the submodule that defines it.
_EXPORTS = {
    "Job": "jobs", "JobState": "jobs", "seed_job_counter": "jobs",
    "WorkerPool": "scheduler",
    "JobJournal": "journal", "replay": "journal",
    "high_water_mark": "journal",
    "ArtifactCache": "cache", "CacheEntry": "cache",
    "cache_key": "cache", "content_digest": "cache",
    "file_digests": "cache",
    "ConversionService": "server", "ServiceDaemon": "server",
    "ServiceClient": "client",
    "AdmissionController": "gateway", "Dispatcher": "gateway",
    "FrameError": "gateway", "FrameReader": "gateway",
    "GatewayConfig": "gateway", "GatewayServer": "gateway",
    "Session": "gateway",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
