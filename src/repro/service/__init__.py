"""Long-lived conversion job service.

Turns the one-shot converters into a service: jobs with priorities,
timeouts and retries (:mod:`jobs`), an event-loop pool draining a
priority queue (:mod:`scheduler`), a write-ahead job journal replayed
for crash recovery (:mod:`journal`), a content-addressed cache of
preprocessing artifacts with LRU eviction and digest-verified
integrity (:mod:`cache`), a line-JSON wire protocol (:mod:`protocol`),
and the async gateway front door (:mod:`gateway`) multiplexing
unix-socket and TCP clients on the scheduler's event loop, refusing
submits beyond its queue bound (:mod:`server` wires it all together;
:mod:`client` is the blocking client).

Exports resolve on first use (PEP 562): ``from repro.service import
ServiceClient`` loads the client and the wire protocol only.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(globals(), {
    "jobs": ("Job", "JobState", "seed_job_counter"),
    "scheduler": ("WorkerPool",),
    "journal": ("JobJournal", "replay", "high_water_mark"),
    "cache": ("ArtifactCache", "CacheEntry", "cache_key", "content_digest",
              "file_digests"),
    "server": ("ConversionService",),
    "client": ("ServiceClient",),
    "gateway": ("Dispatcher", "GatewayServer"),
})
