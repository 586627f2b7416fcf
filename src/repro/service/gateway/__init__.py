"""Async gateway subsystem for the conversion service.

The front door of ``repro serve``: :class:`GatewayServer` (listeners
and one handler per connection on the scheduler's event loop, in
:mod:`.server`) and :class:`Dispatcher` (op routing and the submit
refusals, in :mod:`.dispatch`).  The wire format, asyncio frame reader
included, is :mod:`repro.service.protocol`.  See ``docs/service.md``
for the architecture and backpressure semantics.
"""

from .dispatch import Dispatcher
from .server import GatewayServer

__all__ = ["Dispatcher", "GatewayServer"]
