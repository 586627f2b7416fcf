"""Pool runners for tests: the scheduler awaits ``async def
runner(job)``; a test's plain function runs on a thread of the loop's
executor, so it may block the way a test needs it to."""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.service.jobs import Job


def threaded(fn: Callable[[Job], Any]):
    """An async runner awaiting ``fn(job)`` on a thread."""

    async def runner(job: Job) -> Any:
        return await asyncio.to_thread(fn, job)

    return runner
