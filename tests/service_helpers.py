"""Test helper: hold a service's executor on named requests.

A dispatch loop pops its queue whenever its executor has room, so a test
that needs a request to stay queued (deadline, cancel, drain,
backpressure, batching) first occupies every pop the loop may keep
outstanding.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
from typing import Callable, Dict, List

from repro.service import protocol
from repro.service.server import POPS_IN_FLIGHT

#: Shard workers fork from the test process, so they inherit the patched
#: solve and share these events; without fork only the inline tier holds.
FORKS = "fork" in multiprocessing.get_all_start_methods()


class ExecutorHold:
    """Blocks ``protocol.execute_request`` on held requests until released.

    A request is held when its id starts with ``hold`` or is in ``ids``.
    Create the hold before the service: the patch and the events then
    reach shard workers forked at construction as well as the inline
    solve thread.
    """

    def __init__(self, monkeypatch, ids=()):
        ids = frozenset(ids)
        events = multiprocessing.get_context("fork") if FORKS else threading
        self.started = events.Event()
        self.released = events.Event()
        real = protocol.execute_request
        started, released = self.started, self.released

        def held(request):
            if request.id.startswith("hold") or request.id in ids:
                started.set()
                assert released.wait(timeout=30)
            return real(request)

        monkeypatch.setattr(protocol, "execute_request", held)

    async def wait_started(self) -> None:
        """Until a held request is running in its executor."""
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.started.wait, 30)

    async def occupy(
        self, service, wire: Callable[[str], Dict[str, object]]
    ) -> List["asyncio.Task"]:
        """Fill every pop outstanding on the shard that ``wire`` routes to.

        The first pop is held in the solve and the others wait behind it,
        so any request that shard admits afterwards stays queued until
        :meth:`release`.  Returns the holders' response tasks.
        """
        holders = []
        for index in range(POPS_IN_FLIGHT):
            holders.append(
                asyncio.create_task(service.handle_message(wire(f"hold{index}")))
            )
            await asyncio.sleep(0)  # the holder is admitted...
            if index == 0:
                await self.wait_started()
            await until(lambda: service.queue.depth == 0)  # ...and popped
        return holders

    def release(self) -> None:
        self.released.set()


async def until(condition: Callable[[], bool], timeout_s: float = 30.0) -> None:
    """Yield to the event loop until ``condition()`` holds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not condition():
        assert loop.time() < deadline, "condition not reached"
        await asyncio.sleep(0.001)
