"""The dispatch rule: pop on idle, at most ``POPS_IN_FLIGHT`` pops per shard.

Each test runs on the inline tier (one in-process solve thread) and on a
2-shard service (two worker processes behind the hash ring).
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service import server as server_module
from repro.service.server import POPS_IN_FLIGHT, SolveService
from tests.service_helpers import FORKS, ExecutorHold

TIERS = [0, 2]
PLATFORMS = [{"alpha_m": 1200.0 + 200.0 * k} for k in range(8)]


def solve_wire(request_id, platform=None):
    return {
        "kind": "solve",
        "id": request_id,
        "platform": platform or PLATFORMS[0],
        "tasks": [
            {"name": "a", "release": 0.0, "deadline": 40.0, "workload": 8000.0},
            {"name": "b", "release": 0.0, "deadline": 70.0, "workload": 15000.0},
        ],
    }


def run(body, **kwargs):
    async def scenario():
        service = SolveService(**kwargs)
        await service.start()
        try:
            return await body(service)
        finally:
            await service.drain()

    return asyncio.run(scenario())


class SubmitSpy:
    """Wraps every executor's ``submit``; records submissions outstanding."""

    def __init__(self, service):
        self.lock = threading.Lock()
        self.outstanding = [0] * len(service.executors)
        self.peak = [0] * len(service.executors)
        self.submitted = [0] * len(service.executors)
        for index, executor in enumerate(service.executors):
            executor.submit = self._wrap(index, executor.submit)

    def _wrap(self, index, submit):
        def spied(batches):
            with self.lock:
                self.outstanding[index] += 1
                self.submitted[index] += 1
                self.peak[index] = max(self.peak[index], self.outstanding[index])
            future = submit(batches)
            future.add_done_callback(lambda _: self._done(index))
            return future

        return spied

    def _done(self, index):
        with self.lock:
            self.outstanding[index] -= 1


@pytest.mark.parametrize("shards", TIERS)
def test_submissions_outstanding_never_exceed_the_bound(shards):
    async def body(service):
        spy = SubmitSpy(service)
        wires = [
            solve_wire(f"r{i}", PLATFORMS[i % len(PLATFORMS)]) for i in range(200)
        ]
        responses = await asyncio.gather(
            *[service.handle_message(w) for w in wires]
        )
        return spy, responses

    spy, responses = run(body, shards=shards)
    assert all(r["ok"] for r in responses)
    assert all(count > 0 for count in spy.submitted)  # every shard worked
    assert max(spy.peak) <= POPS_IN_FLIGHT


class SleepRecorder:
    """Stands in for ``asyncio`` inside the server module; records timers."""

    def __init__(self):
        self.timers = []

    def __getattr__(self, name):
        return getattr(asyncio, name)

    def sleep(self, delay, *args):
        self.timers.append(("sleep", delay))
        return asyncio.sleep(delay, *args)

    def wait_for(self, awaitable, timeout, *args):
        self.timers.append(("wait_for", timeout))
        return asyncio.wait_for(awaitable, timeout, *args)


@pytest.mark.parametrize("shards", TIERS)
def test_lone_request_on_an_idle_service_is_dispatched_without_a_timer(
    shards, monkeypatch
):
    recorder = SleepRecorder()
    monkeypatch.setattr(server_module, "asyncio", recorder)

    async def body(service):
        spy = SubmitSpy(service)
        await asyncio.sleep(0.01)  # every dispatch loop now idles on its wake
        response = await service.handle_message(solve_wire("lone"))
        return spy, response

    spy, response = run(body, shards=shards)
    assert response["ok"] is True
    assert response["provenance"]["batch_size"] == 1
    assert sum(spy.submitted) == 1
    assert recorder.timers == []


@pytest.mark.parametrize("shards", TIERS)
def test_arrivals_while_the_executor_is_held_leave_as_one_batch(
    shards, monkeypatch
):
    if shards and not FORKS:
        pytest.skip("the hold reaches shard workers through fork")
    hold = ExecutorHold(monkeypatch)

    async def body(service):
        holders = await hold.occupy(service, solve_wire)
        arrivals = []
        for index in range(9):  # one per event-loop turn
            arrivals.append(
                asyncio.create_task(service.handle_message(solve_wire(f"n{index}")))
            )
            await asyncio.sleep(0)
        await asyncio.sleep(0.01)
        assert service.queue.depth == 9
        hold.release()
        return await asyncio.gather(*arrivals), await asyncio.gather(*holders)

    arrivals, holders = run(body, shards=shards)
    assert all(r["ok"] for r in arrivals + holders)
    assert [r["provenance"]["batch_size"] for r in arrivals] == [9] * 9


def test_serve_help_states_the_bound(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    assert f"at most {POPS_IN_FLIGHT} pops" in " ".join(capsys.readouterr().out.split())
