"""Shard tier tests (PR 10): routing, byte-identity, drain, backpressure.

The acceptance contract: a sharded service is an *invisible* scaling
knob.  Canonical result bytes must match the inline tier and the
direct solver byte for byte -- for 1 shard and N shards, cold cache and
warm -- and drain must hand back exactly one response per admitted
request, flushing the workers' memo statistics into the parent metrics
on the way out.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.cache import ResultCache
from repro.models import Task, TaskSet
from repro.service import protocol
from repro.service.client import (
    RETRYABLE_CODES,
    ServiceClient,
    demo_wire_requests,
    expected_result,
)
from repro.service.metrics import labelled_name
from repro.service.queue import AdmissionQueue, split_capacity
from repro.service.ring import HashRing
from repro.service.server import SolveService
from repro.service.shard import ShardPool, shard_route_key


def run(coro):
    return asyncio.run(coro)


def solve_wire(request_id, **overrides):
    wire = {
        "kind": "solve",
        "id": str(request_id),
        "tasks": [
            {"name": "a", "release": 0.0, "deadline": 40.0, "workload": 8000.0},
            {"name": "b", "release": 0.0, "deadline": 70.0, "workload": 15000.0},
        ],
    }
    wire.update(overrides)
    return wire


def make_request(request_id, platform=None):
    return protocol.request_from_wire(
        solve_wire(request_id, **({"platform": platform} if platform else {}))
    )


async def with_service(body, **kwargs):
    service = SolveService(**kwargs)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.drain()


class TestCapacitySplit:
    def test_split_sums_to_total(self):
        for capacity, shards in [(256, 4), (10, 3), (7, 7), (5, 2)]:
            parts = split_capacity(capacity, shards)
            assert len(parts) == shards
            assert sum(parts) == capacity

    def test_remainder_goes_to_first_shards(self):
        assert split_capacity(10, 3) == [4, 3, 3]

    def test_capacity_below_shards_rejected(self):
        with pytest.raises(ValueError):
            split_capacity(2, 3)


class TestShardedQueue:
    def _queue(self, shards=2, capacity=8, **kwargs):
        ring = HashRing(shards)
        return AdmissionQueue(
            capacity,
            shards=shards,
            router=lambda request: ring.shard_for(shard_route_key(request)),
            **kwargs,
        )

    def test_offer_stamps_shard_and_routes_consistently(self):
        queue = self._queue()
        results = [queue.offer(make_request(i)) for i in range(4)]
        assert all(r.admitted for r in results)
        shards = {r.shard for r in results}
        # Identical platforms share one shard: that is the affinity
        # contract keeping worker memos warm.
        assert len(shards) == 1
        assert queue.shard_depth(results[0].shard) == 4
        assert queue.depth == 4

    def test_per_shard_queue_full_reports_shard(self):
        queue = self._queue(shards=2, capacity=2, shed_threshold=1.0)
        first = queue.offer(make_request("a"))
        assert first.admitted
        overflow = queue.offer(make_request("b"))  # same platform, same shard
        assert not overflow.admitted
        assert overflow.code == protocol.E_QUEUE_FULL
        assert overflow.shard == first.shard

    def test_pop_shard_batch_only_drains_that_shard(self):
        queue = self._queue()
        admitted = queue.offer(make_request("x"))
        other = 1 - admitted.shard
        assert queue.pop_batch(8, other) == ([], [], [])
        ready, expired, cancelled = queue.pop_batch(8, admitted.shard)
        assert [e.request.id for e in ready] == ["x"]
        assert expired == [] and cancelled == []

    def test_depth_peak_tracks_aggregate(self):
        queue = self._queue(capacity=16)
        for i in range(5):
            queue.offer(make_request(i))
        assert queue.depth_peak == 5


class TestByteIdentity:
    def _expected(self, wires):
        # expected_result solves each wire under the config it resolves
        # to here, exactly like the service's per-batch resolution.
        return [
            protocol.canonical_result_bytes(expected_result(dict(w)))
            for w in wires
        ]

    def _serve_all(self, wires, tmp_path, shards, tag):
        cache = ResultCache(str(tmp_path / f"cache-{tag}"))

        async def body(service):
            passes = []
            for _ in range(2):  # cold, then warm
                responses = await asyncio.gather(
                    *[service.handle_message(dict(w)) for w in wires]
                )
                passes.append(responses)
            return passes

        return run(
            with_service(
                body,
                shards=shards,
                cache=cache,
                capacity=256,
            )
        )

    def test_sharded_results_match_inline_and_direct(self, tmp_path):
        wires = [
            w
            for w in demo_wire_requests(12, unique=4, seed=3)
            if w.get("kind") == "solve"
        ]
        expected = self._expected(wires)
        for shards in (0, 1, 4):  # 0 = inline tier
            passes = self._serve_all(wires, tmp_path, shards, f"s{shards}")
            for label, responses in zip(("cold", "warm"), passes):
                assert all(r["ok"] for r in responses), (shards, label)
                got = [
                    protocol.canonical_result_bytes(r["result"])
                    for r in responses
                ]
                assert got == expected, (shards, label)

    def test_shard_provenance_stamped(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache-prov"))

        async def body(service):
            return await service.handle_message(solve_wire("p1"))

        response = run(
            with_service(body, shards=2, cache=cache)
        )
        assert response["ok"] is True
        assert response["provenance"]["shard"] in (0, 1)


class TestDrain:
    def test_no_lost_or_duplicated_responses_across_drain(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache-drain"))
        wires = [solve_wire(f"d{i}") for i in range(24)]

        async def body():
            service = SolveService(
                shards=2, cache=cache, capacity=64
            )
            await service.start()
            tasks = [
                asyncio.create_task(service.handle_message(dict(w)))
                for w in wires
            ]
            await asyncio.sleep(0)  # let every request enqueue
            await service.drain()
            responses = await asyncio.gather(*tasks)
            return service, responses

        service, responses = run(body())
        assert len(responses) == len(wires)
        ids = [r["id"] for r in responses]
        assert sorted(ids) == sorted(w["id"] for w in wires)
        assert len(set(ids)) == len(wires)
        assert all(r["ok"] for r in responses)

    def test_drain_flushes_worker_memo_stats_into_metrics(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache-stats"))

        async def body():
            service = SolveService(
                shards=2, cache=cache, capacity=64
            )
            await service.start()
            await service.handle_message(solve_wire("m1"))
            await service.drain()
            return service.metrics.render_text()

        text = run(body())
        assert 'repro_shard_block_arrays_cached{shard="0"}' in text
        assert 'repro_shard_block_arrays_cached{shard="1"}' in text
        assert 'repro_shard_worker_pid{shard=' in text

    def test_drain_request_then_signal_drain_stops_each_worker_once(self, tmp_path):
        # `repro serve` drains on SIGTERM even after a `drain` request has
        # already stopped the workers; that second drain must do nothing.
        cache = ResultCache(str(tmp_path / "cache-twice"))

        async def body():
            service = SolveService(shards=2, cache=cache)
            await service.start()
            stopped = []
            for index, executor in enumerate(service.executors):
                def counted(*args, _index=index, _stop=executor.shutdown, **kwargs):
                    stopped.append(_index)
                    return _stop(*args, **kwargs)

                executor.shutdown = counted
            response = await service.handle_message({"kind": "drain", "id": "d"})
            assert response["ok"] is True
            for _ in range(500):  # let the requested drain finish
                if len(stopped) == len(service.executors):
                    break
                await asyncio.sleep(0.01)
            assert sorted(stopped) == [0, 1]
            await asyncio.wait_for(service.drain(), timeout=60)
            return service, stopped

        service, stopped = run(body())
        assert service.metrics.counter("repro_errors_total").value == 0
        assert sorted(stopped) == [0, 1]


class TestWorkerLoss:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the stalled solve reaches the worker through fork",
    )
    def test_worker_killed_mid_batch_fails_only_that_batch(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL a shard's worker mid-batch: that batch alone fails, with
        a retryable code; the shard's next request runs on a replacement
        worker and matches a direct solve; drain still returns."""
        started = tmp_path / "doomed-started"
        real = protocol.execute_request

        def stalled(request):
            if request.id.startswith("doomed"):
                scratch = tmp_path / "doomed-started.tmp"
                scratch.write_text(str(os.getpid()))
                scratch.replace(started)
                time.sleep(60)
            return real(request)

        # Patched before the service forks its worker, so the worker runs it.
        monkeypatch.setattr(protocol, "execute_request", stalled)

        async def body():
            service = SolveService(shards=1)
            await service.start()
            doomed = [
                asyncio.create_task(service.handle_message(solve_wire(f"doomed{i}")))
                for i in range(3)
            ]
            for _ in range(3000):
                if started.exists():
                    break
                await asyncio.sleep(0.01)
            assert started.exists()
            os.kill(int(started.read_text()), signal.SIGKILL)
            lost = await asyncio.wait_for(asyncio.gather(*doomed), timeout=60)
            after = await asyncio.wait_for(
                service.handle_message(solve_wire("after")), timeout=60
            )
            await asyncio.wait_for(service.drain(), timeout=60)
            return service, lost, after

        service, lost, after = run(body())
        assert sorted(r["id"] for r in lost) == ["doomed0", "doomed1", "doomed2"]
        for response in lost:
            assert response["ok"] is False
            assert response["error"]["code"] in RETRYABLE_CODES
            assert response["error"]["retry_after_ms"] > 0
            assert response["error"]["shard"] == 0
        assert after["ok"] is True
        direct = real(make_request("after"))
        assert protocol.canonical_result_bytes(
            after["result"]
        ) == protocol.canonical_result_bytes(direct)
        respawns = labelled_name("repro_shard_respawns_total", shard=0)
        assert service.metrics.counter(respawns).value == 1


class TestBackpressureEnvelope:
    def test_queue_full_envelope_carries_shard(self):
        async def body():
            # Never started: offers accumulate, so the per-shard bound
            # (capacity 2 over 2 shards = 1 slot each) trips immediately.
            service = SolveService(shards=2, capacity=2, shed_threshold=1.0)
            filler = make_request("filler")
            shard = service.queue.router(filler)
            assert service.queue.offer(filler).admitted
            response = await service.handle_message(solve_wire("overflow"))
            await service.drain()
            return shard, response

        shard, response = run(body())
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.E_QUEUE_FULL
        assert response["error"]["shard"] == shard

    def test_inline_tier_envelope_has_no_shard_key(self):
        async def body():
            service = SolveService(capacity=4, shed_threshold=1.0)
            for i in range(4):
                assert service.queue.offer(make_request(i)).admitted
            response = await service.handle_message(solve_wire("overflow"))
            await service.drain()
            return response

        response = run(body())
        assert response["ok"] is False
        # Single-shard/inline envelopes stay byte-stable: no shard key.
        assert "shard" not in response["error"]


class TestClientJitter:
    def test_seeded_clients_draw_identical_jitter(self):
        a = ServiceClient("127.0.0.1", 1, retry_seed=42)
        b = ServiceClient("127.0.0.1", 1, retry_seed=42)
        assert [a._retry_rng.random() for _ in range(8)] == [
            b._retry_rng.random() for _ in range(8)
        ]

    def test_unseeded_clients_desynchronize(self):
        a = ServiceClient("127.0.0.1", 1)
        b = ServiceClient("127.0.0.1", 1)
        draws_a = [a._retry_rng.random() for _ in range(8)]
        draws_b = [b._retry_rng.random() for _ in range(8)]
        assert draws_a != draws_b

    def test_jitter_out_of_range_rejected(self):
        client = ServiceClient("127.0.0.1", 1)
        with pytest.raises(ValueError, match="jitter"):
            run(client.request_with_retry(solve_wire("j"), jitter=1.5))


class TestShardPoolRouting:
    def test_route_matches_ring_on_fingerprint(self):
        pool = ShardPool(3)
        try:
            request = make_request("r1", platform={"alpha_m": 2000.0})
            expected = pool.ring.shard_for(shard_route_key(request))
            assert pool.route(request) == expected
        finally:
            pool.shutdown()

    def test_distinct_platforms_spread_over_shards(self):
        pool = ShardPool(4)
        try:
            shards = {
                pool.route(make_request(i, platform={"alpha_m": 1000.0 + i}))
                for i in range(40)
            }
            assert len(shards) > 1
        finally:
            pool.shutdown()
