"""End-to-end service tests: transports, lifecycle, and the acceptance demo."""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.core import vectorized
from repro.experiments.cache import ResultCache
from repro.service import protocol
from repro.service.client import ServiceClient, demo_wire_requests, run_demo
from repro.service.server import SolveService
from tests.service_helpers import ExecutorHold, until


def run(coro):
    return asyncio.run(coro)


def solve_wire(request_id, **overrides):
    wire = {
        "kind": "solve",
        "id": request_id,
        "tasks": [
            {"name": "a", "release": 0.0, "deadline": 40.0, "workload": 8000.0},
            {"name": "b", "release": 0.0, "deadline": 70.0, "workload": 15000.0},
        ],
    }
    wire.update(overrides)
    return wire


async def with_service(body, **kwargs):
    service = SolveService(**kwargs)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.drain()


class TestHandleMessage:
    def test_ping(self):
        async def body(service):
            return await service.handle_message({"kind": "ping", "id": "p"})

        response = run(with_service(body))
        assert response["ok"] is True
        assert response["result"]["pong"] is True

    def test_metrics_kind_returns_text_and_snapshot(self):
        async def body(service):
            return await service.handle_message({"kind": "metrics", "id": "m"})

        response = run(with_service(body))
        assert "repro_requests_total" in response["result"]["text"]
        assert "repro_queue_depth" in response["result"]["snapshot"]

    def test_unknown_kind_rejected(self):
        async def body(service):
            return await service.handle_message({"kind": "teleport", "id": "t"})

        response = run(with_service(body))
        assert response["error"]["code"] == protocol.E_BAD_REQUEST
        assert "teleport" in response["error"]["message"]

    def test_solve_round_trip_matches_direct_execution(self):
        async def body(service):
            return await service.handle_message(solve_wire("s1"))

        response = run(with_service(body))
        assert response["ok"] is True
        direct = protocol.execute_request(protocol.request_from_wire(solve_wire("s1")))
        assert protocol.canonical_result_bytes(
            response["result"]
        ) == protocol.canonical_result_bytes(direct)

    def test_malformed_solve_gets_error_envelope(self):
        async def body(service):
            return await service.handle_message(solve_wire("bad", scheme="quantum"))

        response = run(with_service(body))
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.E_UNKNOWN_SCHEME


class TestLifecycle:
    def test_draining_rejects_new_solves(self):
        async def body():
            service = SolveService()
            await service.start()
            await service.drain()
            response = await service.handle_message(solve_wire("late"))
            assert response["error"]["code"] == protocol.E_DRAINING

        run(body())

    def test_admitted_requests_answered_before_drain_returns(self, monkeypatch):
        hold = ExecutorHold(monkeypatch)

        async def body(service):
            holders = await hold.occupy(service, solve_wire)
            pending = [
                asyncio.create_task(service.handle_message(solve_wire(f"d{i}")))
                for i in range(4)
            ]
            await asyncio.sleep(0)  # let the offers land
            assert service.queue.depth == 4
            drain = asyncio.create_task(service.drain())
            await asyncio.sleep(0.01)
            assert not drain.done()  # four requests still queued
            hold.release()
            await drain
            responses = await asyncio.gather(*pending, *holders)
            assert all(r["ok"] for r in responses)

        async def scenario():
            service = SolveService()
            await service.start()
            await body(service)

        run(scenario())

    def test_drain_of_an_idle_service_returns_promptly(self):
        async def scenario():
            service = SolveService()
            await service.start()
            await asyncio.sleep(0.01)  # every loop now waits on its wake
            started = asyncio.get_running_loop().time()
            await asyncio.wait_for(service.drain(), timeout=5)
            return asyncio.get_running_loop().time() - started

        assert run(scenario()) < 0.05

    def test_deadline_expiry_before_dispatch(self, monkeypatch):
        hold = ExecutorHold(monkeypatch)

        async def body(service):
            holders = await hold.occupy(service, solve_wire)
            pending = asyncio.create_task(
                service.handle_message(solve_wire("slow", timeout_ms=0.5))
            )
            await asyncio.sleep(0.005)  # "slow" expires while queued
            hold.release()
            response = await pending
            assert response["error"]["code"] == protocol.E_DEADLINE_EXCEEDED
            assert "0.5 ms" in response["error"]["message"]
            assert (
                service.metrics.counter("repro_deadline_expired_total").value == 1
            )
            assert all(r["ok"] for r in await asyncio.gather(*holders))

        run(with_service(body))

    def test_cancel_pending_request(self, monkeypatch):
        hold = ExecutorHold(monkeypatch)

        async def body(service):
            holders = await hold.occupy(service, solve_wire)
            pending = asyncio.create_task(
                service.handle_message(solve_wire("victim"))
            )
            await asyncio.sleep(0)
            cancel = await service.handle_message(
                {"kind": "cancel", "id": "c", "target": "victim"}
            )
            assert cancel["result"]["cancelled"] is True
            hold.release()
            response = await pending
            assert response["error"]["code"] == protocol.E_CANCELLED
            assert all(r["ok"] for r in await asyncio.gather(*holders))

        run(with_service(body))

    def test_queue_full_rejection_carries_retry_after(self, monkeypatch):
        hold = ExecutorHold(monkeypatch)

        async def body(service):
            holders = await hold.occupy(service, solve_wire)
            first = asyncio.create_task(service.handle_message(solve_wire("one")))
            await asyncio.sleep(0)  # "one" now occupies the single seat
            second = await service.handle_message(solve_wire("two"))
            assert second["error"]["code"] == protocol.E_QUEUE_FULL
            assert second["error"]["retry_after_ms"] > 0
            hold.release()
            assert (await first)["ok"] is True
            assert all(r["ok"] for r in await asyncio.gather(*holders))

        run(with_service(body, capacity=1))

    def test_sweep_lane_shed_while_degraded(self, monkeypatch):
        hold = ExecutorHold(monkeypatch)

        async def body(service):
            holders = await hold.occupy(service, solve_wire)
            held = [
                asyncio.create_task(service.handle_message(solve_wire(f"h{i}")))
                for i in range(2)
            ]
            await asyncio.sleep(0)
            shed = await service.handle_message(solve_wire("bulk", lane="sweep"))
            assert shed["error"]["code"] == protocol.E_SHEDDING
            assert service.metrics.counter("repro_rejected_shed_total").value == 1
            hold.release()
            assert all(r["ok"] for r in await asyncio.gather(*held, *holders))

        run(with_service(body, capacity=4, shed_threshold=0.5))


class TestBackendResolution:
    @pytest.mark.skipif(not vectorized.HAS_NUMPY, reason="needs two backends")
    def test_default_request_keeps_its_backend_while_a_batch_is_pinned(
        self, monkeypatch
    ):
        """Requests batched while the solve thread runs another backend
        keep their own: a default request solves under the service
        default and never shares a batch with explicit requests for the
        running batch's backend."""
        default = vectorized.get_backend()
        pinned = "numpy" if default == "scalar" else "scalar"
        hold = ExecutorHold(monkeypatch, ids={"A"})

        async def body(service):
            first = asyncio.create_task(
                service.handle_message(solve_wire("A", numeric=pinned))
            )
            await hold.wait_started()
            # A's config is scoped to its batch: this thread keeps its own.
            assert vectorized.get_backend() == default
            rest = [
                asyncio.create_task(service.handle_message(solve_wire("B"))),
                asyncio.create_task(
                    service.handle_message(solve_wire("C", numeric=pinned))
                ),
            ]
            await asyncio.sleep(0)
            assert service.queue.depth == 2
            # B and C popped and batched under the pin
            await until(lambda: service.queue.depth == 0)
            assert service.queue.depth == 0
            hold.release()
            return {r["id"]: r for r in await asyncio.gather(first, *rest)}

        responses = run(with_service(body))
        assert all(r["ok"] for r in responses.values())
        backends = {key: r["provenance"]["backend"] for key, r in responses.items()}
        assert backends == {"A": pinned, "B": default, "C": pinned}
        assert responses["B"]["provenance"]["batch_size"] == 1
        assert responses["C"]["provenance"]["batch_size"] == 1


class TestTcpTransport:
    def test_pipelined_out_of_order_responses(self):
        async def scenario():
            service = SolveService()
            server = await service.serve_tcp("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                async with ServiceClient(host, port) as client:
                    responses = await asyncio.gather(
                        client.request(solve_wire("a1")),
                        client.ping(),
                        client.request(solve_wire("a2")),
                    )
                assert [r["id"] for r in responses] == ["a1", "c1", "a2"]
                assert all(r["ok"] for r in responses)
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()

        run(scenario())

    def test_garbage_line_answered_not_fatal(self):
        async def scenario():
            service = SolveService()
            server = await service.serve_tcp("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"{not json\n")
                await writer.drain()
                error = json.loads(await reader.readline())
                assert error["ok"] is False
                assert error["error"]["code"] == protocol.E_BAD_REQUEST
                # The connection survives: a well-formed ping still works.
                writer.write(protocol.encode_line({"kind": "ping", "id": "p"}))
                await writer.drain()
                pong = json.loads(await reader.readline())
                assert pong["ok"] is True
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()

        run(scenario())

    def test_http_metrics_scrape(self):
        async def scenario():
            service = SolveService()
            server = await service.serve_tcp("127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()
            head, _, body = raw.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert b"text/plain" in head
            assert b"repro_requests_total" in body

        run(scenario())


class TestStdioTransport:
    def test_stdio_round_trip(self):
        lines = [
            json.dumps({"kind": "ping", "id": "p"}),
            json.dumps(solve_wire("s1")),
        ]
        instream = io.StringIO("\n".join(lines) + "\n")
        outstream = io.StringIO()

        async def scenario():
            service = SolveService()
            await service.serve_stdio(instream, outstream)

        run(scenario())
        responses = {
            r["id"]: r
            for r in (json.loads(line) for line in outstream.getvalue().splitlines())
        }
        assert responses["p"]["result"]["pong"] is True
        assert responses["s1"]["ok"] is True


class TestAcceptanceDemo:
    """The ISSUE acceptance gate, over the real TCP path."""

    def test_200_concurrent_requests_all_byte_identical(self, tmp_path):
        report = run(
            run_demo(None, n=200, clients=8, cache_dir=str(tmp_path / "cache"))
        )
        assert report.succeeded == report.total == 200
        assert report.mismatched == []
        assert report.failed == []
        assert len(set(report.schemes_seen)) >= 3
        assert report.batch_size_max > 1.0
        assert report.cache_hits > 0.0
        assert report.queue_depth_peak <= report.queue_capacity
        assert report.ok
        assert "repro_batch_size" in report.metrics_text

    def test_demo_requests_are_deterministic(self):
        assert demo_wire_requests(20, seed=7) == demo_wire_requests(20, seed=7)
        schemes = {w["scheme"] for w in demo_wire_requests(20)}
        assert len(schemes) >= 3


class TestCachePersistence:
    def test_second_service_reuses_on_disk_results(self, tmp_path):
        cache_root = str(tmp_path / "cache")

        async def one_round(service):
            response = await service.handle_message(solve_wire("r"))
            assert response["ok"]
            return response

        first = run(
            with_service(one_round, cache=ResultCache(cache_root))
        )
        second = run(
            with_service(one_round, cache=ResultCache(cache_root))
        )
        assert first["provenance"]["cache"] == "miss"
        assert second["provenance"]["cache"] == "hit"
        assert protocol.canonical_result_bytes(
            first["result"]
        ) == protocol.canonical_result_bytes(second["result"])
