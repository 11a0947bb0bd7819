"""The asyncio solve server: admission -> micro-batching -> responses.

:class:`SolveService` is transport-independent: it owns the admission
queue, the executors and the metrics registry, and exposes
:meth:`SolveService.handle_message` (one decoded request object in, one
response object out).  Transports are thin:

* :meth:`SolveService.serve_tcp` -- JSON-lines over TCP; each connection
  may pipeline any number of requests, responses are correlated by ``id``
  (they may come back out of order).  A connection whose first bytes look
  like ``GET /metrics`` instead receives a minimal HTTP response with the
  Prometheus-style text page, so the same port serves scrapers.
* :meth:`SolveService.serve_stdio` -- the same framing over
  stdin/stdout for subprocess embedding.

Lifecycle: requests admitted by the queue are *guaranteed* a terminal
response.  On SIGTERM (see :func:`run_server`) the service stops
admitting (new solves get ``DRAINING``), finishes every queued and
in-flight request, flushes the responses, closes connections and returns
-- the clean-drain contract the CI smoke job asserts.

Each executor has one dispatch loop, the same code for both tiers: it
pops its shard of the queue whenever the executor has room (at most
:data:`POPS_IN_FLIGHT` pops outstanding) and hands each pop's batches to
its executor as one submission.  An idle shard adds no wait; arrivals at
a busy one pile up and leave together.  ``timing.queue_ms`` is admission
to hand-off.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import time
from typing import Dict, List, Optional, Set

from repro.core.solve_config import current
from repro.experiments.cache import ResultCache
from repro.service import protocol
from repro.service.batcher import (
    Executor,
    InlineExecutor,
    finalize_outcomes,
    form_batches,
)
from repro.service.metrics import MetricsRegistry, labelled_name, service_metrics
from repro.service.queue import AdmissionQueue, QueueEntry
from repro.service.shard import ShardPool

__all__ = ["POPS_IN_FLIGHT", "SolveService", "run_server"]

#: Pops a dispatch loop keeps outstanding on its executor: one runs while
#: the next waits, so the executor never idles on a round trip.
POPS_IN_FLIGHT = 2


class SolveService:
    """Queue + executors + metrics behind one ``handle_message`` door.

    Every tier is a list of executors
    (:class:`~repro.service.batcher.Executor`), each fed by its own shard
    of the admission queue and its own dispatch loop:

    * ``shards=0`` (default) -- the inline tier: one in-process solve
      thread (:class:`~repro.service.batcher.InlineExecutor`) behind a
      one-shard queue with no router;
    * ``shards=N`` -- the sharded tier: a consistent-hash ring routes each
      request's platform fingerprint to one of N long-lived worker
      processes (:class:`~repro.service.shard.ShardWorker`), all sharing
      the on-disk result cache.

    Responses are byte-identical across tiers and shard counts; only the
    sharded tier stamps ``shard`` into provenance and error envelopes.
    """

    def __init__(
        self,
        *,
        capacity: int = 256,
        shed_threshold: float = 0.8,
        max_batch: int = 32,
        shards: int = 0,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        self.metrics = service_metrics(metrics)
        #: The config in force at construction; its backend serves every
        #: request that names none.
        self.config = current()
        self.executors: List[Executor]
        router = None
        if shards > 0:
            pool = ShardPool(shards, cache=cache, metrics=self.metrics)
            self.executors = list(pool.workers)
            router = pool.route
        else:
            self.executors = [InlineExecutor(cache)]
        self.queue = AdmissionQueue(
            capacity,
            shards=len(self.executors),
            router=router,
            shed_threshold=shed_threshold,
        )
        self.queue.on_enqueue = self._on_enqueue
        self._shard_depth_gauges = [
            self.metrics.gauge(labelled_name("repro_shard_queue_depth", shard=index))
            for index in range(shards)
        ]
        self.max_batch = max_batch
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        self._wakes: List[asyncio.Event] = []
        self._loops: List[asyncio.Task] = []
        self._inflight: Set[asyncio.Task] = set()
        self._connections: Set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start one dispatch loop per executor (idempotent)."""
        if self._loops:
            return
        self._wakes = [asyncio.Event() for _ in self.executors]
        self._loops = [
            asyncio.create_task(self._dispatch_loop(index))
            for index in range(len(self.executors))
        ]

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self) -> None:
        """Stop admitting, finish queued + in-flight work, stop the executors.

        Every loop exits only at depth zero and ``_inflight`` is awaited,
        so each admitted request gets its terminal response; executor memo
        stats are then flushed into per-shard gauges, and only then are the
        executors shut down.  Idempotent: a drain already under way (say,
        one a ``drain`` request started before SIGTERM arrives) is awaited,
        never run twice.
        """
        await self._start_drain()

    def _start_drain(self) -> "asyncio.Task":
        """The one drain task, started on first use."""
        if self._drain_task is None:
            self._draining = True
            self._drain_task = asyncio.ensure_future(self._drain())
        return self._drain_task

    async def _drain(self) -> None:
        for wake in self._wakes:
            wake.set()
        await asyncio.gather(*self._loops)
        self._loops = []
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        for index, executor in enumerate(self.executors):
            try:
                stats = executor.memo_stats()
            except Exception:
                # A worker that died mid-drain has no stats to flush; the
                # loss stays observable via the error counter.
                self.metrics.counter("repro_errors_total").inc()
                stats = {}
            for key, value in sorted(stats.items()):
                self.metrics.gauge(
                    labelled_name(f"repro_shard_{key}", shard=index)
                ).set(value)
            executor.shutdown()

    def _on_enqueue(self, shard: int) -> None:
        if shard < len(self._wakes):
            self._wakes[shard].set()

    def _update_queue_gauges(self) -> None:
        self.metrics.gauge("repro_queue_depth").set(self.queue.depth)
        self.metrics.gauge("repro_degraded").set(1.0 if self.queue.degraded else 0.0)
        for index, gauge in enumerate(self._shard_depth_gauges):
            gauge.set(self.queue.shard_depth(index))

    # -- request handling ----------------------------------------------------

    async def handle_message(self, wire: Dict[str, object]) -> Optional[Dict[str, object]]:
        """One decoded request object -> one response object."""
        request_id = wire.get("id") if isinstance(wire, dict) else None
        kind = wire.get("kind", "solve") if isinstance(wire, dict) else None
        if kind == "ping":
            return protocol.ping_response(request_id)
        if kind == "metrics":
            return protocol.ok_response(
                request_id,
                {
                    "text": self.metrics.render_text(),
                    "snapshot": self.metrics.snapshot(),
                },
            )
        if kind == "cancel":
            target = wire.get("target")
            hit = self.queue.cancel(str(target)) if target is not None else False
            return protocol.ok_response(request_id, {"cancelled": hit})
        if kind == "drain":
            self._start_drain()
            return protocol.ok_response(request_id, {"draining": True})
        if kind != "solve":
            return protocol.error_response(
                request_id,
                protocol.E_BAD_REQUEST,
                f"unknown request kind {kind!r}; valid: solve, ping, metrics, "
                "cancel, drain",
            )
        return await self._handle_solve(wire, request_id)

    async def _handle_solve(
        self, wire: Dict[str, object], request_id
    ) -> Dict[str, object]:
        self.metrics.counter("repro_requests_total").inc()
        try:
            request = protocol.request_from_wire(wire)
            # Resolved once, here: a config that cannot run on this host
            # (numpy requested but missing) is rejected before admission.
            request.config = request.solve_config(self.config)
        except protocol.ProtocolError as exc:
            self.metrics.counter("repro_errors_total").inc()
            return protocol.error_response(request_id, exc.code, exc.message)
        if self._draining:
            self.metrics.counter("repro_errors_total").inc()
            return protocol.error_response(
                request.id,
                protocol.E_DRAINING,
                "server is draining and no longer admits solve requests",
            )
        admit = self.queue.offer(request)
        if not admit.admitted:
            self.metrics.counter("repro_errors_total").inc()
            if admit.code == protocol.E_QUEUE_FULL:
                self.metrics.counter("repro_rejected_queue_full_total").inc()
            else:
                self.metrics.counter("repro_rejected_shed_total").inc()
            if admit.shard is not None:
                self.metrics.counter(
                    labelled_name("repro_shard_rejected_total", shard=admit.shard)
                ).inc()
            self._update_queue_gauges()
            return protocol.error_response(
                request.id,
                admit.code,
                admit.message,
                admit.retry_after_ms,
                shard=admit.shard,
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        admit.entry.context = future
        self._update_queue_gauges()
        return await future

    # -- dispatch loop -------------------------------------------------------

    def _fail_stale(
        self, expired: List[QueueEntry], cancelled: List[QueueEntry]
    ) -> None:
        """Terminal error responses for entries that never reached dispatch."""
        for entry in expired:
            self.metrics.counter("repro_deadline_expired_total").inc()
            self.metrics.counter("repro_errors_total").inc()
            self._resolve(
                entry,
                protocol.error_response(
                    entry.request.id,
                    protocol.E_DEADLINE_EXCEEDED,
                    f"request exceeded its deadline of "
                    f"{entry.request.timeout_ms:g} ms before dispatch",
                ),
            )
        for entry in cancelled:
            self.metrics.counter("repro_cancelled_total").inc()
            self.metrics.counter("repro_errors_total").inc()
            self._resolve(
                entry,
                protocol.error_response(
                    entry.request.id,
                    protocol.E_CANCELLED,
                    "request was cancelled before dispatch",
                ),
            )

    async def _dispatch_loop(self, index: int) -> None:
        """Shard ``index``'s loop: pop its queue whenever its executor has room."""
        wake = self._wakes[index]
        room = asyncio.Semaphore(POPS_IN_FLIGHT)
        while True:
            await room.acquire()
            while self.queue.shard_depth(index) == 0:
                if self._draining:
                    return
                await wake.wait()  # admission and drain both set it
                wake.clear()
            ready, expired, cancelled = self.queue.pop_batch(self.max_batch, index)
            self._update_queue_gauges()
            self._fail_stale(expired, cancelled)
            task = asyncio.create_task(self._run_pop(index, ready))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
            task.add_done_callback(lambda _: room.release())

    async def _run_pop(self, index: int, ready: List[QueueEntry]) -> None:
        """Run one pop's batches as one submission to executor ``index``.

        Both tiers record their batch metrics here and build their
        responses through :func:`finalize_outcomes`; only the executor's
        ``provenance`` stamp tells them apart on the wire.
        """
        batches = form_batches(ready, self.max_batch)
        if not batches:
            return
        executor = self.executors[index]
        metrics = self.metrics
        for batch in batches:
            metrics.counter("repro_batches_total").inc()
            metrics.histogram("repro_batch_size").observe(len(batch))
            if len(batch) > 1:
                metrics.counter("repro_batched_requests_total").inc(len(batch))
        inflight = metrics.gauge("repro_inflight")
        inflight.inc(len(ready))
        dispatched = time.monotonic()
        try:
            outcomes = await asyncio.wrap_future(
                executor.submit([[entry.request for entry in b] for b in batches])
            )
        except Exception as exc:
            # An executor that fails outright still owes every admitted
            # request its terminal response.
            failure = {
                "ok": False,
                "code": protocol.E_INTERNAL,
                "message": f"executor failure: {type(exc).__name__}: {exc}",
                **executor.provenance,
            }
            outcomes = [[failure] * len(batch) for batch in batches]
        finally:
            inflight.dec(len(ready))
        for batch, batch_outcomes in zip(batches, outcomes):
            waits_ms = [
                max(0.0, (dispatched - entry.enqueued_at) * 1000.0) for entry in batch
            ]
            responses = finalize_outcomes(
                batch,
                batch_outcomes,
                waits_ms,
                metrics,
                provenance_extra=executor.provenance,
            )
            for entry, response in responses:
                self._resolve(entry, response)

    @staticmethod
    def _resolve(entry: QueueEntry, response: Dict[str, object]) -> None:
        future = entry.context
        if isinstance(future, asyncio.Future) and not future.done():
            future.set_result(response)

    # -- transports ----------------------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Start listening; returns the asyncio server (bound port via
        ``server.sockets[0].getsockname()``)."""
        await self.start()
        return await asyncio.start_server(self._handle_connection, host, port)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                if stripped.startswith(b"GET "):
                    await self._serve_http_metrics(writer)
                    break
                task = asyncio.create_task(
                    self._respond_line(stripped, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _respond_line(
        self,
        raw: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            wire = protocol.decode_line(raw)
        except protocol.ProtocolError as exc:
            self.metrics.counter("repro_errors_total").inc()
            response = protocol.error_response(None, exc.code, exc.message)
        else:
            response = await self.handle_message(wire)
        if response is None:
            return
        async with write_lock:
            if writer.is_closing():
                return
            try:
                writer.write(protocol.encode_line(response))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_http_metrics(self, writer: asyncio.StreamWriter) -> None:
        body = self.metrics.render_text().encode("utf-8")
        head = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
            b"Connection: close\r\n\r\n"
        )
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def serve_stdio(self, instream=None, outstream=None) -> None:
        """JSON-lines over stdin/stdout until EOF, then drain."""
        instream = instream if instream is not None else sys.stdin
        outstream = outstream if outstream is not None else sys.stdout
        await self.start()
        loop = asyncio.get_running_loop()
        out_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()

        async def respond(raw: str) -> None:
            try:
                wire = protocol.decode_line(raw.encode("utf-8"))
            except protocol.ProtocolError as exc:
                response = protocol.error_response(None, exc.code, exc.message)
            else:
                response = await self.handle_message(wire)
            if response is None:
                return
            async with out_lock:
                outstream.write(protocol.encode_line(response).decode("utf-8"))
                outstream.flush()

        while True:
            line = await loop.run_in_executor(None, instream.readline)
            if not line:
                break
            if not line.strip():
                continue
            task = asyncio.create_task(respond(line))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await self.drain()

    async def close_connections(self) -> None:
        for writer in list(self._connections):
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._connections.clear()


async def run_server(
    service: SolveService,
    host: str = "127.0.0.1",
    port: int = 7070,
    *,
    install_signal_handlers: bool = True,
    announce=print,
) -> None:
    """Serve TCP until SIGTERM/SIGINT, then drain gracefully and return."""
    server = await service.serve_tcp(host, port)
    bound = server.sockets[0].getsockname()
    announce(f"repro service listening on {bound[0]}:{bound[1]}")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        announce("repro service draining...")
        server.close()
        await server.wait_closed()
        await service.drain()
        await service.close_connections()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(signum)
        announce("repro service drained cleanly")
