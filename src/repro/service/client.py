"""Async client for the solve service, plus the end-to-end demo driver.

:class:`ServiceClient` speaks the JSON-lines protocol over one TCP
connection and supports *pipelining*: any number of requests may be in
flight, responses are correlated by ``id`` (the server may answer out of
order, e.g. when an interactive solve overtakes queued sweep work).

:func:`run_demo` is the subsystem's acceptance harness, shared by
``repro submit --demo``, the service tests and the CI smoke job: it fires
N concurrent solve requests across several schemes, lanes and both
numeric backends, verifies every response byte-identical against a direct
in-process solver call, and audits the service invariants (bounded queue,
micro-batching engaged, cache hit rate) from the metrics snapshot.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import vectorized
from repro.experiments.cache import ResultCache
from repro.service import protocol
from repro.service.server import SolveService
from repro.workloads.synthetic import synthetic_tasks

__all__ = [
    "RETRYABLE_CODES",
    "RequestTimedOut",
    "ServiceClient",
    "DemoReport",
    "demo_wire_requests",
    "run_demo",
]


class RequestTimedOut(TimeoutError):
    """A request exceeded its per-request wall-clock timeout.

    Raised by :meth:`ServiceClient.request` when ``timeout_ms`` elapses
    before the correlated response arrives.  The pending future is
    cleaned up, so a late response for the same id is silently dropped
    instead of leaking into ``_pending`` forever.
    """


#: Error codes that signal transient backpressure: the server is healthy
#: but declined the request, and suggested a ``retry_after_ms``.
RETRYABLE_CODES = (protocol.E_SHEDDING, protocol.E_QUEUE_FULL)


class ServiceClient:
    """One pipelined JSON-lines connection to a solve server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7070,
        *,
        retry_seed: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        #: Jitter source for retry backoff.  Unseeded by default -- the
        #: whole point is that concurrent clients desynchronize -- but a
        #: ``retry_seed`` pins the schedule for deterministic tests.
        self._retry_rng = random.Random(retry_seed)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[str, asyncio.Future] = {}
        self._seq = 0
        #: Undecodable frames dropped by the read loop.  The client keeps
        #: reading (one garbled line must not kill pipelined requests),
        #: but the drop stays observable instead of silent.
        self.dropped_frames = 0

    async def connect(self) -> "ServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._reader_task = asyncio.create_task(self._read_loop())
        return self

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        if self._reader_task is not None:
            await self._reader_task
            self._reader_task = None

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- wire plumbing -------------------------------------------------------

    def _next_id(self) -> str:
        self._seq += 1
        return f"c{self._seq}"

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = protocol.decode_line(line)
                except protocol.ProtocolError:
                    self.dropped_frames += 1
                    continue
                future = self._pending.pop(str(response.get("id")), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("server closed the connection")
                    )
            self._pending.clear()

    async def request(
        self,
        wire: Dict[str, object],
        *,
        timeout_ms: Optional[float] = None,
    ) -> Dict[str, object]:
        """Send one request object and await its correlated response.

        ``timeout_ms`` bounds the wall-clock wait for the response;
        ``None`` (the default) waits forever, preserving the historical
        behaviour.  On expiry the pending entry is removed (a late
        response is dropped by the read loop) and :class:`RequestTimedOut`
        is raised, so a hung or draining server cannot wedge a replay.
        """
        if self._writer is None:
            raise RuntimeError("client is not connected; call connect() first")
        wire = dict(wire)
        wire.setdefault("v", protocol.PROTOCOL_VERSION)
        if "id" not in wire:
            wire["id"] = self._next_id()
        request_id = str(wire["id"])
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(protocol.encode_line(wire))
        await self._writer.drain()
        if timeout_ms is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout_ms / 1000.0)
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            raise RequestTimedOut(
                f"request {request_id} timed out after {timeout_ms:g} ms"
            ) from None

    async def request_with_retry(
        self,
        wire: Dict[str, object],
        *,
        timeout_ms: Optional[float] = None,
        max_attempts: int = 3,
        backoff_cap_ms: float = 1000.0,
        jitter: float = 0.5,
        on_backpressure=None,
    ) -> Dict[str, object]:
        """Send a request, honoring shed/queue-full backpressure.

        When the server answers with a retryable error (``SHEDDING`` or
        ``QUEUE_FULL``) the client sleeps for the server-suggested
        ``retry_after_ms`` -- capped at ``backoff_cap_ms`` so an
        occupancy-scaled hint cannot stall an open-loop replay -- and
        resends, up to ``max_attempts`` total sends.  The sleep is
        multiplied by a uniform factor in ``[1 - jitter, 1 + jitter]``
        (then capped): without jitter, every client that a full shard
        rejected in the same window receives the same occupancy-scaled
        hint and retries in lockstep, re-colliding forever under
        synchronized open-loop load.  Sharded servers stamp the rejecting
        shard into the error envelope (``error["shard"]``), so terminal
        sheds remain attributable per shard.  The final response is
        returned as-is (possibly still the error) so callers can count
        them.  ``on_backpressure(code, delay_ms)`` is invoked before each
        backoff sleep, for shed-retry accounting.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        response: Dict[str, object] = {}
        for attempt in range(max_attempts):
            response = await self.request(wire, timeout_ms=timeout_ms)
            if response.get("ok"):
                return response
            error = response.get("error")
            code = error.get("code") if isinstance(error, dict) else None
            if code not in RETRYABLE_CODES or attempt == max_attempts - 1:
                return response
            suggested = error.get("retry_after_ms") if isinstance(error, dict) else None
            delay_ms = float(suggested) if suggested is not None else backoff_cap_ms
            if jitter > 0.0:
                delay_ms *= 1.0 + jitter * (2.0 * self._retry_rng.random() - 1.0)
            delay_ms = min(delay_ms, backoff_cap_ms)
            if on_backpressure is not None:
                on_backpressure(str(code), delay_ms)
            await asyncio.sleep(delay_ms / 1000.0)
        return response

    # -- convenience verbs ---------------------------------------------------

    async def solve(self, **fields) -> Dict[str, object]:
        wire = {"kind": "solve"}
        wire.update(fields)
        return await self.request(wire)

    async def ping(self) -> Dict[str, object]:
        return await self.request({"kind": "ping"})

    async def metrics(self) -> Dict[str, object]:
        return await self.request({"kind": "metrics"})

    async def cancel(self, target: str) -> Dict[str, object]:
        return await self.request({"kind": "cancel", "target": target})

    async def drain(self) -> Dict[str, object]:
        return await self.request({"kind": "drain"})


# ---------------------------------------------------------------------------
# Demo workload generation
# ---------------------------------------------------------------------------

#: Scheme rotation of the demo: three offline schemes and two online
#: policies, so batching, caching and the full dispatch matrix all engage.
DEMO_SCHEMES = ("auto", "agreeable", "sdem-on", "common-release", "mbkps")


def _demo_tasks(scheme: str, instance: int) -> List[Dict[str, float]]:
    """A small deterministic task set fitting ``scheme``'s preconditions."""
    rng = random.Random(1000 + instance)
    n = rng.randint(3, 6)
    if scheme in ("auto", "common-release", "common-release-overhead"):
        # Common release at 0, spread deadlines.
        deadline = 0.0
        out = []
        for i in range(n):
            deadline += rng.uniform(20.0, 60.0)
            out.append(
                {
                    "name": f"cr{instance}-{i}",
                    "release": 0.0,
                    "deadline": deadline,
                    "workload": rng.uniform(2000.0, 9000.0),
                }
            )
        return out
    if scheme == "agreeable":
        release, deadline, out = 0.0, 30.0, []
        for i in range(n):
            release += rng.uniform(0.0, 25.0)
            deadline = max(deadline + rng.uniform(5.0, 40.0), release + 10.0)
            out.append(
                {
                    "name": f"ag{instance}-{i}",
                    "release": release,
                    "deadline": deadline,
                    "workload": rng.uniform(2000.0, 8000.0),
                }
            )
        return out
    # Online policies replay a Section 8.1.2 synthetic sporadic trace.
    return [
        {
            "name": t.name or f"sp{instance}-{i}",
            "release": t.release,
            "deadline": t.deadline,
            "workload": t.workload,
        }
        for i, t in enumerate(
            synthetic_tasks(n=n + 4, max_interarrival=120.0, seed=instance)
        )
    ]


def demo_wire_requests(
    n: int = 200, *, unique: Optional[int] = None, seed: int = 0
) -> List[Dict[str, object]]:
    """``n`` solve requests cycling schemes, lanes, backends and instances.

    ``unique`` bounds the number of distinct instances (default ``n // 4``),
    so later repetitions hit the result cache.  Backends cycle through
    every backend usable in this process (scalar, plus numpy and jit when
    importable/compilable).
    """
    if unique is None:
        unique = max(1, n // 4)
    backends: Tuple[str, ...] = vectorized.available_backends()
    platforms = (
        None,  # paper defaults
        {"alpha_m": 2000.0, "xi_m": 25.0},
    )
    rng = random.Random(seed)
    requests: List[Dict[str, object]] = []
    for i in range(n):
        instance = i % unique
        scheme = DEMO_SCHEMES[instance % len(DEMO_SCHEMES)]
        wire: Dict[str, object] = {
            "kind": "solve",
            "id": f"demo-{i}",
            "scheme": scheme,
            "lane": "sweep" if rng.random() < 0.25 else "interactive",
            "numeric": backends[instance % len(backends)],
            "tasks": _demo_tasks(scheme, instance),
        }
        platform = platforms[instance % len(platforms)]
        if platform is not None:
            wire["platform"] = platform
        requests.append(wire)
    return requests


def expected_result(wire: Dict[str, object]) -> Dict[str, object]:
    """Direct in-process execution of a wire request (the byte-identity
    reference), under the config the request resolves to here."""
    return protocol.execute_request(protocol.request_from_wire(wire))


# ---------------------------------------------------------------------------
# The end-to-end demo
# ---------------------------------------------------------------------------


@dataclass
class DemoReport:
    """Outcome of one :func:`run_demo` run, with the audited invariants."""

    total: int
    succeeded: int
    mismatched: List[str] = field(default_factory=list)
    failed: List[Tuple[str, str]] = field(default_factory=list)
    schemes_seen: List[str] = field(default_factory=list)
    batch_size_max: float = 0.0
    cache_hits: float = 0.0
    cache_misses: float = 0.0
    queue_depth_peak: float = 0.0
    queue_capacity: int = 0
    metrics_text: str = ""
    snapshot: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The acceptance gate: every response correct and every service
        invariant (bounded queue, batching engaged, cache hit rate) held."""
        return (
            self.succeeded == self.total
            and not self.mismatched
            and not self.failed
            and len(set(self.schemes_seen)) >= 3
            and self.batch_size_max > 1.0
            and self.cache_hits > 0.0
            and self.queue_depth_peak <= self.queue_capacity
        )

    def render(self) -> str:
        lines = [
            f"requests:        {self.succeeded}/{self.total} ok "
            f"({len(self.mismatched)} mismatched, {len(self.failed)} failed)",
            f"schemes:         {', '.join(sorted(set(self.schemes_seen)))}",
            f"max batch size:  {self.batch_size_max:g}",
            f"cache:           {self.cache_hits:g} hit(s), "
            f"{self.cache_misses:g} miss(es)",
            f"queue peak:      {self.queue_depth_peak:g} "
            f"(capacity {self.queue_capacity})",
            f"verdict:         {'OK' if self.ok else 'FAILED'}",
        ]
        for request_id, envelope in self.failed[:5]:
            lines.append(f"  failed {request_id}: {envelope}")
        for request_id in self.mismatched[:5]:
            lines.append(f"  mismatched {request_id}")
        return "\n".join(lines)


async def run_demo(
    host: Optional[str] = None,
    port: Optional[int] = None,
    *,
    n: int = 200,
    clients: int = 8,
    capacity: int = 512,
    cache_dir: Optional[str] = None,
    verify: bool = True,
    seed: int = 0,
    shards: int = 0,
) -> DemoReport:
    """Fire ``n`` concurrent mixed solve requests and audit the results.

    With ``host=None`` a local :class:`SolveService` is started on an
    ephemeral port (the full TCP path, not in-process shortcuts) and
    drained afterwards; otherwise an already-running server is targeted
    and ``capacity`` is only used as the queue-bound audit threshold.
    ``shards`` selects the local server's execution tier (0 = inline
    batcher, N = sharded worker pool); responses are verified
    byte-identical against direct execution either way.
    """
    service: Optional[SolveService] = None
    server = None
    if host is None:
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        if cache is None:
            import tempfile

            cache = ResultCache(tempfile.mkdtemp(prefix="repro-service-demo-"))
        service = SolveService(capacity=capacity, cache=cache, shards=shards)
        server = await service.serve_tcp("127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
    assert port is not None

    requests = demo_wire_requests(n, seed=seed)
    report = DemoReport(total=len(requests), succeeded=0, queue_capacity=capacity)

    pool = [ServiceClient(host, port) for _ in range(max(1, clients))]
    await asyncio.gather(*(c.connect() for c in pool))
    try:
        responses = await asyncio.gather(
            *(
                pool[i % len(pool)].request(wire)
                for i, wire in enumerate(requests)
            )
        )
        for wire, response in zip(requests, responses):
            request_id = str(wire["id"])
            if not response.get("ok"):
                report.failed.append((request_id, str(response.get("error"))))
                continue
            result = response["result"]
            report.succeeded += 1
            report.schemes_seen.append(str(result.get("scheme")))
            if verify:
                expected = expected_result(wire)
                if protocol.canonical_result_bytes(
                    result
                ) != protocol.canonical_result_bytes(expected):
                    report.mismatched.append(request_id)
        metrics_response = await pool[0].metrics()
        payload = metrics_response["result"]
        report.metrics_text = payload["text"]
        report.snapshot = payload["snapshot"]
    finally:
        await asyncio.gather(*(c.close() for c in pool))
        if service is not None:
            server.close()
            await server.wait_closed()
            await service.drain()

    snapshot = report.snapshot
    report.batch_size_max = snapshot.get("repro_batch_size", {}).get("max", 0.0)
    report.cache_hits = snapshot.get("repro_cache_hits_total", {}).get("value", 0.0)
    report.cache_misses = snapshot.get("repro_cache_misses_total", {}).get(
        "value", 0.0
    )
    report.queue_depth_peak = snapshot.get("repro_queue_depth", {}).get("peak", 0.0)
    return report
