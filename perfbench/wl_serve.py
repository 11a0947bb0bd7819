"""``serve``: ``repro serve --shards 2`` driven open loop over TCP.

The server runs as its own process.  This process sends single-job solve
requests at Poisson due times (``replay.arrivals.poisson_jobs``, each job
re-anchored at release 0, scheme ``auto``, interactive lane) over two
connections and never waits for a reply before the next send.  Platforms
rotate over 8 alpha_m points so the hash ring spreads load over both
shards.  Every fourth request is a sweep-lane exact repeat of an earlier
request of the same rate point, so the result cache is read as well as
written.  Requests do not retry.

Each request is timed from its *due* time, so a stall in the sender or
server is charged to every request it delays.  A rate point is invalid
when the sender itself ran late (tail of send - due above
``LATE_LIMIT_MS``); the sender shares the host's two CPUs with the server.

End-to-end, per run:
  setup_s          server spawn until it answers ping (median of 5 spawns)
  p50/tail light   latency at LIGHT_RPS (tail = p95)
  p50/tail heavy   latency at HEAVY_RPS (tail = p95)
  ops_per_s        capacity: the same request mix sent closed loop,
                   completed requests per second
  peak_rss_mb      server plus shard workers
A fixed sample of served results is re-solved in this process after the
timed phase; a result whose canonical bytes differ counts as failed.

The traced run adds the per-request layer split and
``service.max_rate_rps``: the highest ladder rate whose p99 stays within
SLO_MS with no failure and no growing backlog.  On a shared 2-CPU host
that rate moves by a fifth from run to run, too much for an end-to-end
bound, so capacity stands in for it there.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import measure

SHARDS = 2
CONNECTIONS = 2
#: Fixed rates, roughly a fifth and a half of service.max_rate_rps, which
#: reads 1300-1900 req/s for 2 shards on a 2-CPU host.
LIGHT_RPS = 300.0
HEAVY_RPS = 700.0
#: A point's latency figures are medians over consecutive segments of its
#: request stream, so one stall moves one segment, not the result.
#: ``(segments, requests per segment, tail quantile)``: the fixed points
#: report p95, the highest percentile that stays steady from run to run;
#: ladder probes test p99 (>= 10 samples beyond it per segment).
POINT_SHAPE = {LIGHT_RPS: (5, 600, 0.95), HEAVY_RPS: (7, 1000, 0.95)}
PROBE_SHAPE = (3, 1000, 0.99)
#: The repository's replay latency limit (``repro replay --slo-p99``).
SLO_MS = 50.0
#: Capacity (ops_per_s): the same request mix kept ``IN_FLIGHT`` deep on
#: each connection; requests per second over consecutive segments of
#: completions, median.  Well below the admission queue's shed threshold.
IN_FLIGHT = 32
SATURATION_SEGMENTS, SATURATION_SEGMENT_REQUESTS = 5, 2000
#: Ladder for service.max_rate_rps (traced run): a coarse geometric climb,
#: then a fine one from the last coarse rung that passed.
LADDER_LOW, LADDER_HIGH = HEAVY_RPS, 4000.0
LADDER_COARSE, LADDER_FINE = 0.2, 0.05
#: A point whose sender ran later than this at its p99 is invalid.
LATE_LIMIT_MS = 10.0
REQUEST_TIMEOUT_MS = 10_000.0
REPEAT_EVERY = 4
#: Repeats copy a request about this many places back (already answered).
REPEAT_LAG = 64
PLATFORMS = [{"alpha_m": 1200.0 + 200.0 * k} for k in range(8)]
#: Served results re-solved in this process per fixed-rate point.
CHECK_SAMPLE = 40
WARM_RPS, WARM_REQUESTS = 400.0, 800

LAYERS = (
    "service.queue_ms.p50.light",
    "service.queue_ms.p99.light",
    "service.queue_ms.p50.heavy",
    "service.queue_ms.p99.heavy",
    "service.solve_ms.p50.light",
    "service.solve_ms.p50.heavy",
    "service.residual_ms.p50.light",
    "service.residual_ms.p99.light",
    "service.residual_ms.p50.heavy",
    "service.residual_ms.p99.heavy",
    "protocol.encode_us",
    "protocol.decode_us",
    "batcher.batch_size_mean",
    "shard.imbalance",
    "cache.hit_ratio",
    "gen.late_ms.p99",
    "service.max_rate_rps",
    "trace.wall_s",
    "trace.overhead_frac",
    "residual_s",
)


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, ctx, cache_dir: str):
        self.started = time.perf_counter()
        self.log = open(os.path.join(ctx.work, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shards", str(SHARDS),
             "--port", "0", "--cache-dir", cache_dir],
            env=ctx.env, stdout=subprocess.PIPE, stderr=self.log, cwd=ctx.work,
        )
        try:
            self.port = self._read_port()
            self.ready_s = self._ping() - self.started
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout_s: float = 120.0) -> int:
        deadline = time.monotonic() + timeout_s
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if b"listening on" in line:
                    return int(line.strip().rsplit(b":", 1)[1])
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        raise RuntimeError(f"repro serve did not start (last line {line!r})")

    def _ping(self) -> float:
        from repro.service.client import ServiceClient

        async def ping() -> None:
            async with ServiceClient("127.0.0.1", self.port) as client:
                response = await client.ping()
            if not response.get("ok"):
                raise RuntimeError(f"ping failed: {response}")

        asyncio.run(ping())
        return time.perf_counter()

    def peak_rss_mb(self) -> float:
        rss = measure.PeakRss(self.proc.pid)
        rss.sample()
        return rss.mb

    def stop(self) -> None:
        """Drain the server with SIGTERM and wait for it and its workers."""
        workers = [pid for pid in measure.process_tree(self.proc.pid) if pid != self.proc.pid]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=60)
        measure.reap(workers)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def start_server(ctx) -> Tuple[Server, List[float]]:
    """Spawn ``ctx.setup_reps`` servers, keep the last; set-up walls."""
    cache_dir = os.path.join(ctx.work, "serve-cache")
    walls = []
    server = None
    for rep in range(ctx.setup_reps):
        server = Server(ctx, cache_dir)
        walls.append(server.ready_s)
        if rep < ctx.setup_reps - 1:
            server.stop()
    return server, walls


# ---------------------------------------------------------------------------
# Open-loop load
# ---------------------------------------------------------------------------


@dataclass
class Record:
    wire: Dict[str, object]
    due: float
    repeat: bool
    sent: float = 0.0
    done: float = 0.0
    response: Optional[Dict[str, object]] = None


@dataclass
class Point:
    rate: float
    records: List[Record]
    batch_sizes: Tuple[float, float] = (0.0, 0.0)
    shape: Tuple[int, int, float] = PROBE_SHAPE
    mismatches: int = 0
    checked: int = 0

    @property
    def ok(self) -> List[Record]:
        return [r for r in self.records if r.response is not None and r.response.get("ok")]

    @property
    def failed(self) -> int:
        return len(self.records) - len(self.ok) + self.mismatches

    def latencies_ms(self) -> List[float]:
        return [(r.done - r.due) * 1000.0 for r in self.ok]

    def late_ms(self) -> List[float]:
        return [(r.sent - r.due) * 1000.0 for r in self.records]

    def summary(self) -> Dict[str, object]:
        segments, _, q = self.shape
        by_due = self.latencies_ms()
        if len(by_due) < segments:
            by_due = [math.inf] * segments
        p50_ms, tail_ms = measure.segmented(by_due, segments, q)
        late_p99 = measure.nearest_rank(self.late_ms(), 0.99)
        return {
            "rate": self.rate,
            "requests": len(self.records),
            "failed": self.failed,
            "p50_ms": p50_ms,
            "tail_q": q,
            "tail_ms": tail_ms,
            "late_p99_ms": late_p99,
            "valid": late_p99 <= LATE_LIMIT_MS,
            "backlog_growing": measure.backlog_growing(by_due, SLO_MS),
        }


def build_requests(tag: str, rate: float, n: int, seed: int) -> List[Tuple[float, Dict[str, object], bool]]:
    """``(offset_s, wire, repeat)`` for one rate point, in due order."""
    from repro.replay.arrivals import poisson_jobs

    jobs = list(poisson_jobs(n=n, rate_jobs_s=rate, seed=seed))
    origin = jobs[0].arrival_ms
    out: List[Tuple[float, Dict[str, object], bool]] = []
    for index, job in enumerate(jobs):
        offset = (job.arrival_ms - origin) / 1000.0
        if index % REPEAT_EVERY == REPEAT_EVERY - 1 and index > REPEAT_LAG:
            # The source sits one slot off the repeat positions, so it is
            # always a fresh request.
            wire = dict(out[index - REPEAT_LAG - 1][1], lane="sweep")
            out.append((offset, wire, True))
            continue
        wire = {
            "kind": "solve",
            "scheme": "auto",
            "lane": "interactive",
            "platform": PLATFORMS[index % len(PLATFORMS)],
            "tasks": [{
                "name": f"{tag}-{index}",
                "release": 0.0,
                "deadline": job.span_ms,
                "workload": job.workload_kc,
            }],
        }
        out.append((offset, wire, False))
    return out


async def _batch_totals(client) -> Tuple[float, float]:
    response = await client.metrics()
    sample = response["result"]["snapshot"].get("repro_batch_size", {})
    return float(sample.get("sum", 0.0)), float(sample.get("count", 0.0))


async def exchange(client, record: Record) -> None:
    """One request: stamp its send and completion, keep its response."""
    from repro.service.client import RequestTimedOut

    loop = asyncio.get_running_loop()
    record.sent = loop.time()
    try:
        record.response = await client.request(record.wire, timeout_ms=REQUEST_TIMEOUT_MS)
    except (RequestTimedOut, ConnectionError):
        pass  # no response: counted as failed
    record.done = loop.time()


async def drive(port: int, rate: float, planned, lead_s: float = 0.05) -> Point:
    """Send ``planned`` open loop and collect every response."""
    from repro.service.client import ServiceClient

    clients = [ServiceClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
    await asyncio.gather(*(c.connect() for c in clients))
    loop = asyncio.get_running_loop()
    records = [Record(wire, 0.0, repeat) for _, wire, repeat in planned]
    try:
        before = await _batch_totals(clients[0])

        epoch = loop.time() + lead_s
        tasks = []
        for index, ((offset, _, _), record) in enumerate(zip(planned, records)):
            record.due = epoch + offset
            delay = record.due - loop.time()
            if delay > 0.0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(exchange(clients[index % CONNECTIONS], record)))
        await asyncio.gather(*tasks)
        after = await _batch_totals(clients[0])
    finally:
        await asyncio.gather(*(c.close() for c in clients))
    return Point(rate, records, batch_sizes=(after[0] - before[0], after[1] - before[1]))


def run_point(port: int, tag: str, rate: float, shape, seed: int) -> Point:
    planned = build_requests(tag, rate, shape[0] * shape[1], seed)
    # A collection pause in this process would delay sends and reads and
    # be charged to the server; collect between points instead.
    gc.collect()
    gc.disable()
    try:
        point = asyncio.run(drive(port, rate, planned))
        point.shape = shape
        return point
    finally:
        gc.enable()


def check_sample(point: Point) -> None:
    """Re-solve a fixed sample of served results in this process."""
    from repro.service import protocol

    fresh = [r for r in point.ok if not r.repeat]
    step = max(1, len(fresh) // CHECK_SAMPLE)
    for record in fresh[::step][:CHECK_SAMPLE]:
        wire = dict(record.wire, id="check")
        expected = protocol.execute_request(protocol.request_from_wire(wire))
        point.checked += 1
        if protocol.canonical_result_bytes(expected) != protocol.canonical_result_bytes(
            record.response["result"]
        ):
            point.mismatches += 1


def point_seed(seed: int, slot: int) -> int:
    return seed * 101 + slot


def _fixed_points(ctx, port: int, tag: str) -> Dict[float, Point]:
    run_point(port, f"{tag}w", WARM_RPS, (1, WARM_REQUESTS, 0.99), point_seed(ctx.seed, 0))
    points = {}
    for slot, rate in enumerate((LIGHT_RPS, HEAVY_RPS), start=1):
        points[rate] = run_point(
            port, f"{tag}{slot}", rate, POINT_SHAPE[rate], point_seed(ctx.seed, slot)
        )
    return points


def run_e2e(ctx) -> Dict[str, object]:
    server, setup = start_server(ctx)
    try:
        points = _fixed_points(ctx, server.port, "e")
        saturated = saturate(server.port, f"s{ctx.seed}", point_seed(ctx.seed, 3))
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    attempted, failed = len(saturated.records), saturated.failed
    for point in points.values():
        check_sample(point)
        attempted += len(point.records) + point.checked
        failed += point.failed
        ctx.note("point " + _fmt(point.summary()))
    rates = measure.segment_rates([r.done for r in saturated.ok], SATURATION_SEGMENTS)
    ctx.note(f"saturation: {len(saturated.records)} requests, {CONNECTIONS}x{IN_FLIGHT} in "
             f"flight, failed={saturated.failed}, segment req/s {[round(r, 1) for r in rates]}")
    light, heavy = points[LIGHT_RPS].summary(), points[HEAVY_RPS].summary()
    for name, summary in (("light", light), ("heavy", heavy)):
        if not summary["valid"]:
            ctx.note(f"{name} point invalid: sender ran {summary['late_p99_ms']:.1f} ms late")
    return {
        "correct": not any(point.mismatches for point in points.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": measure.median(setup),
            "ops_per_s": measure.median(rates),
            "p50_ms.light": light["p50_ms"],
            "tail_ms.light": light["tail_ms"],
            "p50_ms.heavy": heavy["p50_ms"],
            "tail_ms.heavy": heavy["tail_ms"],
            "peak_rss_mb": rss_mb,
        },
    }


async def _closed_loop(port: int, planned) -> Point:
    """Keep ``IN_FLIGHT`` requests outstanding per connection until done."""
    from repro.service.client import ServiceClient

    clients = [ServiceClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
    await asyncio.gather(*(c.connect() for c in clients))
    loop = asyncio.get_running_loop()
    records = [Record(wire, 0.0, repeat) for _, wire, repeat in planned]
    queue = iter(records)

    async def worker(client) -> None:
        for record in queue:
            record.due = loop.time()
            await exchange(client, record)

    try:
        await asyncio.gather(
            *(worker(c) for c in clients for _ in range(IN_FLIGHT))
        )
    finally:
        await asyncio.gather(*(c.close() for c in clients))
    return Point(0.0, records)


def saturate(port: int, tag: str, seed: int) -> Point:
    """Closed-loop capacity run: the same request mix, sent as fast as answered."""
    planned = build_requests(
        tag, HEAVY_RPS, SATURATION_SEGMENTS * SATURATION_SEGMENT_REQUESTS, seed
    )
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_closed_loop(port, planned))
    finally:
        gc.enable()


def max_sustained_rate(ctx, port: int) -> float:
    """Highest ladder rate meeting the latency limit (0 when none does)."""
    probes = climb(ctx, port, measure.ladder(LADDER_LOW, LADDER_HIGH, LADDER_COARSE), 10)
    passed = measure.select_max_rate(probes, SLO_MS)
    if passed is None:
        ctx.note(f"no ladder rate from {LADDER_LOW:g} req/s met the limit")
        return 0.0
    fine = measure.ladder(passed, passed * (1.0 + LADDER_COARSE), LADDER_FINE)[1:]
    probes += climb(ctx, port, fine, 50)
    return measure.select_max_rate(probes, SLO_MS)


def climb(ctx, port: int, rates: List[float], slot: int) -> List[Dict[str, object]]:
    """Probe ``rates`` in order until one fails; the probes' summaries."""
    probes = []
    for slot, rate in enumerate(rates, start=slot):
        summary = run_point(port, f"l{slot}", rate, PROBE_SHAPE, point_seed(ctx.seed, slot)).summary()
        probes.append(summary)
        ctx.note("ladder " + _fmt(summary))
        if not measure.point_passes(summary, SLO_MS):
            break
    return probes


def _fmt(summary: Dict[str, object]) -> str:
    return (
        f"{summary['rate']:g} req/s n={summary['requests']} failed={summary['failed']} "
        f"p50={summary['p50_ms']:.2f}ms p{100 * summary['tail_q']:.1f}={summary['tail_ms']:.2f}ms "
        f"late_p99={summary['late_p99_ms']:.2f}ms valid={summary['valid']} "
        f"growing={summary['backlog_growing']}"
    )


def _layers(point: Point) -> Dict[str, float]:
    queue, solve, residual = [], [], []
    for record in point.ok:
        timing = record.response.get("timing") or {}
        q, s = float(timing.get("queue_ms", 0.0)), float(timing.get("solve_ms", 0.0))
        queue.append(q)
        solve.append(s)
        residual.append((record.done - record.sent) * 1000.0 - q - s)
    return {
        "queue_p50": measure.median(queue),
        "queue_p99": measure.nearest_rank(queue, 0.99),
        "solve_p50": measure.median(solve),
        "residual_p50": measure.median(residual),
        "residual_p99": measure.nearest_rank(residual, 0.99),
    }


def run_traced(ctx) -> Dict[str, object]:
    from layers import Tracer
    from repro.service import protocol

    server, _ = start_server(ctx)
    try:
        plain = _fixed_points(ctx, server.port, "u")
        tracer = Tracer()
        tracer.wrap(protocol, "encode_line", "protocol.encode")
        tracer.wrap(protocol, "decode_line", "protocol.decode")
        try:
            traced = _fixed_points(ctx, server.port, "t")
        finally:
            tracer.restore()
        max_rate = max_sustained_rate(ctx, server.port)
    finally:
        server.stop()
    attempted = failed = 0
    for point in list(plain.values()) + list(traced.values()):
        check_sample(point)
        attempted += len(point.records) + point.checked
        failed += point.failed
    metrics: Dict[str, float] = {}
    shard_counts: Dict[int, int] = {}
    hits = served = 0
    late = []
    batch_sum = batch_count = 0.0
    for name, rate in (("light", LIGHT_RPS), ("heavy", HEAVY_RPS)):
        point = traced[rate]
        layer = _layers(point)
        metrics[f"service.queue_ms.p50.{name}"] = layer["queue_p50"]
        metrics[f"service.queue_ms.p99.{name}"] = layer["queue_p99"]
        metrics[f"service.solve_ms.p50.{name}"] = layer["solve_p50"]
        metrics[f"service.residual_ms.p50.{name}"] = layer["residual_p50"]
        metrics[f"service.residual_ms.p99.{name}"] = layer["residual_p99"]
        for record in point.ok:
            provenance = record.response.get("provenance") or {}
            shard = provenance.get("shard")
            if shard is not None:
                shard_counts[int(shard)] = shard_counts.get(int(shard), 0) + 1
            hits += provenance.get("cache") == "hit"
            served += 1
        late.extend(point.late_ms())
        batch_sum += point.batch_sizes[0]
        batch_count += point.batch_sizes[1]
        ctx.note(f"traced {name} " + _fmt(point.summary()) + f" layers {layer}")
    # The serve layers of a request add up to its round trip: the traced
    # wall is the summed round trips, the layers the summed server-side
    # queue and solve times plus client-side encode and decode.
    wall_s = sum(r.done - r.sent for p in traced.values() for r in p.ok)
    layer_s = {
        "queue": sum(r.response["timing"].get("queue_ms", 0.0) for p in traced.values() for r in p.ok) / 1e3,
        "solve": sum(r.response["timing"].get("solve_ms", 0.0) for p in traced.values() for r in p.ok) / 1e3,
        "encode": tracer.seconds["protocol.encode"],
        "decode": tracer.seconds["protocol.decode"],
    }
    counts = list(shard_counts.values()) + [0] * (SHARDS - len(shard_counts))
    metrics.update(
        {
            "protocol.encode_us": 1e6 * tracer.seconds["protocol.encode"] / tracer.calls["protocol.encode"],
            "protocol.decode_us": 1e6 * tracer.seconds["protocol.decode"] / tracer.calls["protocol.decode"],
            "batcher.batch_size_mean": batch_sum / batch_count if batch_count else 0.0,
            "shard.imbalance": max(counts) / (sum(counts) / SHARDS) if sum(counts) else 0.0,
            "cache.hit_ratio": hits / served if served else 0.0,
            "gen.late_ms.p99": measure.nearest_rank(late, 0.99),
            "service.max_rate_rps": max_rate,
            "trace.wall_s": wall_s,
            "trace.overhead_frac": (
                traced[HEAVY_RPS].summary()["p50_ms"] / plain[HEAVY_RPS].summary()["p50_ms"] - 1.0
            ),
            "residual_s": measure.layer_residual(wall_s, layer_s),
        }
    )
    ctx.note(f"requests per shard {shard_counts}")
    correct = not any(p.mismatches for p in list(plain.values()) + list(traced.values()))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
