"""The worker-pool execution tier: shard-affine long-lived solver processes.

One shard = one :class:`ShardWorker` executor (a long-lived
:class:`~repro.experiments.parallel.WorkerProcess`) plus its shard of the
server's admission queue and its dispatch loop.  The
consistent-hash ring (:mod:`repro.service.ring`) routes every solve by its
*platform fingerprint* -- the same identity the result cache and the
micro-batcher key on -- so one platform's traffic always lands on the
same worker, whose module-level ``BlockArrays``/block-energy memos stay
persistently warm across micro-batches.  The solves themselves are
stateless; affinity exists purely for cache heat.

Cross-shard state discipline (pinned by lint rule ``CON005``): shards
run in separate *processes*, so module-level mutable state in this tier
would silently diverge per shard.  The only sanctioned shared channels
are the content-addressed on-disk
:class:`~repro.experiments.cache.ResultCache` (atomic tmp+rename writes,
safe under concurrent shard workers) and the parent-side per-shard
labelled metrics.  Worker-*local* memos are fine -- each worker owns its
process -- but must carry an explicit pragma.

Byte-identity contract: a worker executes batches through the same
:func:`~repro.service.batcher.execute_batch_requests` core the inline
executor uses, so canonical result bytes are identical for 0, 1 and N
shards, cold and warm cache (asserted by ``tests/test_service_shard.py``
and the ``service-shard-smoke`` CI job).

Worker loss: a shard whose worker process dies fails only the
submissions that worker held, with the retryable ``SHEDDING`` code and a
``retry_after_ms``, and hands its next submission to a fresh worker (counted
in ``repro_shard_respawns_total``).  Work moves to a live worker instead
of the shard failing everything routed to it from then on.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from repro.core import vectorized
from repro.experiments.cache import ResultCache, platform_fingerprint
from repro.experiments.parallel import WorkerProcess
from repro.service import protocol
from repro.service.batcher import execute_batches
from repro.service.metrics import MetricsRegistry, labelled_name
from repro.service.ring import DEFAULT_VNODES, HashRing

__all__ = [
    "ShardPool",
    "ShardWorker",
    "shard_execute",
    "shard_memo_stats",
    "shard_route_key",
]

#: Backoff suggested to the clients of a batch lost with its worker: the
#: replacement forks and warms well within it.
WORKER_LOST_RETRY_AFTER_MS = 250.0


def shard_route_key(request: protocol.SolveRequest) -> str:
    """The ring key of a request: canonical JSON of its platform fingerprint.

    Matches the identity inside :func:`repro.service.batcher.batch_key`
    and the cache's request keys, so every request that could share a
    batch or a cache entry also shares a shard.
    """
    return json.dumps(
        platform_fingerprint(request.platform), sort_keys=True, separators=(",", ":")
    )


# Worker-process-local cache-handle memo: each shard worker opens the
# shared on-disk ResultCache once and reuses the handle across batches;
# the cache it hands out *is* the sanctioned shared path.
# repro-lint: allow[CON005] worker-process-local by construction (one shard per process)
_WORKER_CACHES: Dict[str, ResultCache] = {}


def _worker_cache(root: Optional[str]) -> Optional[ResultCache]:
    if root is None:
        return None
    cache = _WORKER_CACHES.get(root)
    if cache is None:
        cache = ResultCache(root)
        _WORKER_CACHES[root] = cache
    return cache


def shard_execute(
    batches: Sequence[Sequence[protocol.SolveRequest]],
    cache_root: Optional[str],
) -> List[List[Dict[str, object]]]:
    """Worker-side entry point: execute one pop's compatible micro-batches.

    Runs inside the shard's worker process, through the exact execution
    core the inline executor uses, against the worker's handle on the
    shared on-disk cache.  Returns the plain JSON-able outcome dicts of
    :func:`execute_batches`; the parent turns them into wire responses
    and metrics.
    """
    return execute_batches(batches, _worker_cache(cache_root))


def shard_memo_stats() -> Dict[str, float]:
    """Worker-side memo telemetry, flushed into labelled gauges at drain.

    Everything here is numeric so the parent can publish each key as a
    ``repro_shard_<key>{shard="i"}`` gauge without translation.
    """
    return {
        "block_arrays_cached": float(vectorized.block_arrays_cache_size()),
        "worker_pid": float(os.getpid()),
    }


class ShardWorker:
    """Shard ``index``'s executor: one long-lived worker process.

    The worker is forked and warmed at construction, before the caller
    starts an event loop around it.  When it dies, the submissions it
    held resolve to retryable worker-lost outcomes, and the next
    :meth:`submit` replaces it.
    """

    def __init__(
        self,
        index: int,
        *,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.index = index
        self.provenance: Dict[str, object] = {"shard": index}
        self._cache_root = cache.root if cache is not None else None
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._batches = metrics.counter(
            labelled_name("repro_shard_batches_total", shard=index)
        )
        self._requests = metrics.counter(
            labelled_name("repro_shard_requests_total", shard=index)
        )
        self._respawns = metrics.counter(
            labelled_name("repro_shard_respawns_total", shard=index)
        )
        self._worker = WorkerProcess()

    def submit(
        self, batches: Sequence[Sequence[protocol.SolveRequest]]
    ) -> "Future[List[List[Dict[str, object]]]]":
        """Dispatch one pop's batches; resolves to the worker's outcome lists."""
        sizes = [len(batch) for batch in batches]
        self._batches.inc(len(sizes))
        self._requests.inc(sum(sizes))
        try:
            running = self._worker.submit(shard_execute, batches, self._cache_root)
        except BrokenProcessPool:
            # The worker died since its last submission: these batches go
            # to its replacement instead.
            self._worker.shutdown(wait=False)
            self._worker = WorkerProcess()
            self._respawns.inc()
            running = self._worker.submit(shard_execute, batches, self._cache_root)
        outcomes: Future = Future()
        running.add_done_callback(lambda done: self._settle(done, outcomes, sizes))
        return outcomes

    def _settle(self, done: Future, outcomes: Future, sizes: List[int]) -> None:
        error = done.exception()
        if isinstance(error, BrokenProcessPool):
            lost = {
                "ok": False,
                "code": protocol.E_SHEDDING,
                "message": (
                    f"shard {self.index} lost its worker process mid-batch; "
                    "a replacement takes the next batch, retry"
                ),
                "retry_after_ms": WORKER_LOST_RETRY_AFTER_MS,
                "shard": self.index,
            }
            outcomes.set_result([[lost] * size for size in sizes])
        elif error is not None:
            outcomes.set_exception(error)
        else:
            outcomes.set_result(done.result())

    def memo_stats(self) -> Dict[str, float]:
        """Blocking round-trip for the worker's memo telemetry."""
        return dict(self._worker.call(shard_memo_stats))

    def shutdown(self, wait: bool = True) -> None:
        self._worker.shutdown(wait=wait)


class ShardPool:
    """The ring plus one :class:`ShardWorker` per shard.

    ``cache`` is the shared on-disk result cache; workers re-open it by
    root path on their side of the process boundary.
    """

    def __init__(
        self,
        shards: int,
        *,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        vnodes: int = DEFAULT_VNODES,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.ring = HashRing(shards, vnodes=vnodes)
        self.workers: List[ShardWorker] = [
            ShardWorker(index, cache=cache, metrics=metrics)
            for index in range(shards)
        ]

    def route(self, request: protocol.SolveRequest) -> int:
        """The shard index owning ``request``'s platform fingerprint."""
        return self.ring.shard_for(shard_route_key(request))

    def shutdown(self, wait: bool = True) -> None:
        for worker in self.workers:
            worker.shutdown(wait=wait)
