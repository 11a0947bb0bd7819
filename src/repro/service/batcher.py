"""Micro-batching: coalesce compatible solves, run them, reuse the cache.

Requests popped from one admission shard are grouped into *micro-batches*
of compatible requests -- same platform fingerprint, same numeric
backend, same solver tier -- in arrival order.  One pop's batches are one
:meth:`Executor.submit`; both service tiers then run the same
:func:`execute_batch_requests` core on each batch, which

1. prices every request against the experiment engine's on-disk
   :class:`~repro.experiments.cache.ResultCache` (keys from
   :func:`repro.experiments.cache.service_request_key`, so entries are
   shared with any other server pointed at the same directory); an entry
   that fails verification, or whose energy does not round-trip
   :func:`~repro.service.protocol.energy_from_wire`, is a miss reported
   as ``cache_corrupt``;
2. warms the vectorized numeric core for all cache-missing task sets in one
   :func:`repro.core.vectorized.prefetch_block_arrays` pass;
3. solves the misses via :func:`repro.service.protocol.execute_request`
   and writes their results back to the cache.

Oversized compatibility groups are split with the experiment engine's
:func:`repro.experiments.parallel.chunk_evenly`, the same granularity rule
the experiment engine's process pool uses.

Every request solves under one :class:`~repro.core.solve_config.SolveConfig`,
resolved once when the service admits it (its wire fields, plus the
service's default backend when it names none) and carried as
``SolveRequest.config``.  Batch keys, cache keys and the provenance
``backend`` all derive from that config, so a ``jit`` request on a host
without compiled kernels is batched, keyed and reported as the numpy
solve it is.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core import vectorized
from repro.core.solve_config import SolveConfig, using
from repro.experiments.cache import (
    ResultCache,
    platform_fingerprint,
    service_request_key,
)
from repro.experiments.parallel import chunk_evenly
from repro.service import protocol
from repro.service.metrics import MetricsRegistry, scheme_energy_counter
from repro.service.queue import QueueEntry

__all__ = [
    "Executor",
    "InlineExecutor",
    "batch_key",
    "execute_batch_requests",
    "execute_batches",
    "finalize_outcomes",
    "form_batches",
]


def batch_key(request: protocol.SolveRequest) -> str:
    """Compatibility key: requests sharing it may coalesce into one batch.

    Built from the request's admitted config, so every request of a batch
    solves under the same config.  The solver tier (and its ε) is part of
    the key so batches stay tier-homogeneous: exact requests never wait
    behind slow fptas grids.
    """
    config = request.config
    assert config is not None, "batch_key needs an admitted request"
    payload: Dict[str, object] = {
        "platform": platform_fingerprint(request.platform),
        "numeric": config.backend,
        "solver": config.tier,
    }
    if config.tier == "fptas":
        payload["epsilon"] = config.epsilon
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def form_batches(
    entries: Sequence[QueueEntry], max_batch: int
) -> List[List[QueueEntry]]:
    """Group entries into compatible micro-batches, preserving arrival order.

    Groups larger than ``max_batch`` are split into evenly sized chunks
    (two batches of 25 beat 32 + 18 for tail latency).
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    groups: Dict[str, List[QueueEntry]] = {}
    order: List[str] = []
    for entry in entries:
        key = batch_key(entry.request)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(entry)
    batches: List[List[QueueEntry]] = []
    for key in order:
        group = groups[key]
        if len(group) <= max_batch:
            batches.append(group)
        else:
            splits = -(-len(group) // max_batch)  # ceil
            batches.extend(chunk_evenly(group, splits, chunks_per_worker=1))
    return batches


def _result_shape(value: object) -> bool:
    """A cached result is a dict whose energy round-trips the wire form."""
    energy = value.get("energy") if isinstance(value, dict) else None
    try:
        return protocol.energy_to_wire(protocol.energy_from_wire(energy)) == energy
    except (KeyError, TypeError, ValueError):
        return False


def execute_batch_requests(
    requests: Sequence[protocol.SolveRequest],
    cache: Optional[ResultCache],
    config: SolveConfig,
) -> List[Dict[str, object]]:
    """Price, prefetch and solve one compatible batch under ``config``.

    The deterministic core both executors run (the in-process solve
    thread and every shard worker process), which is what makes the
    0/1/N-shard byte-identity contract hold by construction.  ``config``
    scopes the solves, the cache keys and the ``backend`` each ok outcome
    reports.

    Returns one outcome dict per request, in order: either
    ``{"ok": True, "result", "scheme", "cache", "solve_ms", "backend"}``
    (plus ``"cache_corrupt": True`` when a corrupt entry was replaced) or
    ``{"ok": False, "code", "message"}``.  Outcomes are plain JSON-able
    data so they can cross a process boundary; the caller turns them into
    wire responses and metrics on its side.
    """
    with using(config):
        return _solve_batch(requests, cache, config)


def execute_batches(
    batches: Sequence[Sequence[protocol.SolveRequest]],
    cache: Optional[ResultCache],
) -> List[List[Dict[str, object]]]:
    """One submission: each batch in turn, under its requests' admitted config."""
    return [
        execute_batch_requests(batch, cache, batch[0].config) for batch in batches
    ]


def _solve_batch(
    requests: Sequence[protocol.SolveRequest],
    cache: Optional[ResultCache],
    config: SolveConfig,
) -> List[Dict[str, object]]:
    # Resolve schemes and price the cache for the whole batch first...
    plans: List[object] = []
    misses: List[protocol.SolveRequest] = []
    for request in requests:
        try:
            scheme = protocol.resolve_scheme(request)
        except protocol.ProtocolError as exc:
            plans.append(exc)
            continue
        key = (
            service_request_key(
                request.platform,
                request.tasks_config(),
                scheme,
                config,
            )
            if cache is not None
            else None
        )
        corrupt_before = cache.corrupt if cache is not None else 0
        stored = cache.get(key, _result_shape) if key is not None else None
        corrupt = cache is not None and cache.corrupt > corrupt_before
        plans.append((scheme, key, stored, corrupt))
        if stored is None:
            misses.append(request)
    # ... then warm the vectorized core for every miss in one pass.
    vectorized.prefetch_block_arrays([r.tasks for r in misses])

    out: List[Dict[str, object]] = []
    # Identical requests inside one batch solve once: the first
    # occurrence computes (and writes the cache), the rest are served
    # from this per-batch memo as hits.
    fresh: Dict[str, Dict[str, object]] = {}
    for request, plan in zip(requests, plans):
        if isinstance(plan, protocol.ProtocolError):
            out.append({"ok": False, "code": plan.code, "message": plan.message})
            continue
        scheme, key, stored, corrupt = plan
        if stored is None and key is not None:
            stored = fresh.get(key)
        start = time.perf_counter()
        try:
            if stored is not None:
                result, cache_state = stored, "hit"
            else:
                result = protocol.execute_request(request)
                cache_state = "miss" if key is not None else "off"
                if key is not None:
                    cache.put(key, result)
                    fresh[key] = result
        except protocol.ProtocolError as exc:
            out.append({"ok": False, "code": exc.code, "message": exc.message})
            continue
        except Exception as exc:  # one bad solve must not kill the batch
            out.append(
                {
                    "ok": False,
                    "code": protocol.E_INTERNAL,
                    "message": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        solve_ms = (time.perf_counter() - start) * 1000.0
        outcome = {
            "ok": True,
            "result": result,
            "scheme": scheme,
            "cache": cache_state,
            "solve_ms": solve_ms,
            "backend": config.backend,
        }
        if corrupt:
            outcome["cache_corrupt"] = True
        out.append(outcome)
    return out


def finalize_outcomes(
    entries: Sequence[QueueEntry],
    outcomes: Sequence[Dict[str, object]],
    waits_ms: Sequence[float],
    metrics: MetricsRegistry,
    *,
    provenance_extra: Optional[Dict[str, object]] = None,
) -> List[Tuple[QueueEntry, Dict[str, object]]]:
    """Turn outcome dicts into wire responses, recording per-request metrics.

    The one place both tiers build response envelopes and the metrics they
    feed.  ``provenance_extra`` is merged into each ok response's
    provenance (the shard tier stamps its shard index there).  An error
    outcome may carry ``retry_after_ms`` and ``shard`` for its envelope.
    """
    out: List[Tuple[QueueEntry, Dict[str, object]]] = []
    for entry, outcome, wait_ms in zip(entries, outcomes, waits_ms):
        request = entry.request
        metrics.histogram("repro_queue_wait_ms").observe(wait_ms)
        if not outcome["ok"]:
            metrics.counter("repro_errors_total").inc()
            out.append(
                (
                    entry,
                    protocol.error_response(
                        request.id,
                        str(outcome["code"]),
                        str(outcome["message"]),
                        outcome.get("retry_after_ms"),
                        shard=outcome.get("shard"),
                    ),
                )
            )
            continue
        cache_state = str(outcome["cache"])
        if outcome.get("cache_corrupt"):
            metrics.counter("repro_cache_corrupt_total").inc()
        if cache_state == "hit":
            metrics.counter("repro_cache_hits_total").inc()
        elif cache_state == "miss":
            metrics.counter("repro_cache_misses_total").inc()
        solve_ms = float(outcome["solve_ms"])
        metrics.histogram("repro_solve_latency_ms").observe(solve_ms)
        metrics.counter("repro_responses_total").inc()
        result = outcome["result"]
        scheme_energy_counter(metrics, str(outcome["scheme"])).inc(
            result["energy"]["total"]
        )
        provenance: Dict[str, object] = {
            "backend": outcome["backend"],
            "cache": cache_state,
            "batch_size": len(entries),
        }
        if provenance_extra:
            provenance.update(provenance_extra)
        out.append(
            (
                entry,
                protocol.ok_response(
                    request.id,
                    result,
                    timing={"queue_ms": wait_ms, "solve_ms": solve_ms},
                    provenance=provenance,
                ),
            )
        )
    return out




# ---------------------------------------------------------------------------
# Executors: what a dispatch loop hands its batches to
# ---------------------------------------------------------------------------


class Executor(Protocol):
    """One dispatch loop's batch runner; both service tiers implement it.

    ``submit`` takes one pop's batches and resolves to one outcome list
    per batch (see :func:`execute_batches`); ``provenance`` is merged into every
    ok response's provenance; ``memo_stats`` is flushed into
    ``repro_shard_<key>{shard=...}`` gauges at drain.
    """

    provenance: Dict[str, object]

    def submit(
        self, batches: Sequence[Sequence[protocol.SolveRequest]]
    ) -> "Future[List[List[Dict[str, object]]]]": ...

    def memo_stats(self) -> Dict[str, float]: ...

    def shutdown(self, wait: bool = True) -> None: ...


class InlineExecutor:
    """The in-process executor behind ``--shards 0``: one solve thread.

    Solver work is GIL-bound, so a second thread would buy nothing.
    ``cache=None`` disables result caching (provenance reports ``"off"``).
    """

    def __init__(self, cache: Optional[ResultCache] = None):
        self.cache = cache
        #: Inline responses carry no ``shard`` stamp.
        self.provenance: Dict[str, object] = {}
        self._thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-solve"
        )

    def submit(
        self, batches: Sequence[Sequence[protocol.SolveRequest]]
    ) -> "Future[List[List[Dict[str, object]]]]":
        return self._thread.submit(execute_batches, batches, self.cache)

    def memo_stats(self) -> Dict[str, float]:
        """Nothing to flush: per-shard memo gauges belong to the shard tier."""
        return {}

    def shutdown(self, wait: bool = True) -> None:
        self._thread.shutdown(wait=wait)
