"""Bounded admission queue with priority lanes and backpressure.

Admission control is the service's first line of defence: a request is
either **admitted** -- at which point it is guaranteed a terminal response
(result, deadline expiry or cancellation) -- or **rejected at the door**
with an HTTP-429-style error carrying ``retry_after_ms``.  A rejected
request is *never partially executed*: it never reaches an executor or
the result cache (the saturation property tests pin this).

The queue holds one bounded sub-queue per executor (*shard*), each with
two lanes of strict priority:

* ``interactive`` -- latency-sensitive one-off solves; always admitted
  while there is any capacity left;
* ``sweep`` -- bulk experiment traffic; first to go when the service
  degrades.

A ``router`` maps each request to its shard (the sharded tier passes the
consistent-hash ring's lookup).  The inline tier is the one-shard queue
with no router; its admissions carry no shard index, so its error
envelopes stay free of a ``shard`` key.

Degradation policy, per shard: when a shard's depth reaches
``ceil(shed_threshold * seats)`` it sheds sweep-lane arrivals (code
``SHEDDING``) while still admitting interactive ones; at full seats
everything routed there is rejected (``QUEUE_FULL``).  One platform's
burst therefore degrades only the shard it hashes to.
``retry_after_ms`` scales linearly with the shard's occupancy so clients
back off harder the fuller it is.

The queue is thread-safe but non-blocking: the asyncio server polls it
via an event, executors never touch it.  The clock is injectable so
deadline semantics are testable without sleeping.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.protocol import (
    E_QUEUE_FULL,
    E_SHEDDING,
    LANE_INTERACTIVE,
    LANE_SWEEP,
    SolveRequest,
)

__all__ = [
    "AdmitResult",
    "QueueEntry",
    "AdmissionQueue",
    "split_capacity",
]


@dataclass
class QueueEntry:
    """One admitted request waiting for dispatch."""

    request: SolveRequest
    enqueued_at: float
    expires_at: Optional[float] = None
    cancelled: bool = False
    #: Free slot for the transport layer (the server parks the asyncio
    #: future that resolves into the client's response here).
    context: object = None

    @property
    def lane(self) -> str:
        return self.request.lane

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at


@dataclass(frozen=True)
class AdmitResult:
    """Outcome of an admission attempt."""

    admitted: bool
    entry: Optional[QueueEntry] = None
    code: Optional[str] = None
    message: Optional[str] = None
    retry_after_ms: Optional[float] = None
    #: Shard that admitted or rejected the request (``None`` when the
    #: queue has no router).  Rejections carry it into the error envelope
    #: so a client can see *which* shard shed it.
    shard: Optional[int] = None


def split_capacity(capacity: int, shards: int) -> List[int]:
    """Split ``capacity`` seats exactly across ``shards`` queues.

    The first ``capacity % shards`` shards take the remainder seat, so the
    per-shard bounds always sum to the configured total -- the aggregate
    ``depth_peak <= capacity`` audit holds for any shard count.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if capacity < shards:
        raise ValueError(
            f"capacity {capacity} cannot seat {shards} shards; every shard "
            "needs at least one seat"
        )
    base, extra = divmod(capacity, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


class AdmissionQueue:
    """Per-shard bounded two-lane FIFOs behind one ``offer``."""

    def __init__(
        self,
        capacity: int = 256,
        *,
        shards: int = 1,
        router: Optional[Callable[[SolveRequest], int]] = None,
        shed_threshold: float = 0.8,
        base_retry_after_ms: float = 250.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not (0.0 < shed_threshold <= 1.0):
            raise ValueError(
                f"shed_threshold must be in (0, 1], got {shed_threshold}"
            )
        self.capacity = capacity
        self.router = router
        #: Per-shard bounds; they sum to ``capacity``.
        self.seats = split_capacity(capacity, shards)
        #: Per-shard depth at which sweep-lane shedding starts.
        self.shed_at = [max(1, math.ceil(shed_threshold * s)) for s in self.seats]
        self.base_retry_after_ms = base_retry_after_ms
        self._clock = clock
        self._shards: List[Dict[str, List[QueueEntry]]] = [
            {LANE_INTERACTIVE: [], LANE_SWEEP: []} for _ in self.seats
        ]
        self._lock = threading.Lock()
        self._depth_peak = 0
        #: Called (outside the lock) with the shard index after every
        #: successful offer; the server wakes that shard's dispatch loop.
        self.on_enqueue: Optional[Callable[[int], None]] = None

    # -- introspection ------------------------------------------------------

    def _shard_depth_locked(self, shard: int) -> int:
        return sum(len(lane) for lane in self._shards[shard].values())

    def _depth_locked(self) -> int:
        return sum(len(lane) for lanes in self._shards for lane in lanes.values())

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth_locked()

    def shard_depth(self, shard: int) -> int:
        with self._lock:
            return self._shard_depth_locked(shard)

    @property
    def depth_peak(self) -> int:
        """Aggregate high-water mark: the saturation tests assert
        ``<= capacity``."""
        with self._lock:
            return self._depth_peak

    def lane_depths(self) -> Dict[str, int]:
        """Queued entries per priority lane, summed over shards."""
        with self._lock:
            return {
                lane: sum(len(shard[lane]) for shard in self._shards)
                for lane in (LANE_INTERACTIVE, LANE_SWEEP)
            }

    @property
    def degraded(self) -> bool:
        """True while *any* shard is shedding its sweep lane."""
        with self._lock:
            return any(
                self._shard_depth_locked(i) >= shed_at
                for i, shed_at in enumerate(self.shed_at)
            )

    # -- admission ----------------------------------------------------------

    def offer(self, request: SolveRequest) -> AdmitResult:
        """Admit ``request`` into its shard or reject it with backpressure.

        The capacity invariant is enforced here and only here: a shard can
        never hold more than its seats, so an admitted request always has
        a seat and a rejected one leaves no trace.
        """
        shard = 0 if self.router is None else self.router(request)
        if not 0 <= shard < len(self._shards):
            raise ValueError(
                f"router returned shard {shard}, valid range is "
                f"0..{len(self._shards) - 1}"
            )
        label = None if self.router is None else shard
        seats = self.seats[shard]
        now = self._clock()
        with self._lock:
            depth = self._shard_depth_locked(shard)
            retry_after_ms = self.base_retry_after_ms * (1.0 + depth / seats)
            if depth >= seats:
                return AdmitResult(
                    admitted=False,
                    code=E_QUEUE_FULL,
                    message=(
                        f"admission queue full ({depth}/{seats}); "
                        "retry after the indicated backoff"
                    ),
                    retry_after_ms=retry_after_ms,
                    shard=label,
                )
            if depth >= self.shed_at[shard] and request.lane == LANE_SWEEP:
                return AdmitResult(
                    admitted=False,
                    code=E_SHEDDING,
                    message=(
                        f"degraded mode: queue at {depth}/{seats} "
                        f"(shed threshold {self.shed_at[shard]}); sweep-lane "
                        "load is being shed, interactive requests still admitted"
                    ),
                    retry_after_ms=retry_after_ms,
                    shard=label,
                )
            expires_at = (
                now + request.timeout_ms / 1000.0
                if request.timeout_ms is not None
                else None
            )
            entry = QueueEntry(request=request, enqueued_at=now, expires_at=expires_at)
            self._shards[shard][request.lane].append(entry)
            self._depth_peak = max(self._depth_peak, self._depth_locked())
        if self.on_enqueue is not None:
            self.on_enqueue(shard)
        return AdmitResult(admitted=True, entry=entry, shard=label)

    # -- dispatch -----------------------------------------------------------

    def pop_batch(
        self, max_items: int, shard: int = 0
    ) -> Tuple[List[QueueEntry], List[QueueEntry], List[QueueEntry]]:
        """Dequeue up to ``max_items`` live entries from one shard.

        Returns ``(ready, expired, cancelled)``.  Interactive entries
        dequeue before any sweep entry; FIFO within a lane.  Expired and
        cancelled entries are drained eagerly (they never count against
        ``max_items``) so a stale backlog cannot starve live work.
        """
        now = self._clock()
        ready: List[QueueEntry] = []
        expired: List[QueueEntry] = []
        cancelled: List[QueueEntry] = []
        with self._lock:
            lanes = self._shards[shard]
            for lane in (LANE_INTERACTIVE, LANE_SWEEP):
                keep: List[QueueEntry] = []
                for entry in lanes[lane]:
                    if entry.cancelled:
                        cancelled.append(entry)
                    elif entry.expired(now):
                        expired.append(entry)
                    elif len(ready) < max_items:
                        ready.append(entry)
                    else:
                        keep.append(entry)
                lanes[lane] = keep
        return ready, expired, cancelled

    def cancel(self, request_id: str) -> bool:
        """Mark a pending request cancelled; True when it was still queued."""
        with self._lock:
            for lanes in self._shards:
                for lane in lanes.values():
                    for entry in lane:
                        if entry.request.id == request_id and not entry.cancelled:
                            entry.cancelled = True
                            return True
        return False

    def drain(self) -> List[QueueEntry]:
        """Remove and return every queued entry (graceful shutdown)."""
        with self._lock:
            remaining = [
                entry
                for lanes in self._shards
                for lane in (LANE_INTERACTIVE, LANE_SWEEP)
                for entry in lanes[lane]
            ]
            for lanes in self._shards:
                for lane in lanes.values():
                    lane.clear()
        return remaining
