"""``repro.service`` -- a long-lived async solve service over the SDEM stack.

Every solver entry point of the library (the Section 4/7 common-release
schemes, the Section 5 agreeable DP, the SDEM-ON engine and the
MBKP/MBKPS/AVR/race baselines) is reachable here through one versioned
JSON-lines wire protocol, served by an asyncio TCP/stdio server with:

* **admission control** -- a bounded queue with one shard per executor,
  priority lanes (interactive vs. sweep), per-request deadlines and
  HTTP-429-style backpressure (:mod:`repro.service.queue`);
* **micro-batching** -- compatible requests (same platform + numeric
  backend) coalesce into one dispatch that prefetches the vectorized
  core's arrays and reuses the experiment engine's on-disk result cache
  (:mod:`repro.service.batcher`);
* **one executor interface, two tiers** -- every batch goes through
  :class:`~repro.service.batcher.Executor`: the in-process
  :class:`~repro.service.batcher.InlineExecutor` (``--shards 0``) or one
  :class:`~repro.service.shard.ShardWorker` process per shard, replaced
  when it dies (:mod:`repro.service.shard`);
* **telemetry** -- counters / gauges / histograms rendered as a
  Prometheus-style text page and a JSON snapshot
  (:mod:`repro.service.metrics`);
* **graceful degradation** -- sweep-lane shedding when the queue
  saturates and a clean SIGTERM drain
  (:mod:`repro.service.server`).

The CLI verbs ``repro serve`` and ``repro submit`` (see
:mod:`repro.cli`) wrap :mod:`repro.service.server` and
:mod:`repro.service.client`; docs/SERVICE.md is the operator manual.
"""

from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    SolveRequest,
    canonical_result_bytes,
    error_envelope,
    execute_request,
    request_from_wire,
    resolve_scheme,
)
from repro.service.queue import AdmissionQueue, QueueEntry
from repro.service.batcher import Executor, InlineExecutor, form_batches
from repro.service.metrics import MetricsRegistry
from repro.service.server import SolveService
from repro.service.client import ServiceClient, run_demo

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SolveRequest",
    "canonical_result_bytes",
    "error_envelope",
    "execute_request",
    "request_from_wire",
    "resolve_scheme",
    "AdmissionQueue",
    "QueueEntry",
    "Executor",
    "InlineExecutor",
    "form_batches",
    "MetricsRegistry",
    "SolveService",
    "ServiceClient",
    "run_demo",
]
