"""Service telemetry: counters, gauges and histograms.

A deliberately small, dependency-free metrics kernel in the Prometheus
idiom: metrics are registered once on a :class:`MetricsRegistry`, mutated
from any thread, and read out either as a ``/metrics``-style text page
(:meth:`MetricsRegistry.render_text`) or as a JSON-ready snapshot
(:meth:`MetricsRegistry.snapshot`) -- the payload behind the server's
``metrics`` request kind and ``repro serve --stats``.

Histograms keep exact ``count``/``sum`` plus **two** percentile views:

* a bounded reservoir of the most recent observations (``p50``/``p95``
  on the text page) -- "what is solve latency doing right now";
* a fixed log-spaced bucket sketch over every observation ever made
  (``p50_stream``/``p99_stream``), immune to the reservoir's recency
  bias: over a long open-loop replay a 1024-sample window forgets the
  tail, understating p99 whenever the slow minority is sparser than one
  in ~1024 recent events.  Buckets span 1e-3..1e6 at a fixed count per
  decade, so the estimate carries a bounded *relative* error (the
  bucket width, ~7.5%) and costs O(1) per observe.

Both views render on the Prometheus text page so dashboards can compare
the recent window against the all-time stream.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

#: Log-spaced bucket grid of the streaming percentile sketch: buckets
#: cover [1e-3, 1e6) (sub-microsecond to ~17-minute latencies in ms) at
#: 32 per decade -- a 10^(1/32) ~= 7.5% relative bucket width.
_BUCKET_MIN = 1e-3
_BUCKET_DECADES = 9
_BUCKETS_PER_DECADE = 32
_BUCKET_COUNT = _BUCKET_DECADES * _BUCKETS_PER_DECADE

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SERVICE_METRICS",
    "labelled_name",
    "nearest_rank",
    "service_metrics",
    "scheme_energy_counter",
]


def nearest_rank(ordered: Sequence[float], p: float) -> Optional[float]:
    """The ``p``-th percentile (0..100) of an ascending sample.

    Picks the element at index ``round(p / 100 * (n - 1))`` -- no
    interpolation, so the result is always an observed value; ``None``
    for an empty sample.
    """
    if not ordered:
        return None
    rank = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def sample(self) -> Dict[str, float]:
        return {"value": self.value}

    def render(self) -> List[str]:
        return [f"{self.name} {_fmt(self.value)}"]


class Gauge:
    """A value that goes up and down (queue depth, degraded flag)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help = help_text
        self._value = 0.0
        self._peak = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self._peak = max(self._peak, self._value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount
            self._peak = max(self._peak, self._value)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def peak(self) -> float:
        """High-water mark since creation (queue-bound audits)."""
        with self._lock:
            return self._peak

    def sample(self) -> Dict[str, float]:
        with self._lock:
            return {"value": self._value, "peak": self._peak}

    def render(self) -> List[str]:
        sample = self.sample()
        return [
            f"{self.name} {_fmt(sample['value'])}",
            f"{self.name}_peak {_fmt(sample['peak'])}",
        ]


class Histogram:
    """Exact count/sum plus reservoir *and* streaming percentiles."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "", reservoir: int = 1024):
        self.name = name
        self.help = help_text
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._min = math.inf
        self._recent: Deque[float] = deque(maxlen=reservoir)
        self._buckets = [0] * _BUCKET_COUNT
        self._overflow = 0
        self._lock = threading.Lock()

    @staticmethod
    def _bucket_index(value: float) -> int:
        """Log-grid bucket of ``value``; -1 underflow, count overflow."""
        if value < _BUCKET_MIN:
            return -1
        index = int(math.log10(value / _BUCKET_MIN) * _BUCKETS_PER_DECADE)
        return min(index, _BUCKET_COUNT)

    def observe(self, value: float) -> None:
        value = float(value)
        index = self._bucket_index(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._max = max(self._max, value)
            self._min = min(self._min, value)
            self._recent.append(value)
            if index >= _BUCKET_COUNT:
                self._overflow += 1
            elif index >= 0:
                self._buckets[index] += 1
            # Underflow (index -1) is implied: count minus bucket totals.

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def max(self) -> float:
        with self._lock:
            return self._max

    def percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile (0..100) of recent observations."""
        with self._lock:
            ordered = sorted(self._recent)
        return nearest_rank(ordered, p)

    def streaming_percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile over *all* observations, from the
        log-bucket sketch (bounded ~7.5% relative error).

        Unlike :meth:`percentile` this never forgets: rare tail events
        stay represented however long the replay runs.  Bucketed values
        report the bucket's geometric midpoint, clamped to the observed
        min/max; the overflow bucket reports the observed max.
        """
        with self._lock:
            count = self._count
            if count == 0:
                return None
            buckets = list(self._buckets)
            overflow = self._overflow
            minimum, maximum = self._min, self._max
        target = max(1, math.ceil(p / 100.0 * count))
        underflow = count - overflow - sum(buckets)
        cumulative = underflow
        if cumulative >= target:
            return minimum
        for index, bucket_count in enumerate(buckets):
            cumulative += bucket_count
            if cumulative >= target:
                low = _BUCKET_MIN * 10.0 ** (index / _BUCKETS_PER_DECADE)
                high = low * 10.0 ** (1.0 / _BUCKETS_PER_DECADE)
                mid = math.sqrt(low * high)
                return min(max(mid, minimum), maximum)
        return maximum

    def sample(self) -> Dict[str, float]:
        with self._lock:
            count, total, maximum = self._count, self._sum, self._max
        out: Dict[str, float] = {"count": count, "sum": total, "max": maximum}
        if count:
            out["mean"] = total / count
        p50, p95 = self.percentile(50.0), self.percentile(95.0)
        if p50 is not None:
            out["p50"] = p50
        if p95 is not None:
            out["p95"] = p95
        p50_stream = self.streaming_percentile(50.0)
        p99_stream = self.streaming_percentile(99.0)
        if p50_stream is not None:
            out["p50_stream"] = p50_stream
        if p99_stream is not None:
            out["p99_stream"] = p99_stream
        return out

    def render(self) -> List[str]:
        sample = self.sample()
        lines = [
            f"{self.name}_count {_fmt(sample['count'])}",
            f"{self.name}_sum {_fmt(sample['sum'])}",
        ]
        for key in ("p50", "p95", "p50_stream", "p99_stream", "max"):
            if key in sample:
                lines.append(f"{self.name}_{key} {_fmt(sample[key])}")
        return lines


def _fmt(value: float) -> str:
    """Prometheus-style number formatting: integers without the ``.0``."""
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


class MetricsRegistry:
    """Named metrics with idempotent registration.

    ``counter``/``gauge``/``histogram`` return the existing instrument when
    the name was already registered (and refuse kind mismatches), so
    call-site registration stays safe under lazy per-scheme metrics.
    """

    def __init__(self):
        self._metrics: "Dict[str, object]" = {}
        self._lock = threading.Lock()

    def _register(self, factory, name: str, help_text: str):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, factory):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = factory(name, help_text)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._register(Histogram, name, help_text)

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Every metric's samples as a JSON-ready dict."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.sample() for name, metric in metrics}

    def render_text(self) -> str:
        """The ``/metrics``-style text page."""
        lines: List[str] = []
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


#: Metric names shared by the server, batcher and queue.  Declared in one
#: place so docs/SERVICE.md's reference and the code cannot drift apart.
SERVICE_METRICS = (
    ("counter", "repro_requests_total", "solve requests received"),
    ("counter", "repro_responses_total", "successful solve responses"),
    ("counter", "repro_errors_total", "error responses of any code"),
    ("counter", "repro_rejected_queue_full_total", "admissions rejected: queue full"),
    ("counter", "repro_rejected_shed_total", "sweep-lane requests shed while degraded"),
    ("counter", "repro_deadline_expired_total", "requests expired before dispatch"),
    ("counter", "repro_cancelled_total", "requests cancelled before dispatch"),
    ("counter", "repro_cache_hits_total", "solve results served from the result cache"),
    ("counter", "repro_cache_misses_total", "solve results computed fresh"),
    ("counter", "repro_cache_corrupt_total", "cache entries that failed verification and were recomputed"),
    ("counter", "repro_batches_total", "micro-batches dispatched"),
    ("counter", "repro_batched_requests_total", "requests that shared a batch of size > 1"),
    ("gauge", "repro_queue_depth", "admitted requests waiting for dispatch"),
    ("gauge", "repro_degraded", "1 while sweep-lane shedding is active"),
    ("gauge", "repro_inflight", "requests currently executing"),
    ("histogram", "repro_batch_size", "requests per dispatched micro-batch"),
    ("histogram", "repro_queue_wait_ms", "admission to hand-off to the executor"),
    ("histogram", "repro_solve_latency_ms", "per-request solve latency"),
)


def service_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """A registry pre-populated with every service metric."""
    registry = registry if registry is not None else MetricsRegistry()
    for kind, name, help_text in SERVICE_METRICS:
        getattr(registry, kind)(name, help_text)
    return registry


def labelled_name(name: str, **labels: object) -> str:
    """A Prometheus-style labelled series name.

    ``labelled_name("repro_shard_queue_depth", shard=3)`` ->
    ``'repro_shard_queue_depth{shard="3"}'``.  The registry treats the
    result as an ordinary metric name -- one instrument per label
    combination, the same scheme the lazy per-scheme energy counters use
    -- but the rendered text page keeps the label syntax, so scrapers can
    aggregate across shards/workers with a plain label matcher.  Labels
    render in sorted key order so a combination always maps to one name.
    """
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


def scheme_energy_counter(registry: MetricsRegistry, scheme: str) -> Counter:
    """The lazily created per-scheme energy total (uJ), e.g.
    ``repro_energy_uj_total_sdem_on``."""
    slug = scheme.replace("-", "_")
    return registry.counter(
        f"repro_energy_uj_total_{slug}", f"total solved energy (uJ) for scheme {scheme}"
    )
