"""Parallel, cache-aware experiment engine.

The Section 8 sweeps are embarrassingly parallel: every work unit (one
seed of one parameter point, priced under all three policies) is
independent.  :func:`run_series` fans units across a
``ProcessPoolExecutor`` and folds them back per point with
:func:`repro.experiments.runner.reduce_units`, which always reduces in
seed order -- so the aggregated output is bit-identical to the serial
loop no matter how completion interleaves.

Work units that cross a process boundary must pickle, which rules out
the ad-hoc lambdas the exhibit modules historically used as trace
factories.  The *trace specs* below are frozen module-level dataclasses
that (a) pickle, (b) reproduce the exact legacy seed mapping
(``seed * stride + offset``), and (c) expose ``trace_config()`` -- the
canonical description the result cache hashes into its keys.  Any
callable still works with ``max_workers=1``; the engine raises a clear
error when an unpicklable factory meets a process pool.

Warm restarts: pass a :class:`repro.experiments.cache.ResultCache` and
every already-simulated cell is read back from disk instead of
re-simulated, so interrupted or partially-parameter-changed sweeps only
pay for missing cells.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.solve_config import SolveConfig, current, using
from repro.experiments.cache import ResultCache
from repro.experiments.runner import (
    POLICY_ORDER,
    SeriesResult,
    UnitResult,
    reduce_units,
    simulate_unit,
)
from repro.models.platform import Platform
from repro.models.task import Task
from repro.workloads.dspstone import dspstone_trace
from repro.workloads.synthetic import synthetic_tasks

__all__ = [
    "DspstoneTraceSpec",
    "SyntheticTraceSpec",
    "PointSpec",
    "WorkerProcess",
    "chunk_evenly",
    "resolve_workers",
    "run_unit",
    "run_series",
]


# ---------------------------------------------------------------------------
# Picklable, cache-keyable trace factories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DspstoneTraceSpec:
    """Figure 6 trace factory: DSPstone instance streams.

    ``__call__(seed)`` generates with effective seed
    ``seed * seed_stride + seed_offset`` -- the historical per-point
    decorrelation mapping, kept verbatim so results match the legacy
    lambdas bit for bit.
    """

    benchmark: str
    utilization_factor: float
    n: int
    streams: int = 1
    seed_stride: int = 1
    seed_offset: int = 0

    def effective_seed(self, seed: int) -> int:
        return seed * self.seed_stride + self.seed_offset

    def __call__(self, seed: int) -> List[Task]:
        return dspstone_trace(
            self.benchmark,
            utilization_factor=self.utilization_factor,
            n=self.n,
            seed=self.effective_seed(seed),
            streams=self.streams,
        )

    def trace_config(self) -> Dict[str, object]:
        return {
            "kind": "dspstone",
            "benchmark": self.benchmark,
            "utilization_factor": self.utilization_factor,
            "n": self.n,
            "streams": self.streams,
            "seed_stride": self.seed_stride,
            "seed_offset": self.seed_offset,
        }


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Figure 7 trace factory: Section 8.1.2 sporadic tasks."""

    n: int
    max_interarrival: float
    seed_stride: int = 1
    seed_offset: int = 0

    def effective_seed(self, seed: int) -> int:
        return seed * self.seed_stride + self.seed_offset

    def __call__(self, seed: int) -> List[Task]:
        return synthetic_tasks(
            n=self.n,
            max_interarrival=self.max_interarrival,
            seed=self.effective_seed(seed),
        )

    def trace_config(self) -> Dict[str, object]:
        return {
            "kind": "synthetic",
            "n": self.n,
            "max_interarrival": self.max_interarrival,
            "seed_stride": self.seed_stride,
            "seed_offset": self.seed_offset,
        }


@dataclass(frozen=True)
class PointSpec:
    """One parameter point of a series: label + trace factory + platform."""

    label: str
    trace_factory: Callable[[int], Sequence[Task]]
    platform: Platform


# ---------------------------------------------------------------------------
# Unit execution (shared by the serial loop and pool workers)
# ---------------------------------------------------------------------------


def _unit_cache_keys(
    spec: PointSpec, seed: int, cache: Optional[ResultCache], config: SolveConfig
) -> Optional[Dict[str, str]]:
    """Cache keys for every policy of one unit, or ``None`` when uncacheable.

    Factories without a ``trace_config()`` description cannot be hashed
    reliably, so their units always simulate.
    """
    if cache is None:
        return None
    config_of = getattr(spec.trace_factory, "trace_config", None)
    if config_of is None:
        return None
    trace_config = config_of()
    return {
        policy: cache.unit_key(spec.platform, trace_config, seed, policy, config=config)
        for policy in POLICY_ORDER
    }


def _unit_entry_shape(value: object) -> bool:
    """What :func:`run_unit` reads from a cached policy entry."""
    return isinstance(value, dict) and all(
        type(value.get(field)) in (int, float) for field in ("total", "memory")
    )


def run_unit(
    spec: PointSpec,
    seed: int,
    cache: Optional[ResultCache] = None,
    horizon: Optional[Tuple[float, float]] = None,
    config: Optional[SolveConfig] = None,
) -> UnitResult:
    """Execute one work unit under ``config`` (default: the active one),
    consulting/populating the result cache.

    A unit is served from cache only when *all three* policies hit, so a
    cached unit never mixes stored and freshly simulated energies.
    """
    config = config if config is not None else current()
    keys = _unit_cache_keys(spec, seed, cache, config)
    if keys is not None:
        start = time.perf_counter()
        stored = [
            cache.get(keys[policy], _unit_entry_shape) for policy in POLICY_ORDER
        ]
        if all(entry is not None for entry in stored):
            return UnitResult(
                seed=seed,
                totals=tuple(entry["total"] for entry in stored),
                memory=tuple(entry["memory"] for entry in stored),
                wall_ms=(time.perf_counter() - start) * 1000.0,
                solver_calls=0,
                from_cache=True,
            )
    with using(config):
        unit = simulate_unit(
            spec.trace_factory, spec.platform, seed, label=spec.label, horizon=horizon
        )
    if keys is not None:
        for index, policy in enumerate(POLICY_ORDER):
            cache.put(
                keys[policy],
                {"total": unit.totals[index], "memory": unit.memory[index]},
            )
    return unit


def _pool_entry_chunk(args) -> List[Tuple[int, int, UnitResult]]:
    """Module-level pool target: ``(chunk, cache, horizon, config)`` with
    ``chunk = [(point_index, seed, spec), ...]``.

    Batching several units per submission amortizes the pickle/IPC cost
    of a pool round-trip, which at ~10 ms per unit otherwise eats the
    parallel speedup (the 0.95x regression in early bench trajectories).
    The parent's config rides in the payload, so every worker solves
    under it whatever the start method.
    """
    chunk, cache, horizon, config = args
    return [
        (point_index, seed, run_unit(spec, seed, cache, horizon, config))
        for point_index, seed, spec in chunk
    ]


# ---------------------------------------------------------------------------
# Series engine
# ---------------------------------------------------------------------------


# Below this many units the pool's startup cost cannot pay for itself:
# run inline even when more workers were requested.
_INLINE_UNITS = 8
# Submissions per worker: enough chunks for load balancing across units of
# uneven cost, few enough to keep the per-submission IPC overhead amortized.
_CHUNKS_PER_WORKER = 4


def resolve_workers(max_workers: Optional[int]) -> int:
    """``None`` -> every core; ``N >= 1`` -> N; anything else is an error."""
    if max_workers is None:
        return os.cpu_count() or 1
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1 or None, got {max_workers}")
    return max_workers


def chunk_evenly(items: Sequence, workers: int, chunks_per_worker: int = _CHUNKS_PER_WORKER):
    """Split ``items`` into ~``workers * chunks_per_worker`` contiguous chunks.

    The submission granularity both this engine and the service batcher
    use: enough chunks for load balancing across units of uneven cost,
    few enough that per-submission dispatch overhead stays amortized.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunk_size = max(1, math.ceil(len(items) / (workers * chunks_per_worker)))
    return [items[start : start + chunk_size] for start in range(0, len(items), chunk_size)]


def _mp_context():
    """Prefer fork: workers inherit the imported library instantly."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerProcess:
    """One long-lived solver process.

    The sweeps above use throwaway pools -- fork, chunk, join.  The
    sharded solve service needs the opposite lifetime: a worker that
    survives across micro-batches, so the module-level memo caches
    (``BlockArrays``, the block-energy memo, compiled jit kernels) warmed
    by one batch are still hot for the next one routed to the same shard.
    This wraps a single-process :class:`ProcessPoolExecutor`.  It holds no
    solve configuration: each call that solves carries its own config (as
    :func:`repro.service.shard.shard_execute` does per batch).

    ``warm=True`` (the default) performs a blocking no-op round-trip at
    construction so the child process exists -- and, under a fork
    context, snapshots the parent -- *before* the caller starts an event
    loop or other threads around it.
    """

    def __init__(self, *, warm: bool = True):
        self._pool = ProcessPoolExecutor(max_workers=1, mp_context=_mp_context())
        if warm:
            self._pool.submit(os.getpid).result()

    def submit(self, fn, *args):
        """Submit ``fn(*args)`` to the worker; returns its Future."""
        return self._pool.submit(fn, *args)

    def call(self, fn, *args):
        """Blocking convenience: ``submit`` and wait for the result."""
        return self.submit(fn, *args).result()

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


def run_series(
    name: str,
    specs: Sequence[PointSpec],
    *,
    seeds: int,
    max_workers: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    horizon: Optional[Tuple[float, float]] = None,
    config: Optional[SolveConfig] = None,
) -> SeriesResult:
    """Run every (point, seed) work unit of a series under ``config``
    (default: the active one) and aggregate.

    ``max_workers=1`` keeps everything in-process (today's serial loop,
    still consulting the cache when one is given); ``None`` uses every
    core.  Tiny runs (``<= 8`` units) also stay in-process -- forking a
    pool costs more than it saves there.  Units are distributed across
    *all* points of the series, so a wide sweep saturates the pool even
    when ``seeds < max_workers``, and are submitted in chunks so the
    per-submission IPC overhead is amortized.
    Aggregation reduces each point's units in seed order -- outputs are
    bit-identical across worker counts and cache states.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    workers = resolve_workers(max_workers)
    config = config if config is not None else current()
    jobs = [
        (point_index, seed)
        for point_index in range(len(specs))
        for seed in range(seeds)
    ]
    results: Dict[Tuple[int, int], UnitResult] = {}
    if workers <= 1 or len(jobs) <= _INLINE_UNITS:
        for point_index, seed in jobs:
            results[(point_index, seed)] = run_unit(
                specs[point_index], seed, cache, horizon, config
            )
    else:
        units = [
            (point_index, seed, specs[point_index]) for point_index, seed in jobs
        ]
        chunks = chunk_evenly(units, workers)
        payloads = [(chunk, cache, horizon, config) for chunk in chunks]
        try:
            pickle.dumps(payloads[0])
        except Exception as exc:
            raise ValueError(
                "parallel execution needs picklable work units; trace "
                "factories must be module-level callables such as "
                "DspstoneTraceSpec/SyntheticTraceSpec, not lambdas or "
                f"closures (pickling failed with: {exc}); "
                "use max_workers=1 for ad-hoc factories"
            ) from exc
        with ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)), mp_context=_mp_context()
        ) as pool:
            pending = {
                pool.submit(_pool_entry_chunk, payload) for payload in payloads
            }
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    for point_index, seed, unit in future.result():
                        results[(point_index, seed)] = unit
    series = SeriesResult(name=name)
    for point_index, spec in enumerate(specs):
        units = [results[(point_index, seed)] for seed in range(seeds)]
        series.points.append(reduce_units(spec.label, units))
    return series
