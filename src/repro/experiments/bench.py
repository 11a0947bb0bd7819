"""``repro bench``: measure the experiment engine on a Fig. 6 slice.

Three timed runs of the same Fig. 6 FFT slice, in a fixed order:

1. **serial cold** -- ``max_workers=1``, no result cache, in-process
   memoization cleared: the pre-engine baseline;
2. **parallel cold** -- ``max_workers=N`` through the process pool,
   populating a fresh on-disk result cache as it goes;
3. **warm cache** -- ``max_workers=1`` again, every unit served from the
   cache populated by run 2.

When both numeric backends are importable, a fourth phase re-runs the
serial cold slice under ``scalar`` and ``numpy``
(:mod:`repro.core.vectorized`) and reports two speedups: **wall** (whole
slice, Amdahl-bounded by the non-solver engine share) and **numeric
core** (time inside the Section 4-7 solver entry points only, measured by
wrapping them for the duration of the run).  The backends' output rows
must match exactly -- the comparison carries its own ``rows_identical``.

The three engine runs must produce identical ``SeriesResult.rows()``
output -- :func:`run_bench` asserts it -- so the speedup table never
advertises a fast-but-different engine.  Results are printed as a table
and *appended* to the trajectory list in ``BENCH_experiments.json`` (CI
uploads it as an artifact), so successive runs accumulate a performance
history instead of overwriting it.  Interpretation notes live in
docs/PERFORMANCE.md; in particular the parallel speedup is bounded by the
machine's core count, so on a single-core container run 2 shows only pool
overhead.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from typing import Dict, List, Optional

from repro.core import vectorized
from repro.core.blocks import block_energy_cache_clear
from repro.core.solve_config import current, using
from repro.experiments.cache import ResultCache
from repro.experiments.fig6 import fig6_specs
from repro.experiments.parallel import resolve_workers, run_series
from repro.experiments.runner import SeriesResult
from repro.utils.solvers import reset_solver_counts, solver_call_total

__all__ = [
    "BENCH_SLICES",
    "check_serial_regression",
    "load_trajectory",
    "run_bench",
    "run_bench_huge_n",
    "run_bench_service",
    "run_bench_streaming",
    "render_bench_table",
    "render_bench_huge_n_table",
    "render_bench_service_table",
    "render_bench_streaming_table",
    "write_bench_json",
]

#: ``repro bench --slice`` choices; huge-n, streaming and service have
#: their own runners.
BENCH_SLICES = ("fft", "synthetic", "huge-n", "streaming", "service")

#: Default Fig. 6 slice: the full U sweep at a moderate seed count.
BENCH_U_VALUES: List[int] = [2, 3, 4, 5, 6, 7, 8, 9]
BENCH_SEEDS = 5
BENCH_INSTANCES = 48

#: ``--quick`` slice for CI smoke: a few seconds end to end.
QUICK_U_VALUES: List[int] = [2, 3]
QUICK_SEEDS = 2
QUICK_INSTANCES = 24

#: Synthetic slice: one Table 4 star memory point over the ``x`` sweep.
BENCH_X_VALUES: List[float] = [100.0, 200.0, 400.0, 800.0]
BENCH_TRACE_LENGTH = 50
QUICK_X_VALUES: List[float] = [200.0, 400.0]
QUICK_TRACE_LENGTH = 30

#: Huge-n slice: agreeable traces far beyond the exact tier's reach.
HUGE_N_VALUES: List[int] = [100, 1000, 10000, 100000]
HUGE_N_EPSILONS: List[float] = [0.1, 0.01]
QUICK_HUGE_N_VALUES: List[int] = [100, 1000]
QUICK_HUGE_N_EPSILONS: List[float] = [0.1]
#: Largest n the exact Section 5 DP is asked to solve in the sweep.
HUGE_N_EXACT_CAP = 1000
#: Quick-mode exact cap: the exact DP needs ~2min at n=1000 on the
#: running-max traces, which is full-bench territory, not CI smoke.
QUICK_HUGE_N_EXACT_CAP = 100
#: Largest n the object-path fptas cross-check (rows_identical) runs at.
HUGE_N_OBJECT_CAP = 2000
#: Max inter-arrival of the huge-n trace (ms): sporadic enough that
#: feasibility gaps keep clusters small, so both tiers stay near-linear.
HUGE_N_X_MS = 120.0

#: Streaming slice: (offered rate jobs/s, job count) points.  The first
#: point is the ISSUE's 10^5-job acceptance run at a comfortably
#: sustainable rate; the second stresses admission (shedding engages).
STREAMING_POINTS: List[List[float]] = [[80.0, 100_000], [320.0, 20_000]]
QUICK_STREAMING_POINTS: List[List[float]] = [[80.0, 2_000], [400.0, 2_000]]
STREAMING_SEED = 1
STREAMING_MAX_BACKLOG = 64
#: Offered-load ramp for the max-sustainable-rate search (full mode).
STREAMING_RAMP_RATES: List[float] = [100.0, 200.0, 400.0, 800.0, 1600.0]
STREAMING_RAMP_N = 4000
STREAMING_SLO_P99_MS = 50.0

#: Service slice: worker (shard) counts the scaling table compares.
SERVICE_WORKER_COUNTS: List[int] = [1, 2, 4]
QUICK_SERVICE_WORKER_COUNTS: List[int] = [1, 2]
SERVICE_N_JOBS = 240
#: Sized from the spread of the 1-shard walls the regression gate reads:
#: over 8 quick runs on a 2-CPU host, the cold wall's quartiles spanned
#: 33% of its median at 60 jobs, wider than the 25% gate, and 11% at 600.
QUICK_SERVICE_N_JOBS = 600
#: Offered rate: high enough that the server, not the arrival spacing,
#: is the bottleneck on the cold pass (n jobs span ~n/rate seconds).
SERVICE_RATE_JOBS_S = 2000.0
SERVICE_SEED = 7
#: A pass is ``saturated`` when its completions, counted over their own
#: span, kept pace with less than this fraction of the offered rate: the
#: backlog grew, so its percentiles measure queueing, not service time.
SERVICE_KEEP_UP = 0.95
#: Platform-parameter rotation: the shard tier routes by platform
#: fingerprint, so a single-platform stream would exercise exactly one
#: shard.  Eight distinct memory-power points spread the ring.
SERVICE_PLATFORM_CYCLE: List[Dict[str, float]] = [
    {"alpha_m": 1200.0 + 200.0 * index} for index in range(8)
]


def _timed_run(
    name: str,
    specs,
    *,
    seeds: int,
    max_workers: Optional[int],
    cache: Optional[ResultCache],
) -> Dict[str, object]:
    """One bench mode: cold in-process state, wall-clock + counters."""
    block_energy_cache_clear()
    reset_solver_counts()
    start = time.perf_counter()
    series = run_series(
        name, specs, seeds=seeds, max_workers=max_workers, cache=cache
    )
    seconds = time.perf_counter() - start
    return {
        "series": series,
        "seconds": seconds,
        # Pool workers count in their own processes; use the per-unit
        # counters shipped back in the results, not this process's tally.
        "solver_calls": sum(p.solver_calls for p in series.points),
        "cached_units": sum(p.cached_units for p in series.points),
        "local_solver_calls": solver_call_total(),
    }


@contextmanager
def _solver_timer():
    """Accumulate wall time spent inside the online policy's solver calls.

    The Fig. 6 pipeline reaches the numeric core exclusively through the
    two entry points :mod:`repro.core.online` binds at import time, so
    wrapping those module attributes for the duration of a (serial) run
    measures exactly the share the numpy backend can accelerate --
    without leaving any timing overhead in the production hot path.
    """
    import repro.core.online as online

    elapsed = [0.0]
    names = ("solve_common_release", "solve_common_release_with_overhead")

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed[0] += time.perf_counter() - start

        return wrapper

    originals = {name: getattr(online, name) for name in names}
    for name, fn in originals.items():
        setattr(online, name, timed(fn))
    try:
        yield elapsed
    finally:
        for name, fn in originals.items():
            setattr(online, name, fn)


def _compare_backends(
    specs, *, seeds: int, repeats: int = 3
) -> Optional[Dict[str, object]]:
    """Serial cold cross-backend comparison on the same slice.

    Runs every backend usable in this process (scalar, numpy, jit).  Each
    backend runs the slice ``repeats`` times and reports the fastest pass
    (least-interference estimate -- the box's other load only ever adds
    time).  Returns ``None`` when only the scalar backend is importable.
    Each backend runs under the active config with only its backend
    swapped.  When the jit backend participates, its kernels are
    compiled/warmed *before* timing so first-call JIT cost never pollutes
    the numbers.
    """
    backends = vectorized.available_backends()
    if len(backends) < 2:
        return None
    if "jit" in backends:
        from repro.core import kernels

        kernels.warm_up()
    measured: Dict[str, Dict[str, object]] = {}
    rows: Dict[str, List] = {}
    for backend in backends:
        config = replace(current(), backend=backend)
        best_wall = best_solver = float("inf")
        for _ in range(max(1, repeats)):
            block_energy_cache_clear()  # honest cold run
            vectorized.block_arrays_cache_clear()
            reset_solver_counts()
            with _solver_timer() as solver_elapsed:
                start = time.perf_counter()
                series = run_series(
                    f"bench-{backend}", specs, seeds=seeds, max_workers=1,
                    config=config,
                )
                seconds = time.perf_counter() - start
            best_wall = min(best_wall, seconds)
            best_solver = min(best_solver, solver_elapsed[0])
        rows[backend] = series.rows()
        measured[backend] = {
            "seconds": round(best_wall, 4),
            "solver_seconds": round(best_solver, 4),
            "solver_calls": solver_call_total(),
        }
    scalar = measured["scalar"]
    identical = all(rows[b] == rows["scalar"] for b in backends)
    assert identical, "numeric backends disagree at the output-row level"

    def ratio(num: float, den: float) -> Optional[float]:
        return round(num / den, 3) if den > 0 else None

    speedup: Dict[str, object] = {}
    if "numpy" in measured:
        numpy = measured["numpy"]
        # Whole-slice ratio: Amdahl-bounded by the engine share the
        # backends have in common (trace generation, simulation,
        # accounting) -- see docs/PERFORMANCE.md.
        speedup["wall"] = ratio(scalar["seconds"], numpy["seconds"])
        # Solver-only ratio: the numeric core the backends swap out.
        speedup["numeric_core"] = ratio(
            scalar["solver_seconds"], numpy["solver_seconds"]
        )
    if "jit" in measured:
        jit = measured["jit"]
        # The jit tier rides the numpy engine, so numpy is its natural
        # baseline; on a numpy-less host the scalar tier stands in.
        base_name = "numpy" if "numpy" in measured else "scalar"
        base = measured[base_name]
        speedup["jit_baseline"] = base_name
        speedup["jit_wall"] = ratio(base["seconds"], jit["seconds"])
        speedup["jit_numeric_core"] = ratio(
            base["solver_seconds"], jit["solver_seconds"]
        )
    return {
        "backends": measured,
        "speedup": speedup,
        "rows_identical": identical,
    }


def run_bench(
    *,
    benchmark: str = "fft",
    bench_slice: str = "fft",
    u_values: Optional[List[int]] = None,
    seeds: Optional[int] = None,
    instances: Optional[int] = None,
    workers: Optional[int] = None,
    cache_root: str,
    quick: bool = False,
) -> Dict[str, object]:
    """Run the three-mode benchmark and return the report dict.

    ``bench_slice`` selects the workload family: ``"fft"`` is the Fig. 6
    DSPstone slice (``benchmark`` picks fft or matmul), ``"synthetic"`` the
    Fig. 7 sporadic slice at the Table 4 star memory point.  The huge-n
    slice has its own runner (:func:`run_bench_huge_n`) because it times
    single solves, not the three engine modes.  ``workers=None`` uses every
    core for the parallel mode.  ``cache_root`` hosts the run's result
    cache; it is cleared first so the "cold" modes are honestly cold.
    """
    seeds = seeds if seeds is not None else (QUICK_SEEDS if quick else BENCH_SEEDS)
    if bench_slice == "synthetic":
        from repro.experiments.config import (
            DEFAULT_ALPHA_M_MW,
            DEFAULT_XI_M_MS,
        )
        from repro.experiments.fig7 import fig7_grid_specs

        x_values = QUICK_X_VALUES if quick else BENCH_X_VALUES
        trace_length = QUICK_TRACE_LENGTH if quick else BENCH_TRACE_LENGTH
        specs = fig7_grid_specs(
            [(DEFAULT_ALPHA_M_MW, DEFAULT_XI_M_MS)],
            x_values,
            trace_length=trace_length,
        )
        slice_info: Dict[str, object] = {
            "name": "synthetic",
            "x_values": x_values,
            "seeds": seeds,
            "trace_length": trace_length,
            "units": len(x_values) * seeds,
        }
    elif bench_slice == "fft":
        if quick:
            u_values = u_values if u_values is not None else QUICK_U_VALUES
            instances = instances if instances is not None else QUICK_INSTANCES
        else:
            u_values = u_values if u_values is not None else BENCH_U_VALUES
            instances = instances if instances is not None else BENCH_INSTANCES
        specs = fig6_specs(benchmark, u_values=u_values, instances=instances)
        slice_info = {
            "name": benchmark,
            "benchmark": benchmark,
            "u_values": u_values,
            "seeds": seeds,
            "instances": instances,
            "units": len(u_values) * seeds,
        }
    else:
        raise ValueError(
            f"run_bench slices are 'fft' and 'synthetic' (got {bench_slice!r}); "
            "use run_bench_huge_n for the huge-n slice"
        )
    pool_workers = resolve_workers(workers)
    cache = ResultCache(cache_root)
    cache.clear()

    if vectorized.get_backend() == "jit":
        # Compile/warm the kernels before any timed region: first-call
        # JIT cost belongs to setup, not to the recorded trajectory.
        from repro.core import kernels

        kernels.warm_up()

    serial = _timed_run(
        "bench-serial", specs, seeds=seeds, max_workers=1, cache=None
    )
    parallel = _timed_run(
        "bench-parallel", specs, seeds=seeds, max_workers=pool_workers, cache=cache
    )
    warm = _timed_run(
        "bench-warm", specs, seeds=seeds, max_workers=1, cache=cache
    )

    rows = [mode["series"].rows() for mode in (serial, parallel, warm)]
    identical = rows[0] == rows[1] == rows[2]
    assert identical, "bench modes disagree -- engine determinism is broken"

    def mode_report(mode: Dict[str, object]) -> Dict[str, object]:
        # Wall-time split (additive, in seconds): time inside the solver
        # entry points, the rest of each work unit (trace generation,
        # simulation, validation, accounting), and everything outside the
        # units (scheduling, pool transport, cache lookups, reduction).
        # Solver seconds are accumulated in-process by the online replan
        # loop and shipped back per unit, so the split survives pool runs.
        series: SeriesResult = mode["series"]
        wall_s = mode["seconds"]
        unit_s = sum(p.wall_ms for p in series.points) / 1000.0
        solver_s = series.total_solver_ms() / 1000.0
        return {
            "seconds": round(wall_s, 4),
            "solver_calls": mode["solver_calls"],
            "cached_units": mode["cached_units"],
            "split": {
                "solver_s": round(solver_s, 4),
                "engine_s": round(max(0.0, unit_s - solver_s), 4),
                "other_s": round(max(0.0, wall_s - unit_s), 4),
            },
        }

    serial_s = serial["seconds"]
    cpu_count = os.cpu_count()
    # A single worker (or a single-core container) cannot show parallel
    # speedup; run 2 still happens (it populates the cache for run 3) but
    # its row measures pool overhead, not parallelism.
    pool_meaningless = pool_workers <= 1 or (cpu_count or 1) <= 1
    parallel_report = mode_report(parallel)
    if pool_meaningless:
        parallel_report["annotation"] = (
            "single worker/core: pool overhead only, "
            "not a parallelism measurement"
        )
    report: Dict[str, object] = {
        "slice": slice_info,
        "workers": pool_workers,
        "cpu_count": cpu_count,
        "backend": vectorized.get_backend(),
        "modes": {
            "serial_cold": mode_report(serial),
            "parallel_cold": parallel_report,
            "warm_cache": mode_report(warm),
        },
        "speedup": {
            "parallel_vs_serial": round(serial_s / parallel["seconds"], 3)
            if parallel["seconds"] > 0 and not pool_meaningless
            else None,
            "warm_vs_serial": round(serial_s / warm["seconds"], 3)
            if warm["seconds"] > 0
            else None,
            "warm_fraction_of_serial": round(warm["seconds"] / serial_s, 4)
            if serial_s > 0
            else None,
        },
        "rows_identical": identical,
        "cache_entries": cache.stats().entries,
        "numeric": _compare_backends(specs, seeds=seeds),
    }
    return report


def run_bench_huge_n(
    *,
    n_values: Optional[List[int]] = None,
    epsilons: Optional[List[float]] = None,
    exact_cap: int = HUGE_N_EXACT_CAP,
    max_interarrival: float = HUGE_N_X_MS,
    seed: int = 1,
    quick: bool = False,
) -> Dict[str, object]:
    """The huge-n slice: exact vs fptas wall and energy over n sweeps.

    For each ``n`` one agreeable sporadic trace is generated columnwise
    (:func:`repro.workloads.synthetic.agreeable_trace`, never building
    Task objects for the fptas path), then:

    * the exact Section 5 DP solves it while ``n <= exact_cap`` (the exact
      tier's loop count grows superlinearly in cluster size, so the cap
      keeps the sweep bounded);
    * the fptas tier solves it at every ε via the columns path, checking
      the (1+ε) energy bound wherever the exact energy is known;
    * while ``n`` is small enough, the object-path fptas re-solves the
      same trace, and so does the columns path under the scalar backend;
      both energies must be float-identical to the columns path's
      (``rows_identical`` -- one span pricer, whose batched numpy branch
      reproduces the scalar one).

    The report records the measured exact-vs-fptas wall crossover (the
    smallest measured ``n`` where the first ε's fptas solve is faster
    than the exact solve) and the worst relative energy gap per ε.  A
    ``modes.serial_cold.seconds`` entry (total fptas wall at the first ε)
    makes the report gateable by :func:`check_serial_regression`.
    """
    from repro.core.agreeable import solve_agreeable
    from repro.core.fptas import (
        solve_agreeable_fptas,
        solve_agreeable_fptas_columns,
    )
    from repro.experiments.config import experiment_platform
    from repro.models.task import Task, TaskSet
    from repro.workloads.synthetic import agreeable_trace

    if quick:
        n_values = n_values if n_values is not None else QUICK_HUGE_N_VALUES
        epsilons = epsilons if epsilons is not None else QUICK_HUGE_N_EPSILONS
        if exact_cap == HUGE_N_EXACT_CAP:
            exact_cap = QUICK_HUGE_N_EXACT_CAP
    else:
        n_values = n_values if n_values is not None else HUGE_N_VALUES
        epsilons = epsilons if epsilons is not None else HUGE_N_EPSILONS
    if not n_values or not epsilons:
        raise ValueError("huge-n slice needs at least one n and one epsilon")
    # xi_m=0 keeps the exact DP on its gap-pruned fast path, so the
    # crossover compares both tiers at their best.
    platform = experiment_platform(xi_m=0.0)

    points: List[Dict[str, object]] = []
    all_bounds = True
    all_identical = True
    worst_gap: Dict[str, float] = {}
    primary_total_s = 0.0
    for n in n_values:
        releases, deadlines, workloads = agreeable_trace(
            n=n, max_interarrival=max_interarrival, seed=seed
        )
        point: Dict[str, object] = {"n": n}
        exact_energy: Optional[float] = None
        if n <= exact_cap:
            tasks = TaskSet.presorted(
                tuple(
                    Task(r, d, w, f"H{i}")
                    for i, (r, d, w) in enumerate(
                        zip(releases, deadlines, workloads)
                    )
                )
            )
            start = time.perf_counter()
            exact = solve_agreeable(tasks, platform)
            exact_s = time.perf_counter() - start
            exact_energy = exact.predicted_energy
            point["exact"] = {
                "seconds": round(exact_s, 4),
                "energy_uj": exact_energy,
                "num_blocks": exact.num_blocks,
            }
        fptas_report: Dict[str, object] = {}
        for index, epsilon in enumerate(epsilons):
            start = time.perf_counter()
            cols = solve_agreeable_fptas_columns(
                releases, deadlines, workloads, platform, epsilon=epsilon
            )
            fptas_s = time.perf_counter() - start
            if index == 0:
                primary_total_s += fptas_s
            entry: Dict[str, object] = {
                "seconds": round(fptas_s, 4),
                "energy_uj": cols["energy"],
                "num_blocks": cols["num_blocks"],
            }
            if exact_energy is not None:
                gap = cols["energy"] / exact_energy - 1.0
                bound_ok = cols["energy"] <= (1.0 + epsilon) * exact_energy
                entry["gap"] = round(gap, 8)
                entry["bound_ok"] = bound_ok
                all_bounds = all_bounds and bound_ok
                key = f"{epsilon:g}"
                worst_gap[key] = max(worst_gap.get(key, 0.0), gap)
            if n <= HUGE_N_OBJECT_CAP:
                obj = solve_agreeable_fptas(
                    TaskSet(
                        [
                            Task(r, d, w, f"H{i}")
                            for i, (r, d, w) in enumerate(
                                zip(releases, deadlines, workloads)
                            )
                        ]
                    ),
                    platform,
                    epsilon=epsilon,
                )
                with using(replace(current(), backend="scalar")):
                    reference = solve_agreeable_fptas_columns(
                        releases, deadlines, workloads, platform, epsilon=epsilon
                    )
                identical = (
                    obj.predicted_energy == cols["energy"]
                    and obj.num_blocks == cols["num_blocks"]
                    and reference["energy"] == cols["energy"]
                )
                entry["rows_identical"] = identical
                all_identical = all_identical and identical
            fptas_report[f"{epsilon:g}"] = entry
        point["fptas"] = fptas_report
        points.append(point)

    primary = f"{epsilons[0]:g}"
    crossover: Dict[str, object] = {"epsilon": epsilons[0], "n": None}
    for point in points:
        exact = point.get("exact")
        entry = point["fptas"].get(primary)
        if exact is None or entry is None:
            continue
        if entry["seconds"] < exact["seconds"]:
            crossover["n"] = point["n"]
            crossover["exact_s"] = exact["seconds"]
            crossover["fptas_s"] = entry["seconds"]
            break
    if crossover["n"] is None:
        crossover["note"] = (
            f"exact no slower than fptas at every measured n <= {exact_cap}; "
            "beyond the cap only fptas completes"
        )
    return {
        "slice": {
            "name": "huge-n",
            "n_values": n_values,
            "epsilons": epsilons,
            "exact_cap": exact_cap,
            "max_interarrival": max_interarrival,
            "seed": seed,
        },
        "backend": vectorized.get_backend(),
        "points": points,
        "crossover": crossover,
        "energy_gap": {key: round(value, 8) for key, value in worst_gap.items()},
        "bound_ok": all_bounds,
        "rows_identical": all_identical,
        "modes": {"serial_cold": {"seconds": round(primary_total_s, 4)}},
    }


def render_bench_huge_n_table(report: Dict[str, object]) -> str:
    """Human-readable crossover table for one huge-n report."""
    sl = report["slice"]
    epsilons = sl["epsilons"]
    lines = [
        f"bench slice: huge-n n={sl['n_values']} eps={epsilons} "
        f"x={sl['max_interarrival']:g}ms seed={sl['seed']} "
        f"(exact capped at n={sl['exact_cap']}; backend {report['backend']})",
        f"{'n':>8s} {'exact s':>10s}"
        + "".join(
            f" {'fptas(' + format(eps, 'g') + ') s':>14s} {'gap':>11s}"
            for eps in epsilons
        ),
    ]
    for point in report["points"]:
        exact = point.get("exact")
        row = f"{point['n']:>8d} "
        row += f"{exact['seconds']:>10.3f}" if exact else f"{'-':>10s}"
        for eps in epsilons:
            entry = point["fptas"][f"{eps:g}"]
            gap = entry.get("gap")
            row += f" {entry['seconds']:>14.3f}"
            row += f" {gap:>11.2e}" if gap is not None else f" {'-':>11s}"
        lines.append(row)
    crossover = report["crossover"]
    if crossover.get("n") is not None:
        lines.append(
            f"crossover (eps={crossover['epsilon']:g}): fptas beats exact "
            f"from n={crossover['n']} "
            f"({crossover['fptas_s']:.3f}s vs {crossover['exact_s']:.3f}s)"
        )
    else:
        lines.append(f"crossover: {crossover.get('note', 'not measured')}")
    lines.append(
        f"(1+eps) bound held everywhere measured: {report['bound_ok']}; "
        f"columns/object/scalar fptas identical: {report['rows_identical']}"
    )
    return "\n".join(lines)


def run_bench_streaming(
    *,
    points: Optional[List[List[float]]] = None,
    mode: str = "poisson",
    seed: int = STREAMING_SEED,
    max_backlog: int = STREAMING_MAX_BACKLOG,
    ramp_rates: Optional[List[float]] = None,
    slo_p99_ms: float = STREAMING_SLO_P99_MS,
    quick: bool = False,
) -> Dict[str, object]:
    """The streaming slice: open-loop replay through the in-process sink.

    Each ``(rate, n)`` point replays a seeded arrival stream through
    SDEM-ON twice and records offered rate, P50/P99 virtual latency,
    deadline-miss %, shed count and uJ/job; the repeat's digest must
    match (``rows_identical`` -- the subsystem's byte-reproducibility
    contract, checked per run the way the engine slices cross-check
    modes).  Full mode adds the SLO ramp
    (:func:`repro.replay.find_max_sustainable_rate`), whose wall P99 is
    measured and therefore recorded but never gated.

    ``modes.serial_cold.seconds`` (total first-pass replay wall) makes
    the report gateable by :func:`check_serial_regression`, which also
    compares ``streaming.deadline_miss_total`` against the prior entry:
    new deadline misses fail the gate outright.
    """
    from repro.experiments.config import experiment_platform
    from repro.replay import ArrivalSpec, find_max_sustainable_rate, run_replay

    if points is None:
        points = QUICK_STREAMING_POINTS if quick else STREAMING_POINTS
    if not points:
        raise ValueError("streaming slice needs at least one (rate, n) point")
    platform = experiment_platform()

    point_reports: List[Dict[str, object]] = []
    all_identical = True
    serial_total_s = 0.0
    miss_total = 0
    shed_total = 0
    done_total = 0
    for rate, n in points:
        spec = ArrivalSpec(
            mode=mode, n=int(n), rate_jobs_s=float(rate), seed=seed
        )
        first = run_replay(spec, platform, max_backlog=max_backlog)
        repeat = run_replay(spec, platform, max_backlog=max_backlog)
        identical = first.digest == repeat.digest
        all_identical = all_identical and identical
        # Best-of-two wall: the repeat exists for the digest check anyway,
        # so use it to damp timer noise in the gated serial_cold figure
        # (the box's other load only ever adds time).
        serial_total_s += min(first.wall_seconds, repeat.wall_seconds)
        miss_total += first.counts.get("deadline_miss", 0)
        shed_total += first.counts.get("shed", 0)
        done_total += first.counts.get("done", 0)
        entry = first.to_wire()
        entry["rows_identical"] = identical
        point_reports.append(entry)

    report: Dict[str, object] = {
        "slice": {
            "name": "streaming",
            "mode": mode,
            "points": [[float(rate), int(n)] for rate, n in points],
            "seed": seed,
            "max_backlog": max_backlog,
        },
        "backend": vectorized.get_backend(),
        "points": point_reports,
        "streaming": {
            "deadline_miss_total": miss_total,
            "shed_total": shed_total,
            "done_total": done_total,
        },
        "rows_identical": all_identical,
        "modes": {"serial_cold": {"seconds": round(serial_total_s, 4)}},
    }
    if not quick:
        rates = ramp_rates if ramp_rates is not None else STREAMING_RAMP_RATES
        best, ramp_points = find_max_sustainable_rate(
            ArrivalSpec(mode=mode, n=STREAMING_RAMP_N, seed=seed),
            platform,
            rates_jobs_s=rates,
            slo_p99_ms=slo_p99_ms,
            max_backlog=max_backlog,
        )
        report["slo"] = {
            "slo_p99_ms": slo_p99_ms,
            "max_sustainable_rate_jobs_s": best,
            "ramp": [point.to_wire() for point in ramp_points],
        }
    return report


def render_bench_streaming_table(report: Dict[str, object]) -> str:
    """Human-readable latency/energy table for one streaming report."""
    sl = report["slice"]
    lines = [
        f"bench slice: streaming mode={sl['mode']} seed={sl['seed']} "
        f"max_backlog={sl['max_backlog']} (backend {report['backend']})",
        f"{'rate j/s':>9s} {'n':>8s} {'p50 ms':>8s} {'p99 ms':>8s} "
        f"{'miss %':>7s} {'shed':>7s} {'uJ/job':>10s} {'repro':>6s}",
    ]
    for point in report["points"]:
        virtual = point.get("virtual") or {}
        energy = point.get("energy") or {}
        counts = point.get("counts", {})
        lines.append(
            f"{point['offered_rate_jobs_s']:>9.1f} "
            f"{counts.get('total', 0):>8d} "
            f"{virtual.get('p50_ms', float('nan')):>8.2f} "
            f"{virtual.get('p99_ms', float('nan')):>8.2f} "
            f"{point.get('deadline_miss_pct', 0.0):>7.3f} "
            f"{counts.get('shed', 0):>7d} "
            f"{energy.get('per_job_uj', float('nan')):>10.1f} "
            f"{'ok' if point.get('rows_identical') else 'FAIL':>6s}"
        )
    totals = report["streaming"]
    lines.append(
        f"totals: {totals['done_total']} done, "
        f"{totals['deadline_miss_total']} deadline miss(es), "
        f"{totals['shed_total']} shed; digests reproducible: "
        f"{report['rows_identical']}"
    )
    slo = report.get("slo")
    if slo is not None:
        best = slo["max_sustainable_rate_jobs_s"]
        best_text = f"{best:g} jobs/s" if best is not None else "none"
        lines.append(
            f"max sustainable rate at P99 <= {slo['slo_p99_ms']:g} ms: "
            f"{best_text} (measured, machine-dependent)"
        )
        for point in slo["ramp"]:
            lines.append(
                f"  ramp {point['rate_jobs_s']:>7.1f} j/s: "
                f"wall p99 {point['p99_wall_ms']:.3f} ms, "
                f"shed {point['shed']}, miss {point['deadline_miss']} "
                f"-> {'sustainable' if point['sustainable'] else 'over SLO'}"
            )
    return "\n".join(lines)


def run_bench_service(
    *,
    worker_counts: Optional[List[int]] = None,
    n: Optional[int] = None,
    rate_jobs_s: float = SERVICE_RATE_JOBS_S,
    seed: int = SERVICE_SEED,
    clients: int = 4,
    quick: bool = False,
) -> Dict[str, object]:
    """The service slice: open-loop replay against sharded worker pools.

    For each worker count W a fresh :class:`repro.service.SolveService`
    with ``shards=W`` (its own worker processes, its own empty result
    cache) is driven twice by the replay harness's open-loop generator --
    the same seeded Poisson stream every time, platform-cycled so the
    consistent-hash ring spreads load across all W shards.  The first
    pass is all cache misses (solve throughput), the repeat is all hits
    (service-overhead throughput); both record throughput and wall P50 /
    P99.  Each pass also records the stream's ``offered_jobs_s`` beside
    ``completed_jobs_s`` (completions over their own span) and is marked
    ``saturated`` when it completed less than :data:`SERVICE_KEEP_UP` of
    what was offered.

    ``modes.serial_cold`` / ``modes.warm_cache`` carry the one-worker
    walls, making the report gateable by :func:`check_serial_regression`
    exactly like the engine slices.  On a single-core host the scaling
    ratios are pool overhead, not parallelism, so
    ``speedup.parallel_vs_serial`` is ``null`` with an annotation -- the
    same convention the fig6/synthetic trajectory entries use.
    """
    import asyncio
    import tempfile

    from repro.replay import ArrivalSpec
    from repro.replay.arrivals import offered_rate_jobs_s, span_rate_jobs_s
    from repro.replay.sinks import replay_service
    from repro.service.metrics import nearest_rank
    from repro.service.server import SolveService

    if worker_counts is None:
        worker_counts = (
            QUICK_SERVICE_WORKER_COUNTS if quick else SERVICE_WORKER_COUNTS
        )
    if n is None:
        n = QUICK_SERVICE_N_JOBS if quick else SERVICE_N_JOBS
    if any(count < 1 for count in worker_counts):
        raise ValueError(f"worker counts must be >= 1, got {worker_counts}")
    spec = ArrivalSpec(mode="poisson", n=n, rate_jobs_s=rate_jobs_s, seed=seed)
    jobs = list(spec.jobs())
    offered_jobs_s = offered_rate_jobs_s(jobs)
    capacity = max(64, 2 * n)  # never shed: throughput, not admission, is measured

    async def drive(shards: int) -> Dict[str, object]:
        cache = ResultCache(tempfile.mkdtemp(prefix="repro-bench-service-"))
        service = SolveService(capacity=capacity, shards=shards, cache=cache)
        server = await service.serve_tcp("127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            passes = {}
            for label in ("cold", "warm"):
                outcome = await replay_service(
                    jobs,
                    host=host,
                    port=port,
                    clients=clients,
                    platform_cycle=SERVICE_PLATFORM_CYCLE,
                )
                done = outcome.completed
                latencies = sorted(record.latency_ms for record in done)
                wall_s = outcome.wall_seconds
                completed_jobs_s = span_rate_jobs_s(
                    sorted(record.finish_ms for record in done)
                )
                passes[label] = {
                    "wall_s": round(wall_s, 4),
                    "throughput_jobs_s": round(len(done) / wall_s, 2)
                    if wall_s > 0
                    else None,
                    "offered_jobs_s": round(offered_jobs_s, 2),
                    "completed_jobs_s": round(completed_jobs_s, 2),
                    "saturated": completed_jobs_s
                    < SERVICE_KEEP_UP * offered_jobs_s,
                    "p50_ms": nearest_rank(latencies, 50.0),
                    "p99_ms": nearest_rank(latencies, 99.0),
                    "done": len(done),
                    "shed": sum(1 for r in outcome.records if r.status == "shed"),
                    "errors": sum(
                        1
                        for r in outcome.records
                        if r.status in ("error", "timeout")
                    ),
                }
        finally:
            server.close()
            await server.wait_closed()
            await service.drain()
        return passes

    points: List[Dict[str, object]] = []
    for count in worker_counts:
        passes = asyncio.run(drive(count))
        points.append({"shards": count, **passes})

    cpu_count = os.cpu_count()
    pool_meaningless = (cpu_count or 1) <= 1 or max(worker_counts) <= 1
    baseline = points[0]
    base_cold = baseline["cold"]["throughput_jobs_s"]
    best_cold = max(
        (p["cold"]["throughput_jobs_s"] or 0.0) for p in points[1:]
    ) if len(points) > 1 else None
    report: Dict[str, object] = {
        "slice": {
            "name": "service",
            "worker_counts": [int(count) for count in worker_counts],
            "n": n,
            "rate_jobs_s": rate_jobs_s,
            "seed": seed,
            "clients": clients,
            "platforms": len(SERVICE_PLATFORM_CYCLE),
        },
        "backend": vectorized.get_backend(),
        "cpu_count": cpu_count,
        "points": points,
        "speedup": {
            "parallel_vs_serial": round(best_cold / base_cold, 3)
            if best_cold and base_cold and not pool_meaningless
            else None,
        },
        "modes": {
            "serial_cold": {"seconds": baseline["cold"]["wall_s"]},
            "warm_cache": {"seconds": baseline["warm"]["wall_s"]},
        },
    }
    if pool_meaningless:
        report["speedup"]["annotation"] = (
            "single worker/core: multi-shard rows measure worker-pool "
            "overhead, not a parallelism measurement"
        )
    return report


def render_bench_service_table(report: Dict[str, object]) -> str:
    """Human-readable worker-scaling table for one service report."""
    sl = report["slice"]
    lines = [
        f"bench slice: service n={sl['n']} rate={sl['rate_jobs_s']:g} j/s "
        f"seed={sl['seed']} clients={sl['clients']} "
        f"platforms={sl['platforms']} (backend {report['backend']}, "
        f"{report['cpu_count']} core(s))",
        f"{'shards':>6s} {'pass':>5s} {'wall s':>8s} {'thr j/s':>9s} "
        f"{'offer j/s':>9s} {'kept j/s':>9s} "
        f"{'p50 ms':>8s} {'p99 ms':>8s} {'done':>5s} {'shed':>5s} {'err':>4s}",
    ]
    for point in report["points"]:
        for label in ("cold", "warm"):
            row = point[label]
            lines.append(
                f"{point['shards']:>6d} {label:>5s} "
                f"{row['wall_s']:>8.3f} "
                f"{row['throughput_jobs_s'] or float('nan'):>9.1f} "
                f"{row['offered_jobs_s']:>9.1f} {row['completed_jobs_s']:>9.1f} "
                f"{row['p50_ms'] or float('nan'):>8.2f} "
                f"{row['p99_ms'] or float('nan'):>8.2f} "
                f"{row['done']:>5d} {row['shed']:>5d} {row['errors']:>4d}"
                + ("  saturated" if row["saturated"] else "")
            )
    lines.append(
        f"kept j/s: completions over their own span; saturated: kept < "
        f"{SERVICE_KEEP_UP:g} x offered, so that row's percentiles measure "
        "backlog, not service time"
    )
    speed = report["speedup"]
    ratio = speed.get("parallel_vs_serial")
    lines.append(
        "best multi-shard vs 1-shard cold throughput: "
        + (f"{ratio:g}x" if ratio is not None else "null")
    )
    if "annotation" in speed:
        lines.append(f"note: {speed['annotation']}")
    return "\n".join(lines)


def check_serial_regression(
    report: Dict[str, object],
    trajectory: List[Dict[str, object]],
    *,
    threshold: float = 0.25,
    min_delta_s: float = 0.05,
) -> Optional[str]:
    """Gate a fresh report against the recorded performance history.

    Compares the new ``serial_cold`` *and* ``warm_cache`` wall times
    against the most recent trajectory entry with the same backend and the
    same slice; returns a failure message when either mode is more than
    ``threshold`` slower *and* at least ``min_delta_s`` slower in absolute
    terms (quick slices finish in ~10ms, where a 25% relative gate alone
    would trip on timer noise), ``None`` otherwise.  Warm-cache blowups
    used to land silently -- the gate read only ``serial_cold`` -- so a
    cache-path regression (slow keying, lost hits) never failed CI.
    Reports without a ``warm_cache`` mode (the huge-n and streaming
    slices) are gated on ``serial_cold`` alone.  Streaming reports carry
    an extra, non-timing gate: ``streaming.deadline_miss_total`` may
    never exceed the prior entry's (zero tolerance -- the replay is
    deterministic, so any new miss is a scheduling change, not noise).
    With no comparable prior entry (first run, new slice, other backend)
    the gate is skipped.
    """
    prior: Optional[Dict[str, object]] = None
    for entry in reversed(trajectory):
        if not isinstance(entry, dict):
            continue
        if entry.get("backend") != report.get("backend"):
            continue
        if entry.get("slice") != report.get("slice"):
            continue
        prior = entry
        break
    if prior is None:
        return None
    prior_streaming = prior.get("streaming")
    new_streaming = report.get("streaming")
    if isinstance(prior_streaming, dict) and isinstance(new_streaming, dict):
        try:
            prev_miss = int(prior_streaming["deadline_miss_total"])
            new_miss = int(new_streaming["deadline_miss_total"])
        except (KeyError, TypeError, ValueError):
            prev_miss = new_miss = 0
        if new_miss > prev_miss:
            return (
                f"streaming deadline-miss regression: {new_miss} miss(es) vs "
                f"{prev_miss} recorded (the replay is deterministic; any "
                "increase is a real scheduling change)"
            )
    for mode in ("serial_cold", "warm_cache"):
        try:
            prev_s = float(prior["modes"][mode]["seconds"])  # type: ignore[index]
            new_s = float(report["modes"][mode]["seconds"])  # type: ignore[index]
        except (KeyError, TypeError, ValueError):
            continue
        if prev_s <= 0.0:
            continue
        if new_s > prev_s * (1.0 + threshold) and new_s - prev_s >= min_delta_s:
            return (
                f"{mode} regression: {new_s:.3f}s vs {prev_s:.3f}s recorded "
                f"({(new_s / prev_s - 1.0) * 100.0:+.0f}% exceeds the "
                f"{threshold * 100.0:.0f}% gate)"
            )
    return None


def render_bench_table(report: Dict[str, object]) -> str:
    """Human-readable speedup table for one :func:`run_bench` report."""
    sl = report["slice"]
    modes = report["modes"]
    speed = report["speedup"]
    serial_s = modes["serial_cold"]["seconds"]
    if "benchmark" in sl:
        slice_line = (
            f"bench slice: fig6-{sl['benchmark']} U={sl['u_values']} "
            f"seeds={sl['seeds']} n={sl['instances']} "
        )
    else:
        slice_line = (
            f"bench slice: synthetic x={sl['x_values']} "
            f"seeds={sl['seeds']} n={sl['trace_length']} "
        )
    lines = [
        slice_line
        + f"({sl['units']} work units; {report['workers']} worker(s), "
        f"{report['cpu_count']} cpu(s))",
        f"{'mode':<14s} {'seconds':>9s} {'speedup':>9s} "
        f"{'solver calls':>13s} {'cached units':>13s}",
    ]
    mode_rows = (
        ("serial cold", "serial_cold"),
        ("parallel cold", "parallel_cold"),
        ("warm cache", "warm_cache"),
    )
    for label, key in mode_rows:
        mode = modes[key]
        if key == "parallel_cold" and "annotation" in mode:
            speedup_cell = "     n/a "
        else:
            speedup = serial_s / mode["seconds"] if mode["seconds"] > 0 else 0.0
            speedup_cell = f"{speedup:>8.2f}x"
        lines.append(
            f"{label:<14s} {mode['seconds']:>9.3f} {speedup_cell} "
            f"{mode['solver_calls']:>13d} {mode['cached_units']:>13d}"
        )
    annotation = modes["parallel_cold"].get("annotation")
    if annotation:
        lines.append(f"note: parallel cold -- {annotation}")
    lines.append(
        f"{'wall split':<14s} {'solver s':>9s} {'engine s':>9s} {'other s':>9s}"
    )
    for label, key in mode_rows:
        split = modes[key].get("split")
        if not split:
            continue
        lines.append(
            f"{label:<14s} {split['solver_s']:>9.3f} "
            f"{split['engine_s']:>9.3f} {split['other_s']:>9.3f}"
        )
    lines.append(
        f"rows identical across modes: {report['rows_identical']}; "
        f"warm run took {speed['warm_fraction_of_serial'] * 100.0:.1f}% "
        f"of cold serial"
    )
    numeric = report.get("numeric")
    if numeric is None:
        lines.append(
            "numeric backends: numpy not importable, scalar-only run"
        )
    else:
        lines.append(
            f"{'backend':<14s} {'seconds':>9s} {'solver s':>9s} "
            f"{'solver calls':>13s}"
        )
        for backend in ("scalar", "numpy", "jit"):
            entry = numeric["backends"].get(backend)
            if entry is None:
                continue
            lines.append(
                f"{backend:<14s} {entry['seconds']:>9.3f} "
                f"{entry['solver_seconds']:>9.3f} "
                f"{entry['solver_calls']:>13d}"
            )
        speedups = numeric["speedup"]

        def fmt(value: Optional[float]) -> str:
            return f"{value:.2f}x" if value is not None else "n/a"

        if "wall" in speedups:
            lines.append(
                f"numpy vs scalar (serial cold): {fmt(speedups['wall'])} "
                f"wall, {fmt(speedups['numeric_core'])} numeric core; "
                f"rows identical across backends: {numeric['rows_identical']}"
            )
        if "jit_wall" in speedups:
            lines.append(
                f"jit vs {speedups['jit_baseline']} (serial cold): "
                f"{fmt(speedups['jit_wall'])} wall, "
                f"{fmt(speedups['jit_numeric_core'])} numeric core"
            )
    return "\n".join(lines)


def load_trajectory(path: str) -> List[Dict[str, object]]:
    """Existing bench history at ``path``, tolerating the legacy layout.

    Early revisions wrote one bare report dict; wrap it as the first
    trajectory entry so no measurement is lost by the migration.
    """
    if not os.path.exists(path):
        return []
    try:
        with open(path, encoding="utf-8") as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        return []
    if isinstance(existing, dict) and isinstance(
        existing.get("trajectory"), list
    ):
        return list(existing["trajectory"])
    if isinstance(existing, dict):
        return [existing]
    return []


def write_bench_json(report: Dict[str, object], path: str) -> None:
    """Append the report to the trajectory list at ``path``.

    The file holds ``{"trajectory": [oldest, ..., newest]}`` so repeated
    bench runs build a performance history CI can plot or diff; a legacy
    single-report file is migrated in place, not clobbered.
    """
    trajectory = load_trajectory(path)
    stamped = dict(report)
    # Report metadata, not result rows: the trajectory file is a wall-clock
    # performance history, so the timestamp is the point.
    # repro-lint: allow[DET001] generated_at is bench-report metadata
    stamped["generated_at"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    trajectory.append(stamped)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"trajectory": trajectory}, handle, indent=2, sort_keys=True)
        handle.write("\n")
