"""``sweep``: the paper's full figure set through the parallel engine.

Fig. 6 (fft and matmul, U = 2..9, 384-task DSPstone traces) and Fig. 7a/7b
(alpha_m 1..8 W and xi_m 15..70 ms, each crossed with x = 100..800 ms,
50-task sporadic traces) at the paper's 10 seeds per point: 144 points,
1440 work units.  One pass regenerates the four figure series the way the
CLI does, one ``run_series`` call each on 2 pool workers, with no result
cache.  (A single call over all 144 points puts the 160 Fig. 6 units in
one chunk; its pass time then swings by a quarter with scheduling luck.)
The workload seed shifts every trace factory's seed offset, so each seed
regenerates the figures from different traces.

End-to-end, per run:
  ops_per_s        work units per second, median over 2-worker passes
  p50/tail light   per-point compute time of Fig. 7 points (10 units each)
  p50/tail heavy   per-point compute time of Fig. 6 points (10 units each)
Per-point times are the engine's own per-unit wall clocks summed over the
point's seeds (``ComparisonPoint.wall_ms``), pooled over the passes.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from typing import Dict, List, Tuple

import measure
from layers import Tracer

WORKERS = 2
#: Seed-offset shift per workload seed; far above any figure's own offset.
SEED_SHIFT = 100_003

LAYERS = (
    "workloads.trace_s",
    "sim.prepare_s",
    "sim.sdem_s",
    "sim.baseline_s",
    "core.online_solve_s",
    "core.online_solve_calls",
    "schedule.validate_s",
    "energy.account_s",
    "parallel.busy_frac",
    "parallel.overhead_s",
    "trace.wall_s",
    "trace.overhead_frac",
    "residual_s",
)

SETUP_CODE = (
    "import repro.experiments.fig6, repro.experiments.fig7, "
    "repro.experiments.parallel\n"
    "from repro.core import vectorized\n"
    "vectorized.get_backend()\n"
)


def figure_specs(seed: int):
    """The four figure series as ``(name, specs, heavy)``, re-seeded."""
    from repro.experiments import config
    from repro.experiments.fig6 import fig6_specs
    from repro.experiments.fig7 import fig7_grid_specs

    fig6_fft, fig6_matmul = fig6_specs("fft"), fig6_specs("matmul")
    fig7a = fig7_grid_specs(
        [(a, config.DEFAULT_XI_M_MS) for a in config.ALPHA_M_SWEEP_MW],
        config.X_SWEEP_MS,
        trace_length=config.DEFAULT_TRACE_LENGTH,
    )
    fig7b = fig7_grid_specs(
        [(config.DEFAULT_ALPHA_M_MW, xi) for xi in config.XI_M_SWEEP_MS],
        config.X_SWEEP_MS,
        trace_length=config.DEFAULT_TRACE_LENGTH,
    )

    def reseeded(specs):
        out = []
        for spec in specs:
            factory = spec.trace_factory
            shifted = dataclasses.replace(
                factory, seed_offset=factory.seed_offset + SEED_SHIFT * seed
            )
            out.append(dataclasses.replace(spec, trace_factory=shifted))
        return out

    return [
        ("fig6-fft", reseeded(fig6_fft), True),
        ("fig6-matmul", reseeded(fig6_matmul), True),
        ("fig7a", reseeded(fig7a), False),
        ("fig7b", reseeded(fig7b), False),
    ]


def one_pass(figures, workers: int) -> Tuple[float, list]:
    """Wall seconds and the ``SeriesResult`` of every figure series."""
    from repro.experiments.config import DEFAULT_SEEDS
    from repro.experiments.parallel import run_series

    start = time.perf_counter()
    results = [
        run_series(name, specs, seeds=DEFAULT_SEEDS, max_workers=workers)
        for name, specs, _ in figures
    ]
    return time.perf_counter() - start, results


def _units(figures) -> int:
    from repro.experiments.config import DEFAULT_SEEDS

    return sum(len(specs) for _, specs, _ in figures) * DEFAULT_SEEDS


def _rows(results) -> list:
    return [series.rows() for series in results]


def run_e2e(ctx) -> Dict[str, object]:
    figures = figure_specs(ctx.seed)
    units = _units(figures)
    setup = measure.time_import(ctx.env, SETUP_CODE, ctx.setup_reps)
    rates: List[float] = []
    light_ms: List[float] = []
    heavy_ms: List[float] = []
    rows = []
    attempted = failed = 0
    with measure.PeakRss(ctx.pid) as rss:
        started = time.perf_counter()
        while not attempted or time.perf_counter() - started < ctx.seconds:
            attempted += units
            try:
                wall, results = one_pass(figures, WORKERS)
            except Exception:  # counted, reported, and the run goes on
                failed += units
                ctx.note("pass failed:\n" + traceback.format_exc())
                continue
            rates.append(units / wall)
            rows.append(_rows(results))
            for (_, _, is_heavy), series in zip(figures, results):
                (heavy_ms if is_heavy else light_ms).extend(p.wall_ms for p in series.points)
        # Correctness: every timed pass must reproduce the serial rows.
        _, reference = one_pass(figures, 1)
    if not rates:
        raise RuntimeError("every 2-worker pass failed")
    expected = _rows(reference)
    mismatched = sum(pass_rows != expected for pass_rows in rows)
    attempted += len(rows)
    failed += mismatched
    if mismatched:
        ctx.note(f"{mismatched} 2-worker passes differ from the serial rows")
    light_q, light_tail = measure.tail(light_ms)
    heavy_q, heavy_tail = measure.tail(heavy_ms)
    ctx.note(
        f"{len(rates)} passes of {units} units; per-pass units/s "
        f"{[round(r, 1) for r in rates]}; light tail p{100 * light_q:.2f} of "
        f"{len(light_ms)}, heavy tail p{100 * heavy_q:.2f} of {len(heavy_ms)}"
    )
    return {
        "correct": not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": measure.median(setup),
            "ops_per_s": measure.median(rates),
            "p50_ms.light": measure.median(light_ms),
            "tail_ms.light": light_tail,
            "p50_ms.heavy": measure.median(heavy_ms),
            "tail_ms.heavy": heavy_tail,
            "peak_rss_mb": rss.mb,
        },
    }


def _install(tracer: Tracer) -> None:
    from repro.core import online
    from repro.core.online import SdemOnlinePolicy
    from repro.experiments import parallel, runner

    tracer.wrap(parallel, "dspstone_trace", "workloads.trace_s")
    tracer.wrap(parallel, "synthetic_tasks", "workloads.trace_s")
    tracer.wrap(runner, "prepare_trace", "sim.prepare_s")
    tracer.wrap(
        runner,
        "simulate_segments",
        "",
        name_of=lambda policy, *a, **k: (
            "sim.sdem_s" if isinstance(policy, SdemOnlinePolicy) else "sim.baseline_s"
        ),
    )
    for name in (
        "solve_common_release",
        "solve_common_release_with_overhead",
        "solve_common_release_fptas",
    ):
        tracer.wrap(online, name, "core.online_solve_s")
    tracer.wrap(runner, "validate_segments", "schedule.validate_s")
    tracer.wrap(runner, "account_segments", "energy.account_s")


def run_traced(ctx) -> Dict[str, object]:
    figures = figure_specs(ctx.seed)
    units = _units(figures)
    wall_pool, pooled = one_pass(figures, WORKERS)
    busy_s = sum(p.wall_ms for series in pooled for p in series.points) / 1000.0
    wall_serial, _ = one_pass(figures, 1)
    tracer = Tracer()
    _install(tracer)
    try:
        wall_traced, traced = one_pass(figures, 1)
    finally:
        tracer.restore()
    correct = _rows(traced) == _rows(pooled)
    if not correct:
        ctx.note("traced serial rows differ from the 2-worker rows")
    layer_names = (
        "workloads.trace_s", "sim.prepare_s", "sim.sdem_s", "sim.baseline_s",
        "core.online_solve_s", "schedule.validate_s", "energy.account_s",
    )
    layers = {name: tracer.seconds.get(name, 0.0) for name in layer_names}
    ctx.note(
        f"2-worker pass {wall_pool:.3f}s, serial {wall_serial:.3f}s, "
        f"traced serial {wall_traced:.3f}s"
    )
    metrics = dict(layers)
    metrics.update(
        {
            "core.online_solve_calls": tracer.calls["core.online_solve_s"],
            "parallel.busy_frac": busy_s / (WORKERS * wall_pool),
            "parallel.overhead_s": wall_pool - busy_s / WORKERS,
            "trace.wall_s": wall_traced,
            "trace.overhead_frac": wall_traced / wall_serial - 1.0,
            "residual_s": measure.layer_residual(wall_traced, layers),
        }
    )
    return {"correct": correct, "attempted": 3 * units + 1, "failed": int(not correct),
            "metrics": metrics}
