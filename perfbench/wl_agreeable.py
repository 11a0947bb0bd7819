"""``agreeable``: offline Section 5 solves under the default numeric backend.

Light operations are exact ``solve_agreeable`` solves of seeded
``agreeable_trace`` instances, n in {8, 16, 32}, on the paper platform
(xi_m = 40 ms, x = 400 ms: the Table 4 defaults).  They run in rounds of
one instance per size for the run's seconds (at least MIN_ROUNDS).  The heavy
operation is one ``solve_agreeable_fptas_columns`` solve at n = 10^4,
eps = 0.1, on ``experiment_platform(xi_m=0)`` (the huge-n bench trace).

End-to-end, per run:
  ops_per_s        exact solves per second, median over rounds
  p50/tail light   wall time of the n = 16 exact solves (a run holds too
                   few to resolve a tail, so the tail reads as the median;
                   a median over all sizes would flip between the n = 16
                   and n = 32 times from run to run)
  p50/tail heavy   wall time of the n = 10^4 FPTAS solve (one sample)

Checks: every exact schedule passes ``validate_schedule``, and an FPTAS
solve of every exact instance stays within (1 + eps) of its energy.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import measure
from layers import Tracer

SIZES = (8, 16, 32)
#: The size whose solve time stands for one light operation.
LIGHT_N = 16
EXACT_X_MS = 400.0
FPTAS_N = 10_000
FPTAS_X_MS = 120.0
EPSILON = 0.1
#: The exact phase always solves at least this many rounds.
MIN_ROUNDS = 3
#: Rounds solved by each pass of a traced run.
TRACED_ROUNDS = 3

LAYERS = (
    "workloads.trace_s",
    "core.agreeable_dp_s",
    "core.block_solve_s",
    "core.block_solve_calls",
    "core.block_energy_evals",
    "utils.golden_batch_s",
    "core.block_memo_hit_ratio",
    "core.fptas_s",
    "core.fptas_blocks",
    "trace.wall_s",
    "trace.overhead_frac",
    "residual_s",
)

SETUP_CODE = (
    "import repro.core.agreeable, repro.core.fptas, repro.workloads.synthetic\n"
    "from repro.core import vectorized\n"
    "vectorized.get_backend()\n"
)


def instance_seed(seed: int, n: int, index: int) -> int:
    return (seed * 1_000 + index) * 64 + n


def exact_instance(seed: int, n: int, index: int, span=None):
    from repro.models.task import Task, TaskSet
    from repro.workloads.synthetic import agreeable_trace

    call = span or (lambda name, fn, *a, **k: fn(*a, **k))
    releases, deadlines, workloads = call(
        "workloads.trace_s",
        agreeable_trace,
        n=n,
        max_interarrival=EXACT_X_MS,
        seed=instance_seed(seed, n, index),
    )
    return call(
        "workloads.trace_s",
        lambda: TaskSet(
            [
                Task(r, d, w, f"A{i}")
                for i, (r, d, w) in enumerate(zip(releases, deadlines, workloads))
            ]
        ),
    )


def fptas_columns(seed: int):
    from repro.workloads.synthetic import agreeable_trace

    return agreeable_trace(n=FPTAS_N, max_interarrival=FPTAS_X_MS, seed=seed)


def _warm_up() -> None:
    """Run every solver once on inputs no timed pass uses."""
    from repro.core.agreeable import solve_agreeable
    from repro.core.fptas import solve_agreeable_fptas_columns
    from repro.experiments.config import experiment_platform

    tasks = exact_instance(-1, 4, 0)
    solve_agreeable(tasks, experiment_platform())
    releases, deadlines, workloads = fptas_columns(-1)
    solve_agreeable_fptas_columns(
        releases[:50], deadlines[:50], workloads[:50],
        experiment_platform(xi_m=0.0), epsilon=EPSILON,
    )


def solve_exact_rounds(seed: int, rounds, span=None) -> List[Tuple[object, object, float]]:
    """``(tasks, solution, wall_s)`` per exact solve, one round per size set.

    ``rounds`` is a count or a predicate ``more(done_rounds) -> bool``.
    """
    from repro.core.agreeable import solve_agreeable
    from repro.experiments.config import experiment_platform

    platform = experiment_platform()
    more = rounds if callable(rounds) else (lambda done: done < rounds)
    out = []
    done = 0
    while more(done):
        for n in SIZES:
            tasks = exact_instance(seed, n, done, span)
            start = time.perf_counter()
            if span is None:
                solution = solve_agreeable(tasks, platform)
            else:
                solution = span("core.agreeable_dp_s", solve_agreeable, tasks, platform)
            out.append((tasks, solution, time.perf_counter() - start))
        done += 1
    return out


def solve_fptas(seed: int, span=None) -> Tuple[Dict[str, object], float]:
    from repro.core.fptas import solve_agreeable_fptas_columns
    from repro.experiments.config import experiment_platform

    platform = experiment_platform(xi_m=0.0)
    if span is None:
        releases, deadlines, workloads = fptas_columns(seed)
    else:
        releases, deadlines, workloads = span("workloads.trace_s", fptas_columns, seed)
    start = time.perf_counter()
    if span is None:
        result = solve_agreeable_fptas_columns(
            releases, deadlines, workloads, platform, epsilon=EPSILON
        )
    else:
        result = span(
            "core.fptas_s", solve_agreeable_fptas_columns,
            releases, deadlines, workloads, platform, epsilon=EPSILON,
        )
    return result, time.perf_counter() - start


def check(solves, ctx) -> int:
    """Failed checks over the exact solves (two checks per solve)."""
    from repro.core.fptas import solve_agreeable_fptas
    from repro.experiments.config import experiment_platform
    from repro.schedule.validation import FeasibilityError, validate_schedule

    platform = experiment_platform()
    failed = 0
    for tasks, solution, _ in solves:
        try:
            validate_schedule(solution.schedule(), tasks, max_speed=platform.core.s_up)
        except FeasibilityError as exc:
            failed += 1
            ctx.note(f"exact schedule infeasible (n={len(tasks)}): {exc}")
        approx = solve_agreeable_fptas(tasks, platform, epsilon=EPSILON)
        if approx.predicted_energy > (1.0 + EPSILON) * solution.predicted_energy:
            failed += 1
            ctx.note(
                f"fptas energy {approx.predicted_energy!r} exceeds (1+eps) x exact "
                f"{solution.predicted_energy!r} (n={len(tasks)})"
            )
    return failed


def run_e2e(ctx) -> Dict[str, object]:
    setup = measure.time_import(ctx.env, SETUP_CODE, ctx.setup_reps)
    with measure.PeakRss(ctx.pid) as rss:
        _warm_up()
        fptas, fptas_s = solve_fptas(ctx.seed)
        started = time.perf_counter()
        solves = solve_exact_rounds(
            ctx.seed,
            lambda done: done < MIN_ROUNDS or time.perf_counter() - started < ctx.seconds,
        )
    walls_ms = [wall * 1000.0 for _, _, wall in solves]
    light_ms = [wall * 1000.0 for tasks, _, wall in solves if len(tasks) == LIGHT_N]
    # One round solves one instance of every size; rounds are alike, so
    # the median round rate shrugs off a round the host slowed down.
    round_rates = [
        len(SIZES) * 1000.0 / sum(walls_ms[i:i + len(SIZES)])
        for i in range(0, len(walls_ms), len(SIZES))
    ]
    failed = check(solves, ctx)
    attempted = 1 + len(solves) + 2 * len(solves)
    q, light_tail = measure.tail(light_ms)
    ctx.note(
        f"{len(solves)} exact solves in {sum(walls_ms) / 1000.0:.3f}s, round "
        f"solves/s {[round(r, 3) for r in round_rates]} (tail p{100 * q:.0f}); "
        f"fptas n={FPTAS_N} in {fptas_s:.3f}s, {fptas['num_blocks']} blocks, "
        f"energy {fptas['energy']:.6g}"
    )
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": measure.median(setup),
            "ops_per_s": measure.median(round_rates),
            "p50_ms.light": measure.median(light_ms),
            "tail_ms.light": light_tail,
            "p50_ms.heavy": fptas_s * 1000.0,
            "tail_ms.heavy": fptas_s * 1000.0,
            "peak_rss_mb": rss.mb,
        },
    }


def _traced_pass(ctx, span) -> Tuple[float, list, Dict[str, object]]:
    from repro.core import blocks, vectorized

    blocks.block_energy_cache_clear()
    vectorized.block_arrays_cache_clear()
    start = time.perf_counter()
    fptas, _ = solve_fptas(ctx.seed, span)
    solves = solve_exact_rounds(ctx.seed, TRACED_ROUNDS, span)
    return time.perf_counter() - start, solves, fptas


def _energy_evals(counts: Dict[str, int]) -> int:
    """Block-energy evaluations: scalar calls plus batched golden searches
    (the numpy backend prices blocks only through the latter)."""
    return counts.get("block_energy", 0) + counts.get("golden_section_batch", 0)


def run_traced(ctx) -> Dict[str, object]:
    from repro.core import agreeable, blocks
    from repro.utils.solvers import solver_call_counts

    _warm_up()
    wall_plain, plain, _ = _traced_pass(ctx, None)
    tracer = Tracer()
    tracer.wrap(agreeable, "solve_block", "core.block_solve_s")
    tracer.wrap(blocks, "golden_section_minimize_batch", "utils.golden_batch_s")
    evals_before = _energy_evals(solver_call_counts())
    try:
        wall_traced, traced, fptas = _traced_pass(ctx, tracer.span)
    finally:
        tracer.restore()
    memo = blocks.block_energy_cache_info()
    evals = _energy_evals(solver_call_counts()) - evals_before
    failed = check(traced, ctx)
    for (_, a, _), (_, b, _) in zip(plain, traced):
        if a.predicted_energy != b.predicted_energy:
            failed += 1
            ctx.note("traced and untraced exact energies differ")
    hits = memo["energy_hits"] + memo["solution_hits"]
    lookups = hits + memo["energy_misses"] + memo["solution_misses"]
    layer_names = (
        "workloads.trace_s", "core.agreeable_dp_s", "core.block_solve_s",
        "utils.golden_batch_s", "core.fptas_s",
    )
    layers = {name: tracer.seconds.get(name, 0.0) for name in layer_names}
    ctx.note(
        f"untraced pass {wall_plain:.3f}s, traced pass {wall_traced:.3f}s; "
        f"memo {memo}"
    )
    metrics = dict(layers)
    metrics.update(
        {
            "core.block_solve_calls": tracer.calls["core.block_solve_s"],
            "core.block_energy_evals": evals,
            "core.block_memo_hit_ratio": hits / lookups if lookups else 0.0,
            "core.fptas_blocks": fptas["num_blocks"],
            "trace.wall_s": wall_traced,
            "trace.overhead_frac": wall_traced / wall_plain - 1.0,
            "residual_s": measure.layer_residual(wall_traced, layers),
        }
    )
    attempted = 2 * (1 + len(traced)) + 3 * len(traced)
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": metrics}
