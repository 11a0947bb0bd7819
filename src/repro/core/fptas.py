"""ε-approximate solver tier (FPTAS mode, ``--solver exact|fptas``).

The exact DPs (Sections 5 and 7) price O(n^2) blocks with a continuous
2-D minimization inside each, which caps task sets at tens of tasks no
matter how fast each inner loop gets.  Following the discretization
strategy of *A Fully Polynomial-Time Approximation Scheme for Speed
Scaling with Sleep State* (Antoniadis, Huang, Ott — arXiv:1407.0892),
this module trades an ε-bounded energy increase for a huge-n runtime:
every continuous quantity the exact solvers optimize over is snapped to
a geometric grid keyed on ε, and the DP compares *rounded* states while
reporting the true (unrounded) energy of the partition it picks.

With ``delta = epsilon / 4`` the two approximation sources compose as

* **endpoint grids** — a multi-task block's busy interval ``[s, e]`` is
  chosen from uniform grids anchored outward at the block's first
  release / last deadline with pitch ``delta * L_min`` (``L_min`` = the
  block's minimum feasible busy length).  Rounding the optimum's start
  down and end up only *widens* every task window (execution energy is
  non-increasing in window width), and costs at most ``alpha_m * 2 *
  pitch <= 2 * delta * E*`` extra memory-awake energy because any
  feasible block pays at least ``alpha_m * L_min``;
* **energy ladder** — the prefix DP compares block prices rounded up
  onto the ladder ``(1 + delta) ** k``, inflating any partition's
  comparison value by at most ``(1 + delta)``.

Combined: ``(1 + 2*delta) * (1 + delta) <= 1 + epsilon`` for
``epsilon <= 2``.  The common-release tier instead lays a geometric
ladder over the memory busy *length* and evaluates the exact Section 7
objective (:func:`repro.core.transition.overhead_energy_at_delta`,
which degenerates to the Section 4 objective when the break-even times
are zero) at every rung: stretching the optimal busy length ``L*`` to
``rho * L*`` with ``rho <= 1 + delta`` scales the static/memory terms
by at most ``rho`` and decreases everything else.

Cluster decomposition keeps the huge-n path near-linear: the agreeable
DP is split *exactly* (no approximation) at feasibility gaps where
splitting is provably dominant — every positive gap when sleeping is
free, gaps of at least ``xi_m`` under the Section 7 per-block overhead,
and every index when ``alpha_m = 0`` (no memory coupling, the per-task
closed form is optimal).  On sporadic traces cluster sizes are bounded,
so :func:`solve_agreeable_fptas_columns` — which never materializes
per-task ``Task`` objects — runs the O(m^2) DP only inside small
clusters and handles n in the 10^3–10^5 range.

Block pricing is the cost of a huge-n solve.  One span pricer
(:func:`_price_spans`) serves both agreeable entry points: it groups the
trace's multi-task spans by width, and under the numpy backend (which the
jit backend rides) prices each width group of at least
:data:`_BATCH_MIN_SPANS` spans in lockstep batches (:func:`_price_rows`
over :func:`repro.core.vectorized.fptas_block_energy_rows`).  Every other
span takes the scalar per-block pricer (:func:`_price_block_discrete`
over :func:`_columns_block_pricer`), the reference the batched path
reproduces float for float, so energies do not depend on the backend.

The tier and ε are fields of the active
:class:`~repro.core.solve_config.SolveConfig` (:func:`get_solver_tier`,
:func:`get_solver_epsilon`), like the numeric backend: an entry point
scopes one with :func:`repro.core.solve_config.using`, and outside every
scope ``REPRO_SOLVER_TIER`` / ``REPRO_SOLVER_EPSILON`` select them.  Cache
keys are derived from the config, so exact and fptas results can never
alias.
"""

from __future__ import annotations

import math
from array import array
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core import vectorized
from repro.core.agreeable import AgreeableSolution
from repro.core.blocks import BlockSolution, TaskPlacement
from repro.core.common_release import CommonReleaseSolution
from repro.core.solve_config import (
    DEFAULT_EPSILON,
    SOLVER_TIERS,
    check_epsilon,
    current,
)
from repro.core.transition import _schedule_geometry, overhead_energy_at_delta
from repro.models.platform import Platform
from repro.models.task import Task, TaskSet
from repro.units import MS, SCALAR, UJ, unit
from repro.utils.solvers import (
    golden_section_minimize,
    golden_section_minimize_batch,
    record_solver_call,
)

__all__ = [
    "DEFAULT_EPSILON",
    "SOLVER_TIERS",
    "get_solver_epsilon",
    "get_solver_tier",
    "solve_agreeable_fptas",
    "solve_agreeable_fptas_columns",
    "solve_common_release_fptas",
]

#: Grid prices at or above this are graded infeasibility penalties from
#: the block-energy evaluators (they start at ``vectorized._PENALTY``).
_INFEASIBLE_FLOOR = 1e29

#: Descent rounds (one line search per direction) before snapping onto
#: the ε-grid.
_DESCENT_ROUNDS = 3

#: Under the numpy backend, a block width with at least this many spans
#: across the trace is priced in lockstep batches; smaller groups keep the
#: per-block scalar pricer.  A batched group pays a fixed 20-45 ms of
#: lockstep overhead, which ties the scalar pricer at about 64 width-2
#: spans (both give the same floats, so the split is free to move).
_BATCH_MIN_SPANS = 64

#: Most blocks, and most block tasks (blocks x width), one lockstep batch
#: prices; larger width groups are split into even chunks.  The first
#: bounds the per-block search state, the second the batch's task stack;
#: together they keep an n = 10^4 solve's process peak resident memory
#: within about 1.5 MB of the scalar pricer's.
_BATCH_MAX_ROWS = 1024
_BATCH_MAX_TASKS = 4096

# ---------------------------------------------------------------------------
# The active tier (read from the scoped repro.core.solve_config.SolveConfig)
# ---------------------------------------------------------------------------


def get_solver_tier() -> str:
    """The active config's solver tier."""
    return current().tier


@unit(SCALAR)
def get_solver_epsilon() -> float:
    """The active config's ε."""
    return current().epsilon


# ---------------------------------------------------------------------------
# Discretization geometry
# ---------------------------------------------------------------------------


@unit(SCALAR)
def _rounding_delta(epsilon: float) -> float:
    """``delta = epsilon / 4``: grid (1+2δ) times ladder (1+δ) ≤ 1+ε."""
    return 0.25 * epsilon


@unit(MS)
def _grid_step(epsilon: float, min_busy_ms: float) -> float:
    """Endpoint-grid pitch: δ times the block's minimum busy length."""
    step = _rounding_delta(epsilon) * min_busy_ms
    return max(step, 1e-9)


@unit(UJ)
def _round_energy_up(energy: float, delta: float) -> float:
    """Round an energy up onto the geometric ladder ``(1 + delta) ** k``."""
    if energy <= 0.0 or not math.isfinite(energy):
        return energy
    k = math.ceil(math.log(energy) / math.log1p(delta))
    rounded = (1.0 + delta) ** k
    while rounded < energy:  # guard against log/pow rounding dust
        k += 1
        rounded = (1.0 + delta) ** k
    return rounded


@unit(MS)
def _busy_ladder(min_length: float, horizon: float, delta: float) -> List[float]:
    """Geometric busy-length candidates covering ``[min_length, horizon]``.

    For any optimal busy length ``L*`` in that range the ladder contains a
    rung ``L`` with ``L* <= L <= (1 + delta) * L*`` (clamped to the
    horizon), which is all the (1+δ) scaling argument needs.
    """
    floor = max(min_length, horizon * 1e-9)
    lengths = [floor]
    if horizon > floor:
        ratio = 1.0 + delta
        value = floor * ratio
        while value < horizon:
            lengths.append(value)
            value *= ratio
        lengths.append(horizon)
    return lengths


# ---------------------------------------------------------------------------
# Block pricing on the endpoint grids
# ---------------------------------------------------------------------------


#: Line-search directions of one descent round, as ``(d_start, d_end)``:
#: the two axes, then the translation and the symmetric stretch.  The
#: diagonals escape the window-clip kinks where a block edge sits on a
#: task's release or deadline; there, moving either endpoint alone costs
#: energy while moving both together saves it, so axis-only descent
#: stalls well above the optimum (by over 2% on alpha = 0 platforms).
_DESCENT_DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 1.0))


def _line_search(
    evaluate: Callable[[float, float], float],
    s: float,
    e: float,
    f: float,
    ds: float,
    de: float,
    s_bounds: Tuple[float, float],
    e_bounds: Tuple[float, float],
    tol: float,
) -> Tuple[float, float, float]:
    """Golden-section step from ``(s, e)`` along ``(ds, de)`` in the box.

    ``f`` is the objective at ``(s, e)``; the point moves only when the
    line minimum beats it.
    """
    t_lo, t_hi = -math.inf, math.inf
    for (lo, hi), v, dv in ((s_bounds, s, ds), (e_bounds, e, de)):
        if dv > 0.0:
            t_lo = max(t_lo, (lo - v) / dv)
            t_hi = min(t_hi, (hi - v) / dv)
        elif dv < 0.0:
            t_lo = max(t_lo, (hi - v) / dv)
            t_hi = min(t_hi, (lo - v) / dv)
    if t_hi <= t_lo:
        return s, e, f
    t, value = golden_section_minimize(
        lambda x: evaluate(s + x * ds, e + x * de), t_lo, t_hi, tol=tol
    )
    if value < f:
        return s + t * ds, e + t * de, value
    return s, e, f


def _price_block_discrete(
    evaluate: Callable[[float, float], float],
    start_lo: float,
    end_hi: float,
    step: float,
    *,
    start_hi: Optional[float] = None,
    end_lo: Optional[float] = None,
) -> Optional[Tuple[float, float, float]]:
    """Minimize a block objective over the outward-anchored endpoint grids.

    Starts ascend from ``start_lo`` (the block's first release) and ends
    descend from ``end_hi`` (its last deadline) in multiples of ``step``.
    The landscape is the same one the exact tier minimizes with 2-D
    convex descent (``blocks._solve_block_descent``), so the continuous
    minimum is located the same way — golden-section line searches along
    both axes and both diagonals — and then snapped *outward* onto the
    grid (start down, end up: windows only widen).  An outward-biased
    neighborhood around the snap absorbs descent landing within a pitch
    of the true optimum, so
    the evaluated set always contains the outward-rounded grid point the
    (1 + 2δ) bound argues about.

    Returns ``(energy, start, end)`` or ``None`` when every candidate is
    an infeasibility penalty.  ``start_hi`` / ``end_lo`` optionally
    tighten the per-axis line-search intervals the way the exact descent
    does (the block must start by its first task's deadline and end after
    its last task's release); the *grids* keep their full anchors so the
    snap geometry is unchanged.
    """
    span = end_hi - start_lo
    if span <= 0.0:
        return None
    # The grid is never enumerated (only a 4x4 neighborhood of the
    # descent's snap is priced), so its size costs nothing and the pitch
    # is never widened: a wider pitch would break the 2·δ·E* snap bound.
    count = int(math.ceil(span / step))
    top = count - 1 if count > 1 else 0
    s_box = end_hi if start_hi is None else min(max(start_hi, start_lo), end_hi)
    e_box = start_lo if end_lo is None else min(max(end_lo, start_lo), end_hi)

    # Descent error up to one pitch keeps the outward snap's -2..+1
    # neighborhood covering the true optimum's outward-rounded grid point.
    tol = max(step, 1e-12)
    s_cur, e_cur = start_lo, end_hi
    f_cur = evaluate(s_cur, e_cur)
    for _ in range(_DESCENT_ROUNDS):
        f_before = f_cur
        for ds, de in _DESCENT_DIRECTIONS:
            s_cur, e_cur, f_cur = _line_search(
                evaluate, s_cur, e_cur, f_cur, ds, de,
                (start_lo, s_box), (e_box, end_hi), tol,
            )
        if f_before - f_cur <= 1e-12 * max(abs(f_before), 1.0):
            break

    best_value = math.inf
    best_i = 0
    best_j = 0
    seen: Dict[Tuple[int, int], float] = {}
    i0 = int((s_cur - start_lo) / step)
    j0 = int((end_hi - e_cur) / step)
    for di in (-2, -1, 0, 1):
        for dj in (-2, -1, 0, 1):
            i = min(max(i0 + di, 0), top)
            j = min(max(j0 + dj, 0), top)
            if (i, j) in seen:
                continue
            value = evaluate(start_lo + i * step, end_hi - j * step)
            seen[(i, j)] = value
            if value < best_value:
                best_value = value
                best_i, best_j = i, j
    if (0, 0) not in seen:
        # The widest corner is feasible whenever any endpoint choice is.
        value = evaluate(start_lo, end_hi)
        if value < best_value:
            best_value = value
            best_i, best_j = 0, 0
    if best_value >= _INFEASIBLE_FLOOR:
        return None
    return best_value, start_lo + best_i * step, end_hi - best_j * step


def _line_search_rows(
    evaluate: Callable[..., "vectorized.np.ndarray"],
    rows: "vectorized.np.ndarray",
    s: "vectorized.np.ndarray",
    e: "vectorized.np.ndarray",
    f: "vectorized.np.ndarray",
    ds: float,
    de: float,
    s_bounds: Tuple["vectorized.np.ndarray", "vectorized.np.ndarray"],
    e_bounds: Tuple["vectorized.np.ndarray", "vectorized.np.ndarray"],
    tol: "vectorized.np.ndarray",
) -> None:
    """:func:`_line_search` for the blocks ``rows``, moving ``s, e, f`` in place.

    Every per-block array is indexed by block; ``evaluate(rows, s, e)``
    prices blocks ``rows`` at ``[s, e]``.
    """
    np = vectorized.np
    t_lo = np.full(rows.shape[0], -math.inf)
    t_hi = np.full(rows.shape[0], math.inf)
    for (lo, hi), v, dv in ((s_bounds, s, ds), (e_bounds, e, de)):
        if dv == 0.0:
            continue
        if dv < 0.0:
            lo, hi = hi, lo
        from_lo = (lo[rows] - v[rows]) / dv
        from_hi = (hi[rows] - v[rows]) / dv
        # Python's max(t_lo, x) / min(t_hi, x): the running bound wins ties.
        t_lo = np.where(from_lo > t_lo, from_lo, t_lo)
        t_hi = np.where(from_hi < t_hi, from_hi, t_hi)
    search = ~(t_hi <= t_lo)
    rows = rows[search]
    if rows.shape[0] == 0:
        return
    s0, e0 = s[rows], e[rows]
    t, value = golden_section_minimize_batch(
        lambda x, idx: evaluate(rows[idx], s0[idx] + x * ds, e0[idx] + x * de),
        t_lo[search],
        t_hi[search],
        tol=tol[rows],
    )
    moved = value < f[rows]
    s[rows[moved]] = s0[moved] + t[moved] * ds
    e[rows[moved]] = e0[moved] + t[moved] * de
    f[rows[moved]] = value[moved]


def _price_rows(
    stack: "vectorized.FptasRows", platform: Platform, epsilon: float
) -> Tuple["vectorized.np.ndarray", "vectorized.np.ndarray", "vectorized.np.ndarray"]:
    """:func:`_price_block_discrete` for every block of a same-width stack.

    Runs the blocks' descents in lockstep -- each golden-section step and
    each grid candidate is one :func:`vectorized.fptas_block_energy_rows`
    call for every block still searching -- and returns per-block
    ``(energy, start, end)`` arrays, with ``energy = inf`` where the
    scalar pricer returns ``None``.  Each block takes exactly the scalar
    path's steps (the same line searches, early exit, snap neighborhood
    and corner), so the floats are the scalar pricer's.
    """
    np = vectorized.np

    def evaluate(owners, starts, ends):
        return vectorized.fptas_block_energy_rows(stack, platform, owners, starts, ends)

    start_lo = stack.releases[0]
    end_hi = stack.deadlines[-1]
    step = np.maximum(
        _rounding_delta(epsilon) * (stack.workloads.max(axis=0) / platform.core.s_up),
        1e-9,
    )
    span = end_hi - start_lo
    count = np.ceil(span / step)
    top = np.where(count > 1, count - 1, 0.0)
    s_box = np.minimum(np.maximum(stack.deadlines[0], start_lo), end_hi)
    e_box = np.minimum(np.maximum(stack.releases[-1], start_lo), end_hi)
    tol = np.maximum(step, 1e-12)

    rows = np.arange(start_lo.shape[0])
    s_cur, e_cur = start_lo.copy(), end_hi.copy()
    f_cur = evaluate(rows, s_cur, e_cur)
    active = rows
    for _ in range(_DESCENT_ROUNDS):
        f_before = f_cur[active]
        for ds, de in _DESCENT_DIRECTIONS:
            _line_search_rows(
                evaluate, active, s_cur, e_cur, f_cur, ds, de,
                (start_lo, s_box), (e_box, end_hi), tol,
            )
        stalled = f_before - f_cur[active] <= 1e-12 * np.maximum(np.abs(f_before), 1.0)
        active = active[~stalled]
        if active.shape[0] == 0:
            break

    # The scalar snap: its 4x4 neighborhood in visiting order, then the
    # (0, 0) corner, keeping each block's first strict minimum (a repeated
    # grid point repeats its value, so pricing it again changes nothing).
    i0 = np.trunc((s_cur - start_lo) / step)
    j0 = np.trunc((end_hi - e_cur) / step)
    best_value = np.full(rows.shape[0], math.inf)
    best_i = np.zeros(rows.shape[0])
    best_j = np.zeros(rows.shape[0])
    for di in (-2, -1, 0, 1):
        for dj in (-2, -1, 0, 1):
            i = np.minimum(np.maximum(i0 + di, 0.0), top)
            j = np.minimum(np.maximum(j0 + dj, 0.0), top)
            value = evaluate(rows, start_lo + i * step, end_hi - j * step)
            better = value < best_value
            best_value[better] = value[better]
            best_i[better] = i[better]
            best_j[better] = j[better]
    value = evaluate(rows, start_lo, end_hi)
    better = value < best_value
    best_value[better] = value[better]
    best_i[better] = 0.0
    best_j[better] = 0.0
    best_value[(best_value >= _INFEASIBLE_FLOOR) | (span <= 0.0)] = math.inf
    return best_value, start_lo + best_i * step, end_hi - best_j * step


# ---------------------------------------------------------------------------
# Cluster decomposition and the rounded-state prefix DP
# ---------------------------------------------------------------------------


def _split_indices(
    releases: Sequence[float],
    deadlines: Sequence[float],
    alpha_m: float,
    overhead: float,
    xi_m: float,
) -> List[int]:
    """Exact (dominance-based) cluster boundaries for the agreeable DP.

    * ``alpha_m = 0``: no memory coupling — per-task blocks are optimal,
      split at every index;
    * free sleeping (no per-block overhead): split at every feasibility
      gap, mirroring the exact DP's gap pruning (saves ``alpha_m * gap``);
    * positive overhead: split only at gaps of at least ``xi_m``, where
      the saved awake time always amortizes the extra sleep cycle.
    """
    n = len(releases)
    bounds = [0]
    for k in range(n - 1):
        gap = releases[k + 1] - deadlines[k]
        if alpha_m <= 0.0:
            split = True
        elif overhead <= 0.0:
            split = gap > 1e-9
        else:
            split = gap >= xi_m - 1e-9
        if split:
            bounds.append(k + 1)
    bounds.append(n)
    return bounds


def _span_slot(p: int, q: int) -> int:
    """Slot of the cluster-relative span ``[p, q)`` in its cluster's run.

    A cluster of ``m`` tasks owns ``_span_slot(0, m + 1) = m (m + 1) / 2``
    consecutive slots, ordered by ``q`` and then ``p`` -- the order in
    which the prefix DP reads them.
    """
    return q * (q - 1) // 2 + p


class _SpanPrices(NamedTuple):
    """Priced spans of every multi-task cluster, in flat float arrays.

    The ``k``-th multi-task cluster's spans follow those of the clusters
    before it (:func:`_span_slot` inside the run).  ``energy`` is ``inf``
    where the block is infeasible; ``start`` / ``end`` are the block's
    busy interval, meaningful for blocks of two or more tasks, and empty
    unless the caller asked for intervals.
    """

    energy: "array[float]"
    start: "array[float]"
    end: "array[float]"


def _cluster_partition(
    m: int, energies: "array[float]", base: int, overhead: float, delta: float
) -> List[Tuple[int, int, float]]:
    """Prefix DP over one cluster, comparing ladder-rounded block prices.

    The true energy of the block of cluster-relative tasks ``[p, q)`` is
    ``energies[base + _span_slot(p, q)]`` (``inf`` when infeasible).
    Returns the chosen blocks as ``(p, q, true_energy)`` in task order;
    the caller reports true energies, the rounding only coarsens DP
    comparisons.
    """
    best = [math.inf] * (m + 1)
    best[0] = 0.0
    choice: Dict[int, Tuple[int, float]] = {}
    for q in range(1, m + 1):
        row = base + _span_slot(0, q)
        for p in range(q):
            energy = energies[row + p]
            if energy == math.inf:
                continue
            cand = best[p] + _round_energy_up(energy + overhead, delta)
            if cand < best[q]:
                best[q] = cand
                choice[q] = (p, energy)
    if not math.isfinite(best[m]):
        raise ValueError("cluster DP found no feasible block partition")
    out: List[Tuple[int, int, float]] = []
    q = m
    while q > 0:
        p, energy = choice[q]
        out.append((p, q, energy))
        q = p
    out.reverse()
    return out


@unit(UJ)
def _singleton_energy(
    release: float, deadline: float, workload: float, platform: Platform
) -> float:
    """Closed-form single-task block energy (Section 5.2, one task).

    The optimal singleton block shrinks to exactly the execution at the
    clamped memory-associated critical speed ``s_1``; this is *exact*,
    so singleton-heavy traces lose nothing to the approximation.
    """
    core = platform.core
    alpha_m = platform.memory.alpha_m
    filled = workload / (deadline - release)
    speed = min(max(core.s_cm(alpha_m), filled), core.s_up)
    return alpha_m * (workload / speed) + core.execution_energy(workload, speed)


def _scalar_placements(
    members: Sequence[Task], platform: Platform, start: float, end: float
) -> Tuple[TaskPlacement, ...]:
    """Per-task placements at ``[start, end]``, scalar path only.

    Mirrors ``blocks._placements_at``'s reference branch; the fptas tier
    uses it on every backend so its schedules (like its prices) are
    backend-independent floats.
    """
    core = platform.core
    placements: List[TaskPlacement] = []
    for task in members:
        lo = max(task.release, start)
        hi = min(task.deadline, end)
        min_duration = task.workload / core.s_up
        window = max(hi - lo, min_duration)
        if core.alpha == 0.0:
            duration = window
        else:
            duration = min(max(task.workload / core.s0(task), min_duration), window)
        placements.append(
            TaskPlacement(task.name, lo, lo + duration, task.workload / duration)
        )
    return tuple(placements)


def _solve_singleton(task: Task, platform: Platform) -> BlockSolution:
    """Materialized :class:`BlockSolution` for the singleton closed form."""
    core = platform.core
    alpha_m = platform.memory.alpha_m
    speed = min(max(core.s_cm(alpha_m), task.filled_speed), core.s_up)
    duration = task.workload / speed
    start = task.release
    energy = _singleton_energy(task.release, task.deadline, task.workload, platform)
    placement = TaskPlacement(task.name, start, start + duration, speed)
    return BlockSolution(
        tasks=TaskSet.presorted((task,)),
        start=start,
        end=start + duration,
        energy=energy,
        placements=(placement,),
    )


# ---------------------------------------------------------------------------
# Agreeable fptas (object path)
# ---------------------------------------------------------------------------


def solve_agreeable_fptas(
    tasks: TaskSet,
    platform: Platform,
    *,
    epsilon: Optional[float] = None,
    include_transition_overhead: bool = False,
    check_inputs: bool = True,
) -> AgreeableSolution:
    """(1+ε)-approximate agreeable-deadline SDEM schedule.

    Drop-in sibling of :func:`repro.core.agreeable.solve_agreeable`
    returning the same :class:`AgreeableSolution` type, with
    ``predicted_energy <= (1 + epsilon)`` times the exact optimum and a
    feasible schedule (all placements inside task windows at or below
    ``s_up``).  ``epsilon`` defaults to the active tier ε
    (:func:`get_solver_epsilon`).
    """
    eps = get_solver_epsilon() if epsilon is None else check_epsilon(epsilon)
    if check_inputs:
        if not tasks.is_agreeable():
            raise ValueError("Section 5 schemes require agreeable deadlines")
        if not tasks.is_feasible_at(platform.core.s_up):
            raise ValueError("task set infeasible even at s_up")
    record_solver_call("solve_agreeable_fptas")
    memory = platform.memory
    overhead = memory.transition_energy() if include_transition_overhead else 0.0
    n = len(tasks)
    if n == 0:
        return AgreeableSolution(
            tasks=tasks, blocks=(), predicted_energy=0.0, block_overhead=overhead
        )
    releases = [t.release for t in tasks]
    deadlines = [t.deadline for t in tasks]
    workloads = [t.workload for t in tasks]
    bounds = _split_indices(releases, deadlines, memory.alpha_m, overhead, memory.xi_m)
    blocks: List[BlockSolution] = []
    total = 0.0
    # Only the chosen blocks are materialized; every other priced span
    # stays three floats in the span pricer's arrays.
    for lo, hi, energy, start, end in _partition_blocks(
        releases, deadlines, workloads, platform, bounds, eps, overhead, intervals=True
    ):
        if hi - lo > 1:
            subset = tasks.subset(lo, hi)
            blocks.append(
                BlockSolution(
                    tasks=subset,
                    start=start,
                    end=end,
                    energy=energy,
                    placements=_scalar_placements(subset.tasks, platform, start, end),
                )
            )
        else:
            blocks.append(_solve_singleton(tasks[lo], platform))
        total += energy + overhead
    return AgreeableSolution(
        tasks=tasks,
        blocks=tuple(blocks),
        predicted_energy=total,
        block_overhead=overhead,
    )


# ---------------------------------------------------------------------------
# Common-release fptas (Sections 4 and 7)
# ---------------------------------------------------------------------------


def solve_common_release_fptas(
    tasks: TaskSet,
    platform: Platform,
    *,
    epsilon: Optional[float] = None,
    horizon_end: Optional[float] = None,
    check_inputs: bool = True,
) -> CommonReleaseSolution:
    """(1+ε)-approximate common-release schedule (overhead-aware).

    Evaluates the exact Section 7 objective on a geometric ladder of
    memory busy lengths.  With zero break-even times every gap cost
    vanishes and the objective *is* the Section 4 one, so this single
    entry point approximates both ``solve_common_release`` and
    ``solve_common_release_with_overhead``.  Stretching the optimal busy
    length by ``rho <= 1 + delta`` scales the static (``alpha``,
    ``alpha_m``) terms by at most ``rho``, decreases dynamic energy, and
    never increases gap costs — hence the (1+ε) bound with room to
    spare.
    """
    eps = get_solver_epsilon() if epsilon is None else check_epsilon(epsilon)
    core = platform.core
    if check_inputs:
        if not tasks.has_common_release():
            raise ValueError("the common-release schemes require a common release")
        if not tasks.is_feasible_at(core.s_up):
            raise ValueError("task set infeasible even at s_up")
    record_solver_call("solve_common_release_fptas")
    delta_step = _rounding_delta(eps)
    release = tasks[0].release
    horizon, ends, _workloads, order = _schedule_geometry(tasks, platform)
    rel_end = (
        tasks.latest_deadline - release
        if horizon_end is None
        else horizon_end - release
    )
    if rel_end < horizon - 1e-9:
        raise ValueError(
            f"horizon_end {horizon_end} precedes the schedule end "
            f"{release + horizon}"
        )
    min_length = max(t.workload for t in tasks) / core.s_up
    best_energy = math.inf
    best_length = horizon
    for length in _busy_ladder(min_length, horizon, delta_step):
        energy = overhead_energy_at_delta(
            tasks, platform, horizon - length, horizon_end=horizon_end
        )
        if energy < best_energy - 1e-12:
            best_energy = energy
            best_length = length
    if not math.isfinite(best_energy):  # pragma: no cover - feasibility-guarded
        raise RuntimeError("no feasible busy length found")

    busy_end = best_length
    finish: Dict[str, float] = {}
    speeds: Dict[str, float] = {}
    for natural, task in zip(ends, order):
        end_rel = min(natural, busy_end)
        finish[task.name] = release + end_rel
        speeds[task.name] = task.workload / end_rel
    aligned_after = 0
    for natural in ends:
        if natural < busy_end - 1e-9:
            aligned_after += 1
    return CommonReleaseSolution(
        tasks=tasks,
        release=release,
        interval_end=release + horizon,
        delta=horizon - busy_end,
        case_index=min(len(ends), aligned_after + 1),
        finish_times=finish,
        speeds=speeds,
        predicted_energy=best_energy,
        alpha_zero=core.alpha == 0.0,
    )


# ---------------------------------------------------------------------------
# Huge-n columns path (no per-task Python objects)
# ---------------------------------------------------------------------------


def _columns_block_pricer(
    releases: Sequence[float],
    deadlines: Sequence[float],
    workloads: Sequence[float],
    platform: Platform,
) -> Callable[[int, int, float, float], float]:
    """Scalar block-energy evaluator over column slices ``[lo, hi)``.

    Returns ``block_energy(lo, hi, start, end)``, which mirrors
    ``repro.core.blocks._block_energy_scalar`` (same window clamps, same
    relative speed-cap tolerance) without constructing Task objects.  The
    per-task durations that do not depend on the block edges are computed
    once here, with the same arithmetic the evaluator used inline, so
    prices are the same floats.  This is the reference the batched
    pricer's :func:`repro.core.vectorized.fptas_block_energy_rows`
    reproduces.

    One deliberate difference from the object evaluator: the degenerate
    region ``end <= start`` is *not* special-cased to a flat ``_PENALTY *
    (1 + overlap)`` -- that grading sits below the adjacent
    window-violation penalties and forms a spurious local minimum exactly
    at ``end == start``, which a 1-D line search can lock onto.  Here the
    per-task violation loop prices the degenerate region too (every window
    shrinks through zero and keeps shrinking), so the penalty is
    continuous and monotone across the boundary and descent is always
    steered back toward the feasible valley.
    """
    core = platform.core
    s_up = core.s_up
    s_m = core.s_m
    alpha = core.alpha
    beta = core.beta
    lam = core.lam
    alpha_m = platform.memory.alpha_m
    min_durations = [w / s_up for w in workloads]
    slack_floors = [md * (1.0 - 1e-12) - 1e-12 for md in min_durations]
    # Longest useful duration: the task at its clamped critical speed
    # (with alpha = 0 slower is always cheaper, so the window is used).
    natural_durations = [
        max(w / min(max(s_m, w / (d - r)), s_up), md)
        for r, d, w, md in zip(releases, deadlines, workloads, min_durations)
    ]

    @unit(UJ)
    def block_energy(lo: int, hi: int, start: float, end: float) -> float:
        total = alpha_m * (end - start)
        violation = 0.0
        for i in range(lo, hi):
            release = releases[i]
            deadline = deadlines[i]
            w_lo = release if release > start else start
            w_hi = deadline if deadline < end else end
            window = w_hi - w_lo
            min_duration = min_durations[i]
            if window < slack_floors[i]:
                violation += min_duration - window
                continue
            if window < min_duration:
                window = min_duration
            if alpha == 0.0:
                duration = window
            else:
                natural = natural_durations[i]
                duration = natural if natural < window else window
            w = workloads[i]
            speed = w / duration
            total += (alpha + beta * speed ** lam) * w / speed
        if violation > 0.0:
            return vectorized._PENALTY * (1.0 + violation)
        return total

    return block_energy


def _price_spans(
    releases: Sequence[float],
    deadlines: Sequence[float],
    workloads: Sequence[float],
    platform: Platform,
    bounds: Sequence[int],
    epsilon: float,
    *,
    intervals: bool,
) -> _SpanPrices:
    """Price every span of every multi-task cluster of the trace.

    Singleton spans take the closed form.  Spans of two or more tasks are
    grouped by width across the whole trace; under the numpy backend
    (:func:`vectorized.use_numpy`, which the jit backend rides) a group of
    at least :data:`_BATCH_MIN_SPANS` spans is priced in lockstep batches
    (:func:`_price_rows`, at most :data:`_BATCH_MAX_ROWS` blocks and
    :data:`_BATCH_MAX_TASKS` tasks each), and every other span by the
    scalar :func:`_price_block_discrete` over :func:`_columns_block_pricer`.
    Both give the same floats, so the prices -- and the partition the DP
    picks from them -- do not depend on the backend.
    """
    energy: "array[float]" = array("d")
    groups: Dict[int, Tuple["array[int]", "array[int]"]] = {}
    for a, b in zip(bounds[:-1], bounds[1:]):
        m = b - a
        if m == 1:
            continue
        for q in range(1, m + 1):
            for p in range(q):
                lo = a + p
                if q - p > 1:
                    firsts, slots = groups.setdefault(q - p, (array("i"), array("i")))
                    firsts.append(lo)
                    slots.append(len(energy))
                    energy.append(math.inf)
                else:
                    energy.append(
                        _singleton_energy(
                            releases[lo], deadlines[lo], workloads[lo], platform
                        )
                    )
    start = array("d", [0.0]) * (len(energy) if intervals else 0)
    end = array("d", [0.0]) * (len(energy) if intervals else 0)
    columns = (energy, start, end) if intervals else (energy,)
    s_up = platform.core.s_up
    for width, (firsts, slots) in groups.items():
        if vectorized.use_numpy() and len(firsts) >= _BATCH_MIN_SPANS:
            np = vectorized.np
            first_rows = np.frombuffer(firsts, dtype=np.intc)
            slot_rows = np.frombuffer(slots, dtype=np.intc)
            chunks = -(-len(firsts) // min(_BATCH_MAX_ROWS, _BATCH_MAX_TASKS // width))
            size = -(-len(firsts) // chunks)
            for at in range(0, len(firsts), size):
                stack = vectorized.fptas_rows(
                    releases, deadlines, workloads, first_rows[at:at + size],
                    width, platform,
                )
                priced = _price_rows(stack, platform, epsilon)
                for column, values in zip(columns, priced):
                    np.frombuffer(column)[slot_rows[at:at + size]] = values
            continue
        for lo, slot in zip(firsts, slots):
            hi = lo + width
            # A pricer over the block's own slice keeps the edge-independent
            # columns O(width) instead of O(n) per solve.
            block_energy = _columns_block_pricer(
                releases[lo:hi], deadlines[lo:hi], workloads[lo:hi], platform
            )
            priced = _price_block_discrete(
                lambda s, e: block_energy(0, width, s, e),
                releases[lo],
                deadlines[hi - 1],
                _grid_step(epsilon, max(workloads[lo:hi]) / s_up),
                start_hi=deadlines[lo],
                end_lo=releases[hi - 1],
            )
            if priced is not None:
                for column, value in zip(columns, priced):
                    column[slot] = value
    return _SpanPrices(energy, start, end)


def _partition_blocks(
    releases: Sequence[float],
    deadlines: Sequence[float],
    workloads: Sequence[float],
    platform: Platform,
    bounds: Sequence[int],
    epsilon: float,
    overhead: float,
    *,
    intervals: bool,
) -> Iterator[Tuple[int, int, float, float, float]]:
    """The fptas partition's blocks as ``(lo, hi, energy, start, end)``.

    Blocks come in task order, cluster by cluster.  ``start`` / ``end``
    are the busy interval of a multi-task block when ``intervals`` is set
    and NaN otherwise; single-task blocks are placed by their closed form.
    """
    delta = _rounding_delta(epsilon)
    prices = _price_spans(
        releases, deadlines, workloads, platform, bounds, epsilon, intervals=intervals
    )
    base = 0
    for a, b in zip(bounds[:-1], bounds[1:]):
        m = b - a
        if m == 1:
            energy = _singleton_energy(releases[a], deadlines[a], workloads[a], platform)
            yield a, b, energy, math.nan, math.nan
            continue
        for p, q, energy in _cluster_partition(m, prices.energy, base, overhead, delta):
            if intervals and q - p > 1:
                slot = base + _span_slot(p, q)
                yield a + p, a + q, energy, prices.start[slot], prices.end[slot]
            else:
                yield a + p, a + q, energy, math.nan, math.nan
        base += _span_slot(0, m + 1)


def solve_agreeable_fptas_columns(
    releases: Sequence[float],
    deadlines: Sequence[float],
    workloads: Sequence[float],
    platform: Platform,
    *,
    epsilon: Optional[float] = None,
    include_transition_overhead: bool = False,
) -> Dict[str, object]:
    """Array-only agreeable fptas for huge n (10^3–10^5 tasks).

    Takes the trace as parallel columns of Python floats (as
    :func:`repro.workloads.synthetic.agreeable_trace` returns them) in
    agreeable order and returns a
    summary dict (``energy``, ``num_blocks``, ``clusters``,
    ``max_cluster_size``) without ever materializing per-task Python
    objects: singleton clusters — the vast majority on sporadic traces —
    take one closed-form evaluation each, and the O(m^2) grid-priced DP
    runs only inside multi-task clusters on index slices.  Both paths
    share one span pricer (:func:`_price_spans`), whose batched and
    scalar branches give the same floats, so energies are float-identical
    with :func:`solve_agreeable_fptas` on the same trace and independent
    of the numeric backend (the bench's huge-n slice checks both).
    """
    eps = get_solver_epsilon() if epsilon is None else check_epsilon(epsilon)
    n = len(releases)
    if len(deadlines) != n or len(workloads) != n:
        raise ValueError("releases, deadlines and workloads must align")
    core = platform.core
    memory = platform.memory
    overhead = memory.transition_energy() if include_transition_overhead else 0.0
    if n == 0:
        return {
            "n": 0,
            "epsilon": eps,
            "energy": 0.0,
            "num_blocks": 0,
            "clusters": 0,
            "max_cluster_size": 0,
        }
    record_solver_call("solve_agreeable_fptas_columns")
    cap = core.s_up * (1.0 + 1e-9)
    prev_release = -math.inf
    prev_deadline = -math.inf
    for i in range(n):
        span = deadlines[i] - releases[i]
        if workloads[i] <= 0.0:
            raise ValueError("workloads must be positive")
        if span <= 0.0 or workloads[i] / span > cap:
            raise ValueError("task set infeasible even at s_up")
        if releases[i] < prev_release - 1e-12 or deadlines[i] < prev_deadline - 1e-12:
            raise ValueError("columns must be agreeable (sorted releases/deadlines)")
        prev_release = releases[i]
        prev_deadline = deadlines[i]

    bounds = _split_indices(releases, deadlines, memory.alpha_m, overhead, memory.xi_m)
    total = 0.0
    num_blocks = 0
    for _lo, _hi, energy, _start, _end in _partition_blocks(
        releases, deadlines, workloads, platform, bounds, eps, overhead, intervals=False
    ):
        total += energy + overhead
        num_blocks += 1
    max_cluster = max(b - a for a, b in zip(bounds[:-1], bounds[1:]))
    return {
        "n": n,
        "epsilon": eps,
        "energy": total,
        "num_blocks": num_blocks,
        "clusters": len(bounds) - 1,
        "max_cluster_size": max_cluster,
    }
