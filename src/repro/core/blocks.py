"""Local optimal solution of one agreeable-deadline task block (Section 5.1.1
and 5.2.1).

A *block* is a maximal memory busy interval ``[s', e']`` in which a subset
``tau'`` of the task set executes.  Given the busy interval, every task's
best response is independent:

* its execution window is ``[max(r_k, s'), min(d_k, e')]`` -- precisely the
  paper's four processing cases (1) ``[s', d_k]``, (2) ``[r_k, d_k]``,
  (3) ``[s', e']`` and (4) ``[r_k, e']``, depending on which clamps bind;
* with ``alpha = 0`` the task stretches over the whole window (slower is
  always cheaper);
* with ``alpha != 0`` it runs for ``min(window, w/s_0)`` -- the paper's
  Type-I tasks (critical speed ``s_0``, window slack left over) versus
  Type-II tasks (aligned with the busy interval).

The resulting block energy

    E(s', e') = alpha_m * (e' - s') + sum_k bestE_k(window_k(s', e'))

is *jointly convex* in ``(s', e')``: each window length is a concave
piecewise-affine function of the endpoints and ``bestE_k`` is convex and
non-increasing, so the composition is convex.  Two solvers are provided:

``method='descent'``
    direct 2-D convex minimization (coordinate descent plus diagonal
    sweeps to step across the axis-unaligned kinks at Type-I/Type-II
    boundaries), the library's fast default;
``method='pairs'``
    the paper's (i, j)-pair enumeration.  For ``alpha = 0`` each pair cell
    is solved with the first-order conditions of Eqs. (12)-(14) (monotone
    bisection, plus a 2-D solve for the coupled Eq. (13) cells); for
    ``alpha != 0`` each cell runs Algorithm 1's five iterative steps.

The test suite certifies both against a dense numeric reference.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Literal, Optional, Sequence, Tuple

from repro.core import vectorized
from repro.models.platform import Platform
from repro.models.task import Task, TaskSet
from repro.schedule.timeline import ExecutionInterval, Schedule
from repro.units import UJ, unit
from repro.utils.solvers import (
    bisect_increasing,
    bisect_increasing_batch,
    golden_section_minimize,
    golden_section_minimize_batch,
    record_solver_call,
)

__all__ = [
    "TaskPlacement",
    "BlockSolution",
    "solve_block",
    "solve_blocks_by_length",
    "block_energy",
    "block_energy_cache_info",
    "block_energy_cache_clear",
]

_INF = float("inf")
_PENALTY = 1e30

# ---------------------------------------------------------------------------
# Memoization of the hot numeric layer (see docs/PERFORMANCE.md)
#
# The descent and pair solvers re-evaluate the block energy at *exactly*
# repeated (start, end) points -- line searches re-probe their anchor and
# bracket endpoints, and the O(n^2) agreeable DP prices overlapping subsets
# -- so a content-keyed LRU pays for itself many times over.  Keys combine
# the TaskSet's cached value signature with the (hashable, frozen) Platform
# and the raw endpoint floats; values are plain floats, so cached and
# uncached paths are bit-identical.
# ---------------------------------------------------------------------------

_ENERGY_CACHE: "OrderedDict[Tuple, float]" = OrderedDict()
_ENERGY_CACHE_MAX = 1 << 17
_SOLUTION_CACHE: "OrderedDict[Tuple, BlockSolution]" = OrderedDict()
_SOLUTION_CACHE_MAX = 1 << 12
_CACHE_STATS = {"energy_hits": 0, "energy_misses": 0, "solution_hits": 0, "solution_misses": 0}


def block_energy_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters for the block-level memo caches."""
    info = dict(_CACHE_STATS)
    info["energy_entries"] = len(_ENERGY_CACHE)
    info["solution_entries"] = len(_SOLUTION_CACHE)
    return info


def block_energy_cache_clear() -> None:
    """Drop all memoized block energies and solutions (test isolation)."""
    _ENERGY_CACHE.clear()
    _SOLUTION_CACHE.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


@dataclass(frozen=True)
class TaskPlacement:
    """One task's execution inside a block."""

    name: str
    start: float
    end: float
    speed: float


@dataclass(frozen=True)
class BlockSolution:
    """Optimal single-block schedule for a task subset.

    ``energy`` is the block's system energy: memory awake over
    ``[start, end]`` plus every member core's execution energy (cores
    sleep for free outside execution in the ``xi = 0`` model).
    """

    tasks: TaskSet
    start: float
    end: float
    energy: float
    placements: Tuple[TaskPlacement, ...]

    @property
    def length(self) -> float:
        return self.end - self.start

    def schedule(self) -> Schedule:
        """One core per task (unbounded-core model)."""
        return Schedule.one_task_per_core(
            ExecutionInterval(p.name, p.start, p.end, p.speed)
            for p in self.placements
        )


# ---------------------------------------------------------------------------
# Per-task best response and block energy
# ---------------------------------------------------------------------------


def _window(task: Task, start: float, end: float) -> Tuple[float, float]:
    return max(task.release, start), min(task.deadline, end)


def _best_duration(task: Task, platform: Platform, window: float) -> float:
    """Energy-minimal execution duration within a window of given length."""
    core = platform.core
    if core.alpha == 0.0:
        return window
    return min(max(task.workload / core.s0(task), task.workload / core.s_up), window)


@unit(UJ)
def block_energy(
    tasks: TaskSet, platform: Platform, start: float, end: float
) -> float:
    """Block energy at busy interval ``[start, end]`` (inf if infeasible).

    Memoized in a content-keyed LRU: the solvers re-probe repeated
    endpoints constantly (see the module-level cache note), and the memo
    returns the identical float the raw evaluation would.
    """
    key = (vectorized.get_backend(), tasks.energy_signature(), platform, start, end)
    cached = _ENERGY_CACHE.get(key)
    if cached is not None:
        _ENERGY_CACHE.move_to_end(key)
        _CACHE_STATS["energy_hits"] += 1
        return cached
    value = _block_energy_uncached(tasks, platform, start, end)
    _CACHE_STATS["energy_misses"] += 1
    record_solver_call("block_energy")
    _ENERGY_CACHE[key] = value
    if len(_ENERGY_CACHE) > _ENERGY_CACHE_MAX:
        _ENERGY_CACHE.popitem(last=False)
    return value


def _block_energy_uncached(
    tasks: TaskSet, platform: Platform, start: float, end: float
) -> float:
    """The raw evaluation behind :func:`block_energy`.

    Dispatches on the numeric backend: :func:`_block_energy_scalar` below
    is the reference loop; the numpy path evaluates the same expression via
    :func:`repro.core.vectorized.block_energy_batch` (a batch of one); the
    jit path calls the compiled transcription directly, skipping the
    ndarray round trip.
    """
    if vectorized.use_jit():
        from repro.core import kernels

        return kernels.block_energy(tasks, platform, start, end)
    if vectorized.use_numpy():
        return float(
            vectorized.block_energy_batch(tasks, platform, (start,), (end,))[0]
        )
    return _block_energy_scalar(tasks, platform, start, end)


def _block_energy_scalar(
    tasks: TaskSet, platform: Platform, start: float, end: float
) -> float:
    """Reference scalar block energy.

    Infeasibility (empty window or forced overspeed) is reported as a large
    *graded* penalty so convex descent is steered back into the feasible
    region instead of facing a flat wall.
    """
    if end <= start:
        return _PENALTY * (1.0 + (start - end))
    core = platform.core
    total = platform.memory.alpha_m * (end - start)
    violation = 0.0
    for task in tasks:
        lo, hi = _window(task, start, end)
        window = hi - lo
        min_duration = task.workload / core.s_up
        # Relative tolerance: optimizers legitimately land exactly on the
        # speed-cap boundary, where float dust must not flip feasibility.
        if window < min_duration * (1.0 - 1e-12) - 1e-12:
            violation += min_duration - window
            continue
        duration = _best_duration(task, platform, max(window, min_duration))
        total += core.execution_energy(task.workload, task.workload / duration)
    if violation > 0.0:
        return _PENALTY * (1.0 + violation)
    return total


def _placements_at(
    tasks: TaskSet, platform: Platform, start: float, end: float
) -> Tuple[TaskPlacement, ...]:
    """Materialize per-task placements for busy interval ``[start, end]``.

    Type-II / stretched tasks fill their window; Type-I tasks (``alpha !=
    0`` with slack) run at critical speed from the start of their window.
    """
    if vectorized.use_numpy():
        return _placements_of(
            tasks, *vectorized.placement_arrays(tasks, platform, start, end)
        )
    placements: List[TaskPlacement] = []
    for task in tasks:
        lo, hi = _window(task, start, end)
        min_duration = task.workload / platform.core.s_up
        duration = _best_duration(task, platform, max(hi - lo, min_duration))
        placements.append(
            TaskPlacement(task.name, lo, lo + duration, task.workload / duration)
        )
    return tuple(placements)


def _placements_of(
    tasks: Sequence[Task],
    los: "vectorized.np.ndarray",
    durations: "vectorized.np.ndarray",
    speeds: "vectorized.np.ndarray",
) -> Tuple[TaskPlacement, ...]:
    return tuple(
        TaskPlacement(task.name, lo, lo + duration, speed)
        for task, lo, duration, speed in zip(
            tasks, los.tolist(), durations.tolist(), speeds.tolist()
        )
    )


# ---------------------------------------------------------------------------
# method='descent': direct 2-D convex minimization
# ---------------------------------------------------------------------------


def _minimize_2d(
    func: Callable[[float, float], float],
    x_bounds: Tuple[float, float],
    y_bounds: Tuple[float, float],
    starts: Sequence[Tuple[float, float]],
    *,
    tol: float = 1e-9,
    max_rounds: int = 80,
) -> Tuple[float, float, float]:
    """Coordinate + diagonal descent for convex objectives with kinks.

    After each coordinate round, two diagonal line searches (directions
    ``(1, 1)`` and ``(-1, 1)``) are performed; this escapes the
    axis-unaligned kinks introduced by the Type-I/Type-II boundary
    ``window == w / s_0``, where pure coordinate descent can stall.
    """
    x_lo, x_hi = x_bounds
    y_lo, y_hi = y_bounds

    def line(x: float, y: float, dx: float, dy: float) -> Tuple[float, float, float]:
        t_lo, t_hi = -_INF, _INF
        for lo, hi, v, dv in ((x_lo, x_hi, x, dx), (y_lo, y_hi, y, dy)):
            if dv > 0:
                t_lo = max(t_lo, (lo - v) / dv)
                t_hi = min(t_hi, (hi - v) / dv)
            elif dv < 0:
                t_lo = max(t_lo, (hi - v) / dv)
                t_hi = min(t_hi, (lo - v) / dv)
        if t_hi <= t_lo:
            return x, y, func(x, y)
        t, value = golden_section_minimize(
            lambda s: func(x + s * dx, y + s * dy), t_lo, t_hi, tol=tol
        )
        # Never step to a point worse than where we stand (the input point
        # is not among golden's probes, and near penalty cliffs the line
        # minimum can be razor-thin).
        here = func(x, y)
        if here <= value:
            return x, y, here
        return x + t * dx, y + t * dy, value

    best: Optional[Tuple[float, float, float]] = None
    for sx, sy in starts:
        x = min(max(sx, x_lo), x_hi)
        y = min(max(sy, y_lo), y_hi)
        value = func(x, y)
        for _ in range(max_rounds):
            x, y, value_a = line(x, y, 1.0, 0.0)
            x, y, value_b = line(x, y, 0.0, 1.0)
            x, y, value_c = line(x, y, 1.0, 1.0)
            x, y, new_value = line(x, y, -1.0, 1.0)
            if value - new_value <= max(tol, tol * abs(value)):
                value = min(value, new_value)
                break
            value = new_value
        if best is None or value < best[2]:
            best = (x, y, value)
    assert best is not None
    return best


def _minimize_2d_batch(
    rows: "vectorized.BlockRows",
    platform: Platform,
    row_of: Optional["vectorized.np.ndarray"],
    x_lo: "vectorized.np.ndarray",
    x_hi: "vectorized.np.ndarray",
    y_lo: "vectorized.np.ndarray",
    y_hi: "vectorized.np.ndarray",
    sx: "vectorized.np.ndarray",
    sy: "vectorized.np.ndarray",
    *,
    tol: float = 1e-9,
    max_rounds: int = 80,
) -> Tuple["vectorized.np.ndarray", "vectorized.np.ndarray", "vectorized.np.ndarray"]:
    """Batched :func:`_minimize_2d`: K independent descents advance together.

    Element ``k`` minimizes the block energy of row ``row_of[k]`` of
    ``rows`` (``row_of`` may be ``None`` for a one-row stack) over its own
    box ``[x_lo, x_hi] x [y_lo, y_hi]`` from its own start ``(sx, sy)``,
    running the same coordinate + diagonal rounds as the scalar descent;
    every golden-section iteration evaluates all still-active elements'
    probes in a single :func:`repro.core.vectorized.block_energy_rows`
    call.  Used for the
    multi-start descent of one block (:func:`_descend_rows`, which also
    serves the agreeable DP's same-length block groups) and the coupled
    Eq. (13) pair cells (one element per cell).  Returns per-element
    ``(x, y, value)`` arrays.
    """
    np = vectorized.np
    x = np.minimum(np.maximum(sx, x_lo), x_hi)
    y = np.minimum(np.maximum(sy, y_lo), y_hi)

    def energy(xs, ys, elems):
        owners = None if row_of is None else row_of[elems]
        return vectorized.block_energy_rows(rows, platform, owners, xs, ys)

    def line(idx: "vectorized.np.ndarray", dx: float, dy: float):
        """Advance elements ``idx`` along ``(dx, dy)``; return their values."""
        xi, yi = x[idx], y[idx]
        t_lo = np.full(idx.shape[0], -_INF)
        t_hi = np.full(idx.shape[0], _INF)
        for lo_b, hi_b, v, dv in (
            (x_lo[idx], x_hi[idx], xi, dx),
            (y_lo[idx], y_hi[idx], yi, dy),
        ):
            if dv > 0:
                t_lo = np.maximum(t_lo, (lo_b - v) / dv)
                t_hi = np.minimum(t_hi, (hi_b - v) / dv)
            elif dv < 0:
                t_lo = np.maximum(t_lo, (hi_b - v) / dv)
                t_hi = np.minimum(t_hi, (lo_b - v) / dv)
        here = energy(xi, yi, idx)
        movable = np.flatnonzero(t_hi > t_lo)
        if movable.shape[0] == 0:
            return here

        def along(ts, owners):
            o = movable[owners]
            return energy(xi[o] + ts * dx, yi[o] + ts * dy, idx[o])

        t_best, t_val = golden_section_minimize_batch(
            along, t_lo[movable], t_hi[movable], tol=tol
        )
        # Same stay-guard as the scalar `line`: never step to a point worse
        # than where we stand.
        move = t_val < here[movable]
        m = movable[move]
        x[idx[m]] = xi[m] + t_best[move] * dx
        y[idx[m]] = yi[m] + t_best[move] * dy
        out = here.copy()
        out[m] = t_val[move]
        return out

    value = energy(x, y, np.arange(x.shape[0]))
    active = np.ones(x.shape[0], dtype=bool)
    for _ in range(max_rounds):
        idx = np.flatnonzero(active)
        if idx.shape[0] == 0:
            break
        line(idx, 1.0, 0.0)
        line(idx, 0.0, 1.0)
        line(idx, 1.0, 1.0)
        new_value = line(idx, -1.0, 1.0)
        old = value[idx]
        done = old - new_value <= np.maximum(tol, tol * np.abs(old))
        value[idx] = np.where(done, np.minimum(old, new_value), new_value)
        active[idx[done]] = False
    return x, y, value


def _descend_rows(
    rows: "vectorized.BlockRows", platform: Platform
) -> Tuple["vectorized.np.ndarray", "vectorized.np.ndarray", "vectorized.np.ndarray"]:
    """Per-row ``(start, end, energy)`` of a same-width block stack.

    Runs :func:`_solve_block_descent`'s four starts for every row as one
    ``G x 4``-element batched descent and keeps each row's first strict
    minimum over the starts, as the scalar selection loop does.
    """
    np = vectorized.np
    releases, deadlines = rows.releases, rows.deadlines
    num_rows = releases.shape[0]
    s_lo, s_hi = releases.min(axis=1), deadlines[:, 0]
    e_lo, e_hi = releases[:, -1], deadlines.max(axis=1)
    # The same four starts as the scalar and jit descents in
    # _solve_block_descent; element 4 * g + j is row g's start j.
    sx = np.stack([s_lo, 0.5 * (s_lo + s_hi), s_lo, s_hi], axis=1).ravel()
    sy = np.stack(
        [e_hi, 0.5 * (e_lo + e_hi), np.where(e_lo > s_lo, e_lo, e_hi), e_hi],
        axis=1,
    ).ravel()
    xs, ys, values = _minimize_2d_batch(
        rows,
        platform,
        np.repeat(np.arange(num_rows), 4),
        np.repeat(s_lo, 4),
        np.repeat(s_hi, 4),
        np.repeat(e_lo, 4),
        np.repeat(e_hi, 4),
        sx,
        sy,
    )
    xs, ys, values = (a.reshape(num_rows, 4) for a in (xs, ys, values))
    start, end, energy = xs[:, 0], ys[:, 0], values[:, 0]
    for j in range(1, 4):
        better = values[:, j] < energy
        start = np.where(better, xs[:, j], start)
        end = np.where(better, ys[:, j], end)
        energy = np.where(better, values[:, j], energy)
    return start, end, energy


def _solve_block_descent(tasks: TaskSet, platform: Platform) -> BlockSolution:
    if vectorized.get_backend() == "numpy":
        start, end, energy = (
            a.item() for a in _descend_rows(vectorized.block_rows(tasks), platform)
        )
    else:
        first, last = tasks[0], tasks[-1]
        s_lo, s_hi = tasks.earliest_release, first.deadline
        e_lo, e_hi = last.release, tasks.latest_deadline
        starts = [
            (s_lo, e_hi),
            (0.5 * (s_lo + s_hi), 0.5 * (e_lo + e_hi)),
            (s_lo, e_lo if e_lo > s_lo else e_hi),
            (s_hi, e_hi),
        ]
        if vectorized.use_jit():
            # One compiled call runs all starts' descents (same line-search
            # sequence as _minimize_2d over the memoized scalar objective).
            from repro.core import kernels

            start, end, energy = kernels.solve_block_descent(
                tasks, platform, (s_lo, s_hi), (e_lo, e_hi), starts
            )
        else:
            start, end, energy = _minimize_2d(
                lambda s, e: block_energy(tasks, platform, s, e),
                (s_lo, s_hi),
                (e_lo, e_hi),
                starts,
            )
    if energy >= _PENALTY:
        raise ValueError("block infeasible: some task cannot meet its deadline")
    return BlockSolution(
        tasks=tasks,
        start=start,
        end=end,
        energy=energy,
        placements=_placements_at(tasks, platform, start, end),
    )


def solve_blocks_by_length(
    tasks: TaskSet, platform: Platform, spans: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], BlockSolution]:
    """``method='descent'`` block solutions of ``tasks[p:q]`` per span.

    The numpy-backend engine of the agreeable DP.  Spans are grouped by
    length ``m = q - p``; each group's task rows are sliced from the
    parent's :class:`~repro.core.vectorized.BlockArrays` as one ``(G, m)``
    stack and all ``G x 4`` descents run as one batch
    (:func:`_descend_rows`), so a golden-section step prices every block
    of that length in one call instead of one call per block.  Each
    solution is bit-identical to ``solve_block(tasks.subset(p, q),
    platform)`` under numpy (see :class:`~repro.core.vectorized.BlockRows`).
    Nothing is written to the per-block memo caches.
    """
    np = vectorized.np
    arr = vectorized.block_arrays(tasks)
    by_length: Dict[int, List[int]] = {}
    for p, q in spans:
        by_length.setdefault(q - p, []).append(p)
    solutions: Dict[Tuple[int, int], BlockSolution] = {}
    for m, firsts in by_length.items():
        take = np.asarray(firsts)[:, None] + np.arange(m)
        rows = vectorized.BlockRows(
            releases=arr.releases[take],
            deadlines=arr.deadlines[take],
            workloads=arr.workloads[take],
        )
        starts, ends, energies = _descend_rows(rows, platform)
        if (energies >= _PENALTY).any():
            raise ValueError("block infeasible: some task cannot meet its deadline")
        record_solver_call("solve_block", len(firsts))
        los, durations, speeds = vectorized.placement_rows(
            rows, platform, np.arange(len(firsts)), starts, ends
        )
        for g, (p, start, end, energy) in enumerate(
            zip(firsts, starts.tolist(), ends.tolist(), energies.tolist())
        ):
            subset = tasks.subset(p, p + m)
            solutions[(p, p + m)] = BlockSolution(
                tasks=subset,
                start=start,
                end=end,
                energy=energy,
                placements=_placements_of(subset, los[g], durations[g], speeds[g]),
            )
    return solutions


# ---------------------------------------------------------------------------
# method='pairs': the paper's (i, j)-pair enumeration
# ---------------------------------------------------------------------------


def _pair_cells(tasks: TaskSet) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]]]:
    """The (i, j) cell decomposition of the (s', e') rectangle.

    ``s'`` cells are delimited by the sorted releases (clipped to
    ``[r_1, d_1]``); ``e'`` cells by the sorted deadlines (clipped to
    ``[r_n', d_n']``).  Inside one cell the identity of the paper's
    processing case is fixed for every task, which is exactly the (i, j)
    pair structure of Lemma 3.
    """
    first, last = tasks[0], tasks[-1]
    s_min, s_max = tasks.earliest_release, first.deadline
    e_min, e_max = last.release, tasks.latest_deadline

    s_points = sorted({min(max(r, s_min), s_max) for r in tasks.releases()})
    s_points = sorted(set(s_points) | {s_min, s_max})
    e_points = sorted({min(max(d, e_min), e_max) for d in tasks.deadlines()})
    e_points = sorted(set(e_points) | {e_min, e_max})

    s_cells = [(a, b) for a, b in zip(s_points, s_points[1:]) if b > a]
    e_cells = [(a, b) for a, b in zip(e_points, e_points[1:]) if b > a]
    if not s_cells:  # all releases coincide
        s_cells = [(s_min, s_min)]
    if not e_cells:
        e_cells = [(e_max, e_max)]
    return s_cells, e_cells


def _solve_cell_alpha_zero(
    tasks: TaskSet,
    platform: Platform,
    s_cell: Tuple[float, float],
    e_cell: Tuple[float, float],
) -> Tuple[float, float, float]:
    """Lemma 3 inside one (i, j) cell, ``alpha = 0``.

    Tasks whose release is <= the cell's s' range start at ``s'`` (head
    tasks); tasks whose deadline is >= the cell's e' range end at ``e'``
    (tail tasks); when no task is both, the objective separates and the
    first-order conditions

        sum_head (w / (d - s'))**lam = alpha_m / (beta (lam - 1))
        sum_tail (w / (e' - r))**lam = alpha_m / (beta (lam - 1))

    are solved by monotone bisection; otherwise (the Eq. (13) coupling) a
    2-D descent inside the cell is used.
    """
    core = platform.core
    lam, beta = core.lam, core.beta
    alpha_m = platform.memory.alpha_m
    s_lo, s_hi = s_cell
    e_lo, e_hi = e_cell

    mid_s = 0.5 * (s_lo + s_hi)
    mid_e = 0.5 * (e_lo + e_hi)
    head = [t for t in tasks if t.release <= mid_s]
    tail = [t for t in tasks if t.deadline >= mid_e]
    coupled = set(t.name for t in head) & set(t.name for t in tail)

    if coupled:
        x, y, value = _minimize_2d(
            lambda s, e: block_energy(tasks, platform, s, e),
            s_cell,
            e_cell,
            [(mid_s, mid_e)],
        )
        return x, y, value

    target = alpha_m / (beta * (lam - 1.0))

    # dE/ds' is proportional to sum_head (w/(d-s'))^lam - target, which is
    # increasing in s' (windows shrink, blowing up at s' -> d).
    def head_slope(s: float) -> float:
        acc = 0.0
        for t in head:
            len_k = t.deadline - s
            if len_k <= 0:
                return _INF
            acc += (t.workload / len_k) ** lam
        return acc - target

    def tail_condition(e: float) -> float:
        # dE/de' is proportional to target - sum (w/(e'-r))^lam, which is
        # increasing in e' (the power sum shrinks as the windows widen).
        acc = 0.0
        for t in tail:
            len_k = e - t.release
            if len_k <= 0:
                return -_INF
            acc += (t.workload / len_k) ** lam
        return target - acc

    # Speed caps tighten the admissible endpoint ranges: every head task
    # needs window (d_k - s') >= w_k / s_up, every tail task needs
    # (e' - r_k) >= w_k / s_up.
    s_cap = min(
        (t.deadline - t.workload / core.s_up for t in head), default=s_hi
    )
    e_cap = max(
        (t.release + t.workload / core.s_up for t in tail), default=e_lo
    )
    s_hi_eff = min(s_hi, s_cap)
    e_lo_eff = max(e_lo, e_cap)
    if s_hi_eff < s_lo or e_lo_eff > e_hi:
        return s_lo, e_hi, _INF  # cell infeasible under the speed cap
    if head:
        s_star = bisect_increasing(head_slope, s_lo, s_hi_eff)
    else:
        s_star = s_hi_eff  # no head task: larger s' only shrinks memory time
    if tail:
        e_star = bisect_increasing(lambda e: tail_condition(e), e_lo_eff, e_hi)
    else:
        e_star = e_lo_eff
    value = block_energy(tasks, platform, s_star, e_star)
    return s_star, e_star, value


def _solve_cell_alpha_nonzero(
    tasks: TaskSet,
    platform: Platform,
    s_cell: Tuple[float, float],
    e_cell: Tuple[float, float],
) -> Tuple[float, float, float]:
    """Algorithm 1's five iterative steps inside one (i, j) cell.

    Maintains a partition of the subset into *active* tasks (assumed
    aligned with the busy interval) and *evicted* Type-I tasks (pinned at
    their critical speed ``s_0``).  Each iteration re-minimizes the
    aligned-tasks energy (Step 1 / Step 4's Eq. (15)) over the cell box
    and evicts tasks whose implied speed drops below ``s_0`` (Steps 2-3)
    or, in the second phase, re-solves for the over-``s_1`` tasks and
    prolongs the rest (Steps 4-5).  Evicted tasks contribute their fixed
    ``s_0`` energy plus a feasibility requirement that the busy interval
    keep covering their ``w / s_0`` execution; by Lemma 5 the interval
    only grows, so eviction is permanent.
    """
    core = platform.core
    alpha_m = platform.memory.alpha_m

    evicted: set = set()
    evicted_energy = 0.0

    def aligned_energy(s: float, e: float) -> float:
        """Eq. (15)-style energy: active tasks fill their windows."""
        if e <= s:
            return _PENALTY * (1.0 + (s - e))
        total = alpha_m * (e - s)
        violation = 0.0
        for t in tasks:
            lo, hi = _window(t, s, e)
            window = hi - lo
            if t.name in evicted:
                need = t.workload / core.s0(t)
                if window < need * (1.0 - 1e-12) - 1e-12:
                    violation += need - window
                continue
            floor = t.workload / core.s_up
            if window < floor * (1.0 - 1e-12) - 1e-12:
                violation += floor - window
                continue
            total += core.execution_energy(
                t.workload, t.workload / max(window, floor)
            )
        if violation > 0.0:
            return _PENALTY * (1.0 + violation)
        return total + evicted_energy

    def minimize_over_cell(subset_only: Optional[set] = None) -> Tuple[float, float, float]:
        if subset_only is None:
            objective = aligned_energy
        else:
            def objective(s: float, e: float) -> float:
                if e <= s:
                    return _PENALTY * (1.0 + (s - e))
                total = alpha_m * (e - s)
                violation = 0.0
                for t in tasks:
                    if t.name not in subset_only:
                        continue
                    lo, hi = _window(t, s, e)
                    window = hi - lo
                    if window < t.workload / core.s_up:
                        violation += t.workload / core.s_up - window
                        continue
                    total += core.execution_energy(t.workload, t.workload / window)
                if violation > 0.0:
                    return _PENALTY * (1.0 + violation)
                return total
        mid = (0.5 * (s_cell[0] + s_cell[1]), 0.5 * (e_cell[0] + e_cell[1]))
        return _minimize_2d(objective, s_cell, e_cell, [mid, (s_cell[0], e_cell[1])])

    # -- Steps 1-3: evict below-s0 tasks until stable ------------------------
    s_cur, e_cur, _ = minimize_over_cell()
    for _ in range(len(tasks) + 1):
        newly = []
        for t in tasks:
            if t.name in evicted:
                continue
            lo, hi = _window(t, s_cur, e_cur)
            window = hi - lo
            if window <= 0:
                continue
            if t.workload / window < core.s0(t) - 1e-12:
                newly.append(t)
        if not newly:
            break
        for t in newly:
            evicted.add(t.name)
            evicted_energy += core.execution_energy(t.workload, core.s0(t))
        s_cur, e_cur, _ = minimize_over_cell()

    # -- Steps 4-5: shrink over-s1 tasks until stable -------------------------
    for _ in range(len(tasks) + 1):
        over_s1 = set()
        for t in tasks:
            if t.name in evicted:
                continue
            lo, hi = _window(t, s_cur, e_cur)
            window = hi - lo
            if window <= 0:
                continue
            if t.workload / window > core.s1(t, alpha_m) + 1e-9:
                over_s1.add(t.name)
        if not over_s1:
            break
        s_new, e_new, _ = minimize_over_cell(subset_only=over_s1)
        # Prolong the other aligned tasks to the new (longer) interval and
        # evict any that fall below s_0.
        s_cur, e_cur = min(s_cur, s_new), max(e_cur, e_new)
        changed = False
        for t in tasks:
            if t.name in evicted:
                continue
            lo, hi = _window(t, s_cur, e_cur)
            window = hi - lo
            if window > 0 and t.workload / window < core.s0(t) - 1e-12:
                evicted.add(t.name)
                evicted_energy += core.execution_energy(t.workload, core.s0(t))
                changed = True
        if changed:
            s_cur, e_cur, _ = minimize_over_cell()

    # Polish the fixed point against the canonical convex cell objective.
    # The Step-5 prolongation only ever *expands* the interval (Lemma 5) and
    # is not re-minimized when it triggers without an eviction, so when a
    # task sits exactly on the s_1 threshold (stationarity puts the filling
    # task there) the loop can exit on an over-extended interval.  The cell
    # objective is convex, so one descent from the fixed point can only
    # improve and lands on the true cell optimum.
    return _minimize_2d(
        lambda s, e: block_energy(tasks, platform, s, e),
        s_cell,
        e_cell,
        [(s_cur, e_cur)],
    )


def _sweep_cells_alpha_zero_numpy(
    tasks: TaskSet,
    platform: Platform,
    s_cells: List[Tuple[float, float]],
    e_cells: List[Tuple[float, float]],
) -> Optional[Tuple[float, float, float]]:
    """Lemma 3's (i, j) sweep with every cell advanced in batch (alpha = 0).

    Mirrors :func:`_solve_cell_alpha_zero` cell by cell: coupled cells run
    the batched 2-D descent, uncoupled cells solve their two decoupled
    first-order conditions -- and because the s'-condition depends only on
    the s-cell and the e'-condition only on the e-cell, the S*E cells need
    just S + E monotone root finds, each advanced together by
    :func:`repro.utils.solvers.bisect_increasing_batch`.
    """
    np = vectorized.np
    arr = vectorized.block_arrays(tasks)
    core = platform.core
    lam, beta = core.lam, core.beta
    alpha_m = platform.memory.alpha_m
    target = alpha_m / (beta * (lam - 1.0))
    releases, deadlines, workloads = arr.releases, arr.deadlines, arr.workloads
    min_duration = workloads / core.s_up

    s_lo = np.asarray([c[0] for c in s_cells], dtype=np.float64)
    s_hi = np.asarray([c[1] for c in s_cells], dtype=np.float64)
    e_lo = np.asarray([c[0] for c in e_cells], dtype=np.float64)
    e_hi = np.asarray([c[1] for c in e_cells], dtype=np.float64)
    mid_s = 0.5 * (s_lo + s_hi)
    mid_e = 0.5 * (e_lo + e_hi)
    head_mask = releases[None, :] <= mid_s[:, None]  # (S, n)
    tail_mask = deadlines[None, :] >= mid_e[:, None]  # (E, n)
    coupled = (
        head_mask.astype(np.float64) @ tail_mask.astype(np.float64).T
    ) > 0.5  # (S, E): some task is both head and tail

    # Speed caps tighten the admissible endpoint ranges (same defaults as
    # the scalar cell solver: inf/-inf collapse to s_hi/e_lo).
    s_cap = np.where(
        head_mask, deadlines[None, :] - min_duration[None, :], _INF
    ).min(axis=1)
    e_cap = np.where(
        tail_mask, releases[None, :] + min_duration[None, :], -_INF
    ).max(axis=1)
    s_hi_eff = np.minimum(s_hi, s_cap)
    e_lo_eff = np.maximum(e_lo, e_cap)
    s_ok = s_hi_eff >= s_lo
    e_ok = e_lo_eff <= e_hi

    s_star = s_hi_eff.copy()  # no head task: larger s' only shrinks memory time
    s_rows = np.flatnonzero(s_ok & head_mask.any(axis=1))
    if s_rows.shape[0]:

        def head_slope(xs, idx):
            mask = head_mask[s_rows[idx]]
            lens = deadlines[None, :] - xs[:, None]
            bad = (mask & (lens <= 0.0)).any(axis=1)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                powed = np.where(
                    mask & (lens > 0.0),
                    (workloads[None, :] / lens) ** lam,
                    0.0,
                )
            return np.where(bad, _INF, powed.sum(axis=1) - target)

        if vectorized.use_jit():
            from repro.core import kernels

            masks = np.ascontiguousarray(
                head_mask[s_rows], dtype=np.uint8
            ).tobytes()
            s_star[s_rows] = kernels.powersum_roots(
                deadlines.tolist(),
                workloads.tolist(),
                masks,
                int(s_rows.shape[0]),
                s_lo[s_rows].tolist(),
                s_hi_eff[s_rows].tolist(),
                target,
                lam,
                0,
            )
        else:
            s_star[s_rows] = bisect_increasing_batch(
                head_slope, s_lo[s_rows], s_hi_eff[s_rows]
            )

    e_star = e_lo_eff.copy()
    e_rows = np.flatnonzero(e_ok & tail_mask.any(axis=1))
    if e_rows.shape[0]:

        def tail_condition(xs, idx):
            mask = tail_mask[e_rows[idx]]
            lens = xs[:, None] - releases[None, :]
            bad = (mask & (lens <= 0.0)).any(axis=1)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                powed = np.where(
                    mask & (lens > 0.0),
                    (workloads[None, :] / lens) ** lam,
                    0.0,
                )
            return np.where(bad, -_INF, target - powed.sum(axis=1))

        if vectorized.use_jit():
            from repro.core import kernels

            masks = np.ascontiguousarray(
                tail_mask[e_rows], dtype=np.uint8
            ).tobytes()
            e_star[e_rows] = kernels.powersum_roots(
                releases.tolist(),
                workloads.tolist(),
                masks,
                int(e_rows.shape[0]),
                e_lo_eff[e_rows].tolist(),
                e_hi[e_rows].tolist(),
                target,
                lam,
                1,
            )
        else:
            e_star[e_rows] = bisect_increasing_batch(
                tail_condition, e_lo_eff[e_rows], e_hi[e_rows]
            )

    num_s, num_e = s_lo.shape[0], e_lo.shape[0]
    consider = e_hi[None, :] > s_lo[:, None]  # the scalar empty-interval skip
    feasible = s_ok[:, None] & e_ok[None, :]
    px = np.where(feasible, s_star[:, None], s_lo[:, None])
    py = np.where(feasible, e_star[None, :], e_hi[None, :])
    values = np.full((num_s, num_e), _INF)
    ui, uj = np.nonzero(consider & feasible & ~coupled)
    if ui.shape[0]:
        values[ui, uj] = vectorized.block_energy_batch(
            tasks, platform, s_star[ui], e_star[uj]
        )
    ci, cj = np.nonzero(consider & coupled)
    if ci.shape[0]:
        xs, ys, cv = _minimize_2d_batch(
            vectorized.block_rows(tasks),
            platform,
            None,
            s_lo[ci],
            s_hi[ci],
            e_lo[cj],
            e_hi[cj],
            mid_s[ci],
            mid_e[cj],
        )
        values[ci, cj] = cv
        px[ci, cj] = xs
        py[ci, cj] = ys

    # Same selection order as the scalar nested loop (first strict win).
    best: Optional[Tuple[float, float, float]] = None
    values_l, px_l, py_l = values.tolist(), px.tolist(), py.tolist()
    consider_l = consider.tolist()
    for si in range(num_s):
        for ej in range(num_e):
            if not consider_l[si][ej]:
                continue
            value = values_l[si][ej]
            if best is None or value < best[2]:
                best = (px_l[si][ej], py_l[si][ej], value)
    return best


def _solve_block_pairs(tasks: TaskSet, platform: Platform) -> BlockSolution:
    s_cells, e_cells = _pair_cells(tasks)
    if platform.core.alpha == 0.0 and vectorized.use_numpy():
        best = _sweep_cells_alpha_zero_numpy(tasks, platform, s_cells, e_cells)
    else:
        # alpha != 0 runs Algorithm 1's eviction loops, whose data-dependent
        # control flow stays scalar under every backend.
        solve_cell = (
            _solve_cell_alpha_zero
            if platform.core.alpha == 0.0
            else _solve_cell_alpha_nonzero
        )
        best = None
        for s_cell in s_cells:
            for e_cell in e_cells:
                if e_cell[1] <= s_cell[0]:
                    continue  # empty busy interval everywhere in this cell
                start, end, value = solve_cell(tasks, platform, s_cell, e_cell)
                if best is None or value < best[2]:
                    best = (start, end, value)
    if best is None or best[2] >= _PENALTY:
        raise ValueError("block infeasible: some task cannot meet its deadline")
    start, end, energy = best
    # Re-price via the canonical per-task best response so 'pairs' and
    # 'descent' report identical semantics for the same interval.
    energy = block_energy(tasks, platform, start, end)
    return BlockSolution(
        tasks=tasks,
        start=start,
        end=end,
        energy=energy,
        placements=_placements_at(tasks, platform, start, end),
    )


def solve_block(
    tasks: TaskSet,
    platform: Platform,
    *,
    method: Literal["descent", "pairs"] = "descent",
) -> BlockSolution:
    """Minimize one block's system energy over its busy interval.

    Requires an agreeable subset (Section 5 model).  See the module
    docstring for the two methods.

    Solutions are memoized by (task signature, platform, method):
    :class:`BlockSolution` is immutable, and the agreeable DP plus repeated
    sweeps over the same instances (ablations, online replanning) re-request
    identical blocks.
    """
    if not tasks.is_agreeable():
        raise ValueError("block solving requires agreeable deadlines")
    if method not in ("descent", "pairs"):
        raise ValueError(f"unknown method {method!r}")
    key = (vectorized.get_backend(), tasks.signature(), platform, method)
    cached = _SOLUTION_CACHE.get(key)
    if cached is not None:
        _SOLUTION_CACHE.move_to_end(key)
        _CACHE_STATS["solution_hits"] += 1
        return cached
    _CACHE_STATS["solution_misses"] += 1
    record_solver_call("solve_block")
    if method == "descent":
        solution = _solve_block_descent(tasks, platform)
    else:
        solution = _solve_block_pairs(tasks, platform)
    _SOLUTION_CACHE[key] = solution
    if len(_SOLUTION_CACHE) > _SOLUTION_CACHE_MAX:
        _SOLUTION_CACHE.popitem(last=False)
    return solution
