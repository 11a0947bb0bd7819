"""Vectorized NumPy numeric core for the block / case-scan hot paths.

The scalar solvers in :mod:`repro.core.blocks`,
:mod:`repro.core.common_release` and :mod:`repro.core.transition` are the
*reference* implementations: they follow the paper's per-task loops
line by line and every fidelity test pins them against the closed forms.
Profiling (see docs/PERFORMANCE.md) shows the dominant cost of a Section 8
sweep is exactly those loops, re-entered thousands of times by the
golden-section / coordinate-descent probes of the O(n^4)/O(n^5) DPs.

This module provides the batched counterparts:

* :class:`BlockArrays` -- a task set's releases / deadlines / workloads as
  ndarrays (deadline-sorted, matching ``TaskSet`` order) plus workload
  prefix sums, built once per content signature and LRU-cached;
* :class:`BlockRows` -- G same-width consecutive blocks stacked as
  ``(G, m)`` rows, so the agreeable DP prices every block of one length
  in one batch;
* :func:`block_energy_rows` -- the graded-penalty block energy of
  ``repro.core.blocks._block_energy_uncached`` evaluated at a whole array
  of ``(row, start, end)`` candidates in one shot
  (:func:`block_energy_batch` is its one-task-set wrapper);
* :class:`FptasRows` / :func:`fptas_rows` /
  :func:`fptas_block_energy_rows` -- the fptas tier's block evaluator
  over same-width block stacks, returning the scalar evaluator's floats
  exactly;
* :func:`placement_rows` -- the per-task best-response placements behind
  ``_placements_at``, from the same rows kernel (:func:`placement_arrays`
  wraps it for one busy interval);
* :func:`overhead_solve_small` -- the Section 7 overhead solve fused into
  one plain-Python frame (geometry, prefix scan and candidate fold), the
  non-scalar backends' path for every task count.

The backend is the active :class:`~repro.core.solve_config.SolveConfig`'s
(:func:`get_backend`): an entry point scopes one with
:func:`repro.core.solve_config.using`, and outside every scope
``REPRO_NUMERIC=scalar|numpy|jit`` selects it.  When unset, the numpy
backend is used whenever numpy imports; the scalar path needs nothing
beyond the standard library.  The ``jit`` backend layers the compiled
kernels of :mod:`repro.core.kernels` (cffi-compiled C) on top of the numpy
engine paths; a config resolves an unusable ``jit`` request to numpy (or
scalar) with a single :class:`JitUnavailableWarning
<repro.core.kernels.JitUnavailableWarning>` instead of failing mid-run.
The property tests in ``tests/test_numeric_backends.py`` and
``tests/test_jit_backend.py`` assert all backends agree to 1e-9 on
randomized task sets, so paper-fidelity tests keep pinning the closed
forms no matter which backend runs them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Sequence, Tuple

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-less CI legs
    np = None  # type: ignore[assignment]

from repro.core.solve_config import current
from repro.models.platform import Platform
from repro.models.task import TaskSet

__all__ = [
    "HAS_NUMPY",
    "available_backends",
    "get_backend",
    "use_numpy",
    "use_jit",
    "BlockArrays",
    "block_arrays",
    "block_arrays_cache_clear",
    "block_arrays_cache_size",
    "BlockRows",
    "block_rows",
    "prefetch_block_arrays",
    "block_energy_batch",
    "block_energy_rows",
    "FptasRows",
    "fptas_rows",
    "fptas_block_energy_rows",
    "placement_arrays",
    "placement_rows",
    "overhead_solve_small",
    "TimelineArrays",
    "timeline_arrays",
    "accounting_batch",
    "uniform_from_draws",
    "running_sum",
    "fft_trace_columns",
    "synthetic_trace_columns",
    "agreeable_trace_columns",
    "segments_feasible_batch",
]

HAS_NUMPY = np is not None

_PENALTY = 1e30
_INF = float("inf")

#: Segment-table size up to which the accounting and validation batches
#: (:func:`accounting_batch`, :func:`segments_feasible_batch`) lose to their
#: plain-Python reference loops: per-op ndarray dispatch overhead (~a few
#: microseconds) exceeds the whole loop's cost.
_SMALL_N = 64


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this process.

    ``numpy`` appears only when numpy imports; ``jit`` only when a
    compiled kernel provider loads *and* passes its self-check (see
    :func:`repro.core.kernels.available`).
    """
    names = ["scalar"]
    if HAS_NUMPY:
        names.append("numpy")
    from repro.core import kernels

    if kernels.available():
        names.append("jit")
    return tuple(names)


def get_backend() -> str:
    """The active config's backend (see :mod:`repro.core.solve_config`)."""
    return current().backend


def use_numpy() -> bool:
    """True when the numpy numeric core should serve the hot paths.

    The ``jit`` backend rides the numpy engine paths (simulation,
    accounting, batched geometry) and only swaps the solver inner loops
    for compiled kernels, so it answers True here whenever numpy is
    importable.
    """
    backend = get_backend()
    if backend == "jit":
        return HAS_NUMPY
    return backend == "numpy"


def use_jit() -> bool:
    """True when the compiled kernels should serve the solver inner loops."""
    return get_backend() == "jit"


# ---------------------------------------------------------------------------
# BlockArrays: a task set as ndarrays, cached on content signature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockArrays:
    """A task set's numeric content as deadline-sorted ndarrays.

    ``workload_prefix`` has ``n + 1`` entries with
    ``workload_prefix[i] = sum(workloads[:i])`` so any consecutive block's
    total workload is one subtraction.  Arrays are read-only views shared
    across every kernel call for the same task-set content.
    """

    releases: "np.ndarray"
    deadlines: "np.ndarray"
    workloads: "np.ndarray"
    workload_prefix: "np.ndarray"

    @property
    def n(self) -> int:
        return int(self.workloads.shape[0])


_ARRAYS_CACHE: "OrderedDict[Tuple, BlockArrays]" = OrderedDict()
_ARRAYS_CACHE_MAX = 1 << 14


def block_arrays_cache_clear() -> None:
    """Drop every cached :class:`BlockArrays` (test isolation)."""
    _ARRAYS_CACHE.clear()


def block_arrays_cache_size() -> int:
    """Task sets currently memoized (shard workers flush this at drain)."""
    return len(_ARRAYS_CACHE)


def _freeze(arr: "np.ndarray") -> "np.ndarray":
    arr.setflags(write=False)
    return arr


def block_arrays(tasks: TaskSet) -> BlockArrays:
    """The (cached) :class:`BlockArrays` for a task set's content.

    Keyed on :meth:`repro.models.task.TaskSet.energy_signature`, so two
    sets with identical numeric content share one array build regardless
    of naming or object identity.
    """
    if np is None:  # pragma: no cover - callers gate on use_numpy()
        raise RuntimeError("numpy is not available")
    key = tasks.energy_signature()
    hit = _ARRAYS_CACHE.get(key)
    if hit is not None:
        _ARRAYS_CACHE.move_to_end(key)
        return hit
    raw = np.asarray(key, dtype=np.float64).reshape(len(key), 3)
    workloads = raw[:, 2].copy()
    prefix = np.empty(len(key) + 1, dtype=np.float64)
    prefix[0] = 0.0
    np.cumsum(workloads, out=prefix[1:])
    arrays = BlockArrays(
        releases=_freeze(raw[:, 0].copy()),
        deadlines=_freeze(raw[:, 1].copy()),
        workloads=_freeze(workloads),
        workload_prefix=_freeze(prefix),
    )
    _ARRAYS_CACHE[key] = arrays
    if len(_ARRAYS_CACHE) > _ARRAYS_CACHE_MAX:
        _ARRAYS_CACHE.popitem(last=False)
    return arrays


def prefetch_block_arrays(task_sets: Sequence[TaskSet]) -> int:
    """Batch entry point: warm the arrays cache for many task sets at once.

    The service micro-batcher calls this with every distinct task set of a
    coalesced batch before dispatching the individual solves, so the
    per-set array builds happen in one cache-friendly pass instead of
    being interleaved with DP probes.  Returns the number of fresh builds
    (0 on the scalar backend, where there is nothing to warm).
    """
    if not use_numpy():
        return 0
    built = 0
    for tasks in task_sets:
        key = tasks.energy_signature()
        if key in _ARRAYS_CACHE:
            _ARRAYS_CACHE.move_to_end(key)
        else:
            block_arrays(tasks)
            built += 1
    return built


# ---------------------------------------------------------------------------
# Block energy over (start, end) candidate arrays
# ---------------------------------------------------------------------------


def critical_speeds(
    arrays: "BlockArrays | BlockRows", platform: Platform
) -> "np.ndarray":
    """Task-clamped critical speeds ``s_0``, shaped like ``arrays.workloads``.

    Mirrors :meth:`repro.models.power.CorePowerModel.s0`:
    ``min(max(s_m, filled_speed), s_up)`` per task.
    """
    core = platform.core
    filled = arrays.workloads / (arrays.deadlines - arrays.releases)
    return np.minimum(np.maximum(core.s_m, filled), core.s_up)


@dataclass(frozen=True)
class BlockRows:
    """G consecutive blocks of one width ``m``, stacked as ``(G, m)`` rows.

    Row ``g`` holds one block's deadline-ordered releases / deadlines /
    workloads.  Every row has the same width, so a row reduction visits
    the same ``m`` values in the same order whether the row is priced
    alone or stacked with others: the row kernels below return the same
    floats for a row at any ``G``.  ``tasks`` is set on the one-row stack
    of a whole task set (:func:`block_rows`) so the ``jit`` backend can
    price it with the compiled kernel.
    """

    releases: "np.ndarray"
    deadlines: "np.ndarray"
    workloads: "np.ndarray"
    tasks: Optional[TaskSet] = None


def block_rows(tasks: TaskSet) -> BlockRows:
    """A task set as a one-row :class:`BlockRows` (views of its arrays)."""
    arr = block_arrays(tasks)
    return BlockRows(
        releases=arr.releases[None, :],
        deadlines=arr.deadlines[None, :],
        workloads=arr.workloads[None, :],
        tasks=tasks,
    )


def _best_response_rows(
    rows: BlockRows,
    platform: Platform,
    row_of: Optional["np.ndarray"],
    s: "np.ndarray",
    e: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """Every task's window and energy-minimal duration at K busy intervals.

    Candidate ``k`` places row ``row_of[k]`` of ``rows`` in ``[s[k], e[k]]``.
    Returns ``(lo, window, workloads, min_duration, duration)``, each of
    shape ``(K, m)``; a one-row stack ignores ``row_of`` (it may be
    ``None``) and broadcasts its task arrays as ``(1, m)``.  Type-II /
    stretched tasks fill their window, Type-I tasks (``alpha != 0`` with
    slack) run for ``w / s_0``.
    """
    core = platform.core
    releases, deadlines, workloads = rows.releases, rows.deadlines, rows.workloads
    min_duration = workloads / core.s_up
    preferred = None
    if core.alpha != 0.0:
        preferred = np.maximum(
            workloads / critical_speeds(rows, platform), min_duration
        )
    if releases.shape[0] > 1:
        releases, deadlines, workloads, min_duration = (
            releases[row_of], deadlines[row_of], workloads[row_of],
            min_duration[row_of],
        )
        if preferred is not None:
            preferred = preferred[row_of]
    lo = np.maximum(releases, s[:, None])
    hi = np.minimum(deadlines, e[:, None])
    window = hi - lo
    eff_window = np.maximum(window, min_duration)
    if preferred is None:
        duration = eff_window
    else:
        duration = np.minimum(preferred, eff_window)
    return lo, window, workloads, min_duration, duration


def block_energy_rows(
    rows: BlockRows,
    platform: Platform,
    row_of: Optional["np.ndarray"],
    starts: Sequence[float],
    ends: Sequence[float],
) -> "np.ndarray":
    """Block energies at K candidate busy intervals, as a ``(K,)`` vector.

    Candidate ``k`` prices row ``row_of[k]`` of ``rows`` at
    ``[starts[k], ends[k]]``.  Array transcription of
    ``repro.core.blocks._block_energy_uncached`` (same window clamps, same
    relative speed-cap tolerance, same graded penalties), broadcasting a
    ``(K, m)`` window matrix instead of looping tasks per candidate.  Under
    the ``jit`` backend a whole task set's row is priced by the compiled
    scalar transcription instead (bit-identical to the scalar reference;
    callers still receive an ndarray).
    """
    if rows.tasks is not None and get_backend() == "jit":
        from repro.core import kernels

        values = kernels.block_energy_batch(rows.tasks, platform, starts, ends)
        return np.asarray(values, dtype=np.float64)
    core = platform.core
    s = np.asarray(starts, dtype=np.float64)
    e = np.asarray(ends, dtype=np.float64)
    _, window, workloads, min_duration, duration = _best_response_rows(
        rows, platform, row_of, s, e
    )
    infeasible = window < min_duration * (1.0 - 1e-12) - 1e-12
    violation = np.where(infeasible, min_duration - window, 0.0).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        speed = workloads / duration
        terms = (core.alpha + core.beta * speed ** core.lam) * workloads / speed
        # Infeasible tasks contribute penalty, not energy; zero their terms
        # so the row sum stays finite wherever the candidate is feasible.
        terms = np.where(infeasible, 0.0, terms)
        total = platform.memory.alpha_m * (e - s) + np.nansum(terms, axis=1)
    total = np.where(violation > 0.0, _PENALTY * (1.0 + violation), total)
    return np.where(e <= s, _PENALTY * (1.0 + (s - e)), total)


def block_energy_batch(
    tasks: TaskSet,
    platform: Platform,
    starts: Sequence[float],
    ends: Sequence[float],
) -> "np.ndarray":
    """Block energies of one task set at K candidate busy intervals
    (:func:`block_energy_rows` over its one-row stack)."""
    return block_energy_rows(block_rows(tasks), platform, None, starts, ends)


@dataclass(frozen=True)
class FptasRows:
    """G same-width fptas blocks as ``(G, m)`` column-major stacks.

    ``columns`` has shape ``(7, m, G)``: seven per-task fields, each stored
    transposed as ``(m, G)`` so task position ``j`` of every block is one
    contiguous row and the evaluator walks task positions in order; one
    gather serves every field.  The fields are the releases, deadlines
    and workloads, then the edge-independent quantities of
    ``repro.core.fptas._columns_block_pricer`` -- the minimum duration, the
    feasibility floor, the natural duration -- and the energy term at the
    natural duration (see :func:`fptas_rows`).
    """

    columns: "np.ndarray"

    @property
    def releases(self) -> "np.ndarray":
        return self.columns[0]

    @property
    def deadlines(self) -> "np.ndarray":
        return self.columns[1]

    @property
    def workloads(self) -> "np.ndarray":
        return self.columns[2]


#: Most task elements (candidates x block width) one pass of
#: :func:`fptas_block_energy_rows` holds; larger candidate sets are priced
#: in slices, which bounds the evaluator's temporaries.
_FPTAS_SLICE_ELEMENTS = 2048

#: Candidate counts are padded to a multiple of this, so the evaluator's
#: temporaries come in few sizes (see :func:`fptas_block_energy_rows`).
_FPTAS_QUANTUM = 16


def _python_powers(bases: "np.ndarray", exponent: float) -> "np.ndarray":
    """``bases ** exponent`` through Python's float ``**`` (C library ``pow``).

    numpy's float64 ``power`` differs from it in the last bit on a few
    percent of inputs, so terms that must equal the scalar evaluator's
    take their powers here.
    """
    return np.fromiter(
        map(pow, bases.tolist(), repeat(exponent, bases.shape[0])),
        dtype=np.float64,
        count=bases.shape[0],
    )


def fptas_rows(
    releases: Sequence[float],
    deadlines: Sequence[float],
    workloads: Sequence[float],
    firsts: "np.ndarray",
    width: int,
    platform: Platform,
) -> FptasRows:
    """The stack of trace blocks ``[firsts[g], firsts[g] + width)``.

    The block tasks are read straight from the trace columns, so no
    whole-trace array is built.  The derived fields repeat
    ``repro.core.fptas._columns_block_pricer`` operation for operation
    (IEEE divide, multiply, subtract, min and max round as in Python), and
    the natural-duration term is the scalar evaluator's expression with
    its power taken by :func:`_python_powers`, so every field holds the
    floats the scalar pricer computes.
    """
    core = platform.core
    index = (np.arange(width)[:, None] + firsts[None, :]).ravel().tolist()
    r, d, w = (
        np.fromiter(map(column.__getitem__, index), dtype=np.float64, count=len(index))
        .reshape(width, -1)
        for column in (releases, deadlines, workloads)
    )
    min_durations = w / core.s_up
    natural = np.maximum(
        w / np.minimum(np.maximum(core.s_m, w / (d - r)), core.s_up), min_durations
    )
    speed = w / natural
    powers = _python_powers(speed.ravel(), core.lam).reshape(speed.shape)
    return FptasRows(
        np.stack(
            [
                r,
                d,
                w,
                min_durations,
                min_durations * (1.0 - 1e-12) - 1e-12,
                natural,
                (core.alpha + core.beta * powers) * w / speed,
            ]
        )
    )


def fptas_block_energy_rows(
    rows: FptasRows,
    platform: Platform,
    row_of: "np.ndarray",
    starts: "np.ndarray",
    ends: "np.ndarray",
) -> "np.ndarray":
    """Fptas block energies at K candidate busy intervals, as a ``(K,)`` vector.

    Candidate ``k`` prices block ``row_of[k]`` of ``rows`` at ``[starts[k],
    ends[k]]``.  Array transcription of the scalar ``block_energy`` closure
    of ``repro.core.fptas._columns_block_pricer`` that returns its floats
    exactly, so the batched and per-block fptas pricers can share one
    partition:

    * the energy and violation sums add the task columns one at a time in
      task order, as the scalar ``total += ...`` / ``violation += ...``
      loop does (an infeasible task adds ``0.0`` to the energy, a feasible
      one ``0.0`` to the violation -- both no-ops);
    * a task running at its natural duration takes its precomputed term;
      only the "fresh" terms, whose duration is the clipped window (every
      feasible term when ``alpha == 0``), are priced here, their powers by
      :func:`_python_powers`.  Every other operation is an IEEE add,
      subtract, multiply, divide, min, max or comparison, which numpy
      rounds exactly as Python does.
    """
    count = row_of.shape[0]
    if count == 0:
        return np.empty(0)
    # Pad to whole quanta (repeating the last candidate) so the temporaries
    # come in a few sizes: numpy keeps freed buffers below 1 KiB in a
    # per-size cache, and a lockstep search that shrinks through every
    # candidate count would otherwise fill it with megabytes.
    padded = -(-count // _FPTAS_QUANTUM) * _FPTAS_QUANTUM
    row_of, starts, ends = (_pad_repeat(a, padded) for a in (row_of, starts, ends))
    size = max(_FPTAS_SLICE_ELEMENTS // (rows.columns.shape[1] * _FPTAS_QUANTUM), 1)
    size *= _FPTAS_QUANTUM
    if padded <= size:
        return _fptas_energy_slice(rows, platform, row_of, starts, ends)[:count]
    return np.concatenate(
        [
            _fptas_energy_slice(
                rows, platform, row_of[at:at + size], starts[at:at + size],
                ends[at:at + size],
            )
            for at in range(0, padded, size)
        ]
    )[:count]


def _pad_repeat(values: "np.ndarray", size: int) -> "np.ndarray":
    """``values`` extended to ``size`` entries by repeating its last one."""
    out = np.empty(size, dtype=values.dtype)
    out[: values.shape[0]] = values
    out[values.shape[0]:] = values[-1]
    return out


def _fptas_energy_slice(
    rows: FptasRows,
    platform: Platform,
    row_of: "np.ndarray",
    starts: "np.ndarray",
    ends: "np.ndarray",
) -> "np.ndarray":
    core = platform.core
    alpha, beta = core.alpha, core.beta
    releases, deadlines, workloads, min_durations, slack_floors, natural, natural_terms = (
        rows.columns[:, :, row_of]
    )
    # min/max of the scalar `x if x < y else y` clamps: equal operands are
    # the same float (no NaNs; a signed zero cancels in the window).
    window = np.minimum(deadlines, ends) - np.maximum(releases, starts)
    infeasible = window < slack_floors
    violations = np.where(infeasible, min_durations - window, 0.0)
    window = np.maximum(window, min_durations)
    # In-place mask algebra: every small boolean temporary would linger in
    # numpy's per-size cache of freed buffers.
    if alpha == 0.0:
        terms = np.zeros_like(window)
        stale = infeasible
    else:
        stale = natural < window
        terms = np.where(stale, natural_terms, 0.0)
        stale |= infeasible
    fresh = np.flatnonzero(np.logical_not(stale, out=stale))
    fresh_workloads = workloads.take(fresh)
    speeds = fresh_workloads / window.take(fresh)
    terms.put(
        fresh,
        (alpha + beta * _python_powers(speeds, core.lam)) * fresh_workloads / speeds,
    )
    total = platform.memory.alpha_m * (ends - starts) + terms[0]
    violation = violations[0]
    for j in range(1, terms.shape[0]):
        total = total + terms[j]
        violation = violation + violations[j]
    return np.where(violation > 0.0, _PENALTY * (1.0 + violation), total)


def placement_rows(
    rows: BlockRows,
    platform: Platform,
    row_of: Optional["np.ndarray"],
    starts: Sequence[float],
    ends: Sequence[float],
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Per-task ``(start, duration, speed)`` matrices at K busy intervals.

    Array transcription of ``repro.core.blocks._placements_at`` over the
    same rows kernel as :func:`block_energy_rows`.
    """
    lo, _, workloads, _, duration = _best_response_rows(
        rows,
        platform,
        row_of,
        np.asarray(starts, dtype=np.float64),
        np.asarray(ends, dtype=np.float64),
    )
    return lo, duration, workloads / duration


def placement_arrays(
    tasks: TaskSet, platform: Platform, start: float, end: float
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Per-task ``(start, duration, speed)`` vectors for one busy interval
    (:func:`placement_rows` over the set's one-row stack)."""
    lo, duration, speed = placement_rows(
        block_rows(tasks), platform, None, (start,), (end,)
    )
    return lo[0], duration[0], speed[0]


# ---------------------------------------------------------------------------
# Section 7 fused overhead solve
# ---------------------------------------------------------------------------


def overhead_solve_small(
    tasks: TaskSet, platform: Platform, rel_end: float
) -> Tuple[
    float,
    Sequence[float],
    Sequence[int],
    Optional[Tuple[float, float, int]],
]:
    """Fused Section 7 solve: geometry, prefix scan and candidate sweep.

    The online replan loop solves thousands of 1-8 task instances, where
    the cost is pure Python call overhead rather than arithmetic, so the
    constrained-critical-speed geometry, the prefix/suffix scan and the
    transition-module case loop run in one frame.  Splitting tasks at a
    candidate's busy end ``|I| - Delta`` (one ``bisect_left`` over the
    sorted natural ends) turns the per-task energy sum of
    ``transition.overhead_energy_at_delta`` into closed prefix/suffix
    forms, so each candidate costs O(log n).  The scalar reference agrees
    to 1e-9 and the compiled :func:`repro.core.kernels.overhead_solve_small`
    bit for bit, which the backend property tests and the kernel
    self-check pin.

    Returns ``(horizon, natural_ends, order, best)`` with ``best`` the
    ``(delta, energy, case_index)`` winner -- or ``None`` when ``rel_end``
    precedes the schedule end, which the caller turns into the same
    ``ValueError`` the scalar path raises.
    """
    core = platform.core
    memory = platform.memory
    release = tasks[0].release
    if core.alpha == 0.0:
        annotated = [
            (t.deadline - release, i, t.workload) for i, t in enumerate(tasks)
        ]
    else:
        outer = tasks.latest_deadline - release
        s_m, s_up, xi = core.s_m, core.s_up, core.xi
        reference = min(s_m, s_up) if s_m > 0.0 else None
        annotated = []
        for i, t in enumerate(tasks):
            w = t.workload
            filled = w / (t.deadline - t.release)
            candidate = min(max(s_m, filled), s_up)
            ref = candidate if reference is None else reference
            if ref <= 0.0 or outer - w / ref >= xi:
                s_c = candidate
            else:
                s_c = min(filled, s_up)
            annotated.append((w / s_c, i, w))
    annotated.sort(key=lambda pair: pair[0])
    ends, order, workloads = zip(*annotated)
    horizon = ends[-1]
    if rel_end < horizon - 1e-9:
        return horizon, ends, order, None

    lam, beta = core.lam, core.beta
    one_lam = 1.0 - lam
    alpha, xi = core.alpha, core.xi
    s_up = core.s_up
    up_thresh = s_up * (1.0 + 1e-9)
    gapped = alpha != 0.0 and xi != 0.0
    axi = alpha * xi
    pe = [0.0]
    pb = [0.0]
    pg = [0.0] if gapped else None
    overspeed = False
    acc_e = acc_b = acc_g = 0.0
    for end, w in zip(ends, workloads):
        acc_e += end
        pe.append(acc_e)
        acc_b += (beta * w ** lam) * end ** one_lam
        pb.append(acc_b)
        if gapped:
            gap = rel_end - end
            if gap > 0.0:
                ag = alpha * gap
                acc_g += ag if ag < axi else axi
            pg.append(acc_g)
        if w / end > up_thresh:
            overspeed = True
    po: Optional[List[int]] = None
    if overspeed:
        po = [0]
        acc_o = 0
        for end, w in zip(ends, workloads):
            acc_o += 1 if w / end > up_thresh else 0
            po.append(acc_o)
    n = len(ends)
    sw = [0.0] * (n + 1)
    sm = [0.0] * (n + 1)
    for j in range(n - 1, -1, -1):
        sw[j] = sw[j + 1] + workloads[j] ** lam
        wj = workloads[j]
        prev = sm[j + 1]
        sm[j] = prev if prev >= wj else wj

    alpha_m = memory.alpha_m
    am_xi = alpha_m * memory.xi_m
    shift = rel_end - horizon
    beta_lam = beta * (lam - 1.0)
    inv_lam = 1.0 / lam
    kinks = (0.0, xi - shift, memory.xi_m - shift)
    delta_bp = [_INF] + [horizon - c for c in ends]

    best: Optional[Tuple[float, float, int]] = None
    for i in range(1, n + 1):
        lo = delta_bp[i]
        cap = horizon - sm[i - 1] / s_up
        hi = delta_bp[i - 1]
        if cap < hi:
            hi = cap
        if horizon < hi:
            hi = horizon
        if hi < lo:
            continue
        aligned = n - i + 1
        candidates = {lo, hi if math.isfinite(hi) else lo}
        factor = beta_lam * sw[i - 1]
        for coeff in (
            aligned * alpha + alpha_m,  # both sleep
            alpha_m,  # cores idle awake
            aligned * alpha,  # memory stays awake
        ):
            if coeff > 0.0:
                point = horizon - (factor / coeff) ** inv_lam
                if point < lo:
                    point = lo
                if point > hi:
                    point = hi
                candidates.add(point)
        for kink in kinks:
            if lo <= kink <= hi:
                candidates.add(kink)
        for delta in sorted(candidates):
            busy = horizon - delta
            if busy <= 0.0:
                energy = _INF
            else:
                k = bisect_left(ends, busy)
                if (po is not None and po[k] > 0) or sm[k] > up_thresh * busy:
                    energy = _INF
                else:
                    behind = n - k
                    energy = (
                        alpha_m * busy
                        + alpha * pe[k]
                        + pb[k]
                        + alpha * behind * busy
                        + sw[k] * (beta * busy ** one_lam)
                    )
                    trailing = rel_end - busy
                    if trailing > 0.0:
                        if alpha_m != 0.0:
                            mt = alpha_m * trailing
                            energy += mt if mt < am_xi else am_xi
                        if gapped:
                            ct = alpha * trailing
                            energy += behind * (ct if ct < axi else axi)
                    if gapped:
                        energy += pg[k]
            if best is None or energy < best[1] - 1e-12:
                best = (delta, energy, i)
    return horizon, ends, order, best


# ---------------------------------------------------------------------------
# Batched timeline / accounting kernel (the non-solver work-unit share)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimelineArrays:
    """A priced schedule as structure-of-arrays segment columns.

    One row per execution segment, sorted by ``(core, start)`` so each
    core's segments are contiguous and chronological -- the layout every
    kernel below assumes.  ``horizon`` is the accounting window the
    segments will be priced over.
    """

    cores: "np.ndarray"
    starts: "np.ndarray"
    ends: "np.ndarray"
    speeds: "np.ndarray"
    horizon: Tuple[float, float]

    @property
    def n(self) -> int:
        return int(self.starts.shape[0])


def timeline_arrays(
    segments: Sequence[Tuple[int, float, float, float]],
    horizon: Tuple[float, float],
) -> TimelineArrays:
    """Build the segment-table columns for ``(core, start, end, speed)`` rows."""
    if np is None:  # pragma: no cover - callers gate on use_numpy()
        raise RuntimeError("numpy is not available")
    raw = np.asarray(
        [(c, s, e, v) for c, s, e, v in segments], dtype=np.float64
    ).reshape(len(segments), 4)
    order = np.lexsort((raw[:, 1], raw[:, 0]))
    raw = raw[order]
    return TimelineArrays(
        cores=raw[:, 0].astype(np.int64),
        starts=raw[:, 1],
        ends=raw[:, 2],
        speeds=raw[:, 3],
        horizon=horizon,
    )


def _coalesce_keyed(
    keys: "np.ndarray", starts: "np.ndarray", ends: "np.ndarray", eps: float
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Merge ``(start, end)`` spans within each key group.

    Inputs must be sorted by ``(key, start)``.  Spans closer than ``eps``
    coalesce, mirroring :func:`repro.schedule.timeline.merge_intervals`.
    Returns ``(span_keys, span_starts, span_ends)``.
    """
    if starts.shape[0] == 0:
        return keys[:0], starts[:0], ends[:0]
    # Offsetting every span by its key times a spacer larger than the whole
    # time range makes the groups disjoint on one axis, so a single
    # cumulative-max pass merges all groups at once.
    span = float(ends.max() - min(starts.min(), 0.0)) + 1.0
    shift = keys.astype(np.float64) * (2.0 * span + 2.0 * eps)
    s = starts + shift
    e = ends + shift
    reach = np.maximum.accumulate(e)
    new_span = np.empty(s.shape[0], dtype=bool)
    new_span[0] = True
    new_span[1:] = s[1:] > reach[:-1] + eps
    first = np.flatnonzero(new_span)
    merged_end = np.maximum.reduceat(e, first)
    return keys[first], s[first] - shift[first], merged_end - shift[first]


def _gap_lengths_keyed(
    keys: "np.ndarray",
    span_starts: "np.ndarray",
    span_ends: "np.ndarray",
    horizon: Tuple[float, float],
    eps: float,
) -> "np.ndarray":
    """Idle-gap lengths per key group within ``horizon``, concatenated.

    Inputs are merged spans sorted by ``(key, start)``.  Gap *positions*
    never matter to the pricing policies -- only lengths do -- so the
    kernel returns one flat vector: interior gaps between consecutive
    spans of the same key plus the two horizon-edge gaps of every key.
    Mirrors :func:`repro.schedule.timeline.complement_within`, including
    the clamping of spans that poke past the horizon and the ``eps``
    suppression of hairline gaps.
    """
    lo, hi = horizon
    s = np.clip(span_starts, lo, hi)
    e = np.clip(span_ends, lo, hi)
    keep = e > s
    keys, s, e = keys[keep], s[keep], e[keep]
    if s.shape[0] == 0:
        return np.full(int(np.unique(keys).shape[0]) or 0, hi - lo)
    same = keys[1:] == keys[:-1]
    interior = (s[1:] - e[:-1])[same]
    first = np.empty(keys.shape[0], dtype=bool)
    first[0] = True
    first[1:] = ~same
    head = s[first] - lo
    tail = hi - e[np.append(np.flatnonzero(first)[1:] - 1, keys.shape[0] - 1)]
    gaps = np.concatenate([interior, head, tail])
    return gaps[gaps > eps]


def _price_gaps(
    gaps: "np.ndarray", static_power: float, break_even: float, policy: str
) -> Tuple[float, float]:
    """``(energy, sleep_time)`` over gap lengths under one sleep policy.

    ``policy`` is a :class:`repro.energy.accounting.SleepPolicy` value
    string; the enum itself lives upstream of this module.
    """
    if policy == "never":
        return float(static_power * gaps.sum()), 0.0
    if policy == "always":
        return (
            float(static_power * break_even * gaps.shape[0]),
            float(gaps.sum()),
        )
    sleeps = gaps >= break_even
    count = float(np.count_nonzero(sleeps))
    energy = static_power * break_even * count + static_power * float(
        gaps[~sleeps].sum()
    )
    return float(energy), float(gaps[sleeps].sum())


def accounting_batch(
    arrays: TimelineArrays,
    platform: Platform,
    *,
    memory_policies: Sequence[str],
    core_policy: str,
    eps: float = 1e-9,
) -> List[Tuple[float, float, float, float, float, float, float]]:
    """Price one segment table under several memory sleep policies at once.

    Returns one ``(core_dynamic, core_static_active, core_idle,
    memory_active, memory_idle, memory_sleep_time, memory_busy_time)``
    tuple per entry of ``memory_policies`` -- the field order of
    :class:`repro.energy.accounting.EnergyBreakdown`.  The core-side terms
    and the memory busy union are computed once and shared, which is what
    lets the experiment pipeline price MBKPS and MBKP from a single
    simulated schedule.

    Matches the scalar accountant to within float re-association (sums are
    pairwise here, sequential there); ``repro.energy.accounting`` owns the
    dispatch and keeps the scalar path as the bit-exact reference.
    """
    if np is None:  # pragma: no cover - callers gate on use_numpy()
        raise RuntimeError("numpy is not available")
    core_model = platform.core
    memory_model = platform.memory
    durations = arrays.ends - arrays.starts
    core_dynamic = float(
        (core_model.beta * arrays.speeds**core_model.lam * durations).sum()
    )
    core_static_active = float(core_model.alpha * durations.sum())

    span_cores, span_starts, span_ends = _coalesce_keyed(
        arrays.cores, arrays.starts, arrays.ends, eps
    )
    core_idle = 0.0
    if core_model.alpha > 0.0:
        core_gaps = _gap_lengths_keyed(
            span_cores, span_starts, span_ends, arrays.horizon, eps
        )
        core_idle, _ = _price_gaps(
            core_gaps, core_model.alpha, core_model.xi, core_policy
        )

    # Memory view: union across cores = merge the per-core spans again
    # under one key.  They are re-sorted by start first (span_starts is
    # sorted within each core, not globally).
    union_order = np.argsort(span_starts, kind="stable")
    zeros = np.zeros(span_starts.shape[0], dtype=np.int64)
    _, busy_starts, busy_ends = _coalesce_keyed(
        zeros, span_starts[union_order], span_ends[union_order], eps
    )
    memory_busy_time = float((busy_ends - busy_starts).sum())
    memory_active = memory_model.alpha_m * memory_busy_time
    memory_gaps = _gap_lengths_keyed(
        np.zeros(busy_starts.shape[0], dtype=np.int64),
        busy_starts,
        busy_ends,
        arrays.horizon,
        eps,
    )
    out: List[Tuple[float, float, float, float, float, float, float]] = []
    for policy in memory_policies:
        memory_idle, memory_sleep_time = _price_gaps(
            memory_gaps, memory_model.alpha_m, memory_model.xi_m, policy
        )
        out.append(
            (
                core_dynamic,
                core_static_active,
                core_idle,
                memory_active,
                memory_idle,
                memory_sleep_time,
                memory_busy_time,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Batched trace-generation arithmetic
# ---------------------------------------------------------------------------


def uniform_from_draws(
    draws: Sequence[float], a: float, b: float
) -> "np.ndarray":
    """Map unit draws to ``Uniform(a, b)`` exactly as ``random.uniform``.

    CPython computes ``a + (b - a) * random()``; evaluating the same
    expression elementwise in float64 is IEEE-identical, so a trace built
    from pre-drawn unit variates matches the scalar generator bit for bit.
    """
    if np is None:  # pragma: no cover - callers gate on use_numpy()
        raise RuntimeError("numpy is not available")
    return a + (b - a) * np.asarray(draws, dtype=np.float64)


def running_sum(values: Sequence[float], initial: float = 0.0) -> "np.ndarray":
    """Running clock: ``out[0] = initial``, ``out[i] = out[i-1] + values[i-1]``.

    ``np.cumsum`` accumulates left to right exactly like a ``+=`` loop,
    and ``initial`` is folded in as the first accumulation term (not added
    afterwards, which would re-associate the sum), so the result is
    bit-identical to the scalar clock advance it replaces.
    """
    if np is None:  # pragma: no cover - callers gate on use_numpy()
        raise RuntimeError("numpy is not available")
    seq = np.empty(len(values) + 1, dtype=np.float64)
    seq[0] = initial
    seq[1:] = values
    return seq.cumsum()


def fft_trace_columns(
    phase_draws: Sequence[float],
    workload_draws: Sequence[float],
    period_draws: Sequence[float],
    *,
    streams: int,
    base_kilocycles: float,
    jitter: float,
    reference_mhz: float,
    utilization_factor: float,
    phase_range: Tuple[float, float],
    period_jitter: Tuple[float, float],
) -> Tuple[List[float], List[float], List[float]]:
    """Batched ``(releases, spans, workloads)`` for one DSPstone FFT trace.

    The caller pre-draws the unit variates in the scalar generator's exact
    call order (phases first, then one workload + one period draw per
    instance); every arithmetic step below reproduces the scalar
    expressions with the same association, so the columns -- and therefore
    the :class:`~repro.models.task.Task` objects built from them -- are
    bit-identical to the per-task loop.  Instance ``i`` belongs to stream
    ``i % streams``; each stream's release clock is a running sum of its
    own period increments seeded by its phase.
    """
    if np is None:  # pragma: no cover - callers gate on use_numpy()
        raise RuntimeError("numpy is not available")
    workloads = base_kilocycles * uniform_from_draws(
        workload_draws, 1.0 - jitter, 1.0 + jitter
    )
    spans = workloads / reference_mhz
    increments = (
        spans
        * utilization_factor
        * uniform_from_draws(period_draws, *period_jitter)
    )
    phases = uniform_from_draws(phase_draws, *phase_range)
    releases = np.empty(workloads.shape[0], dtype=np.float64)
    for stream in range(streams):
        lane = increments[stream::streams]
        releases[stream::streams] = running_sum(
            lane, initial=float(phases[stream])
        )[:-1]
    return releases.tolist(), spans.tolist(), workloads.tolist()


def synthetic_trace_columns(
    gap_draws: Sequence[float],
    span_draws: Sequence[float],
    workload_draws: Sequence[float],
    *,
    min_interarrival: float,
    max_interarrival: float,
    span_range: Tuple[float, float],
    workload_range: Tuple[float, float],
) -> Tuple[List[float], List[float], List[float]]:
    """Batched ``(releases, spans, workloads)`` for one synthetic trace.

    Same bit-identity contract as :func:`fft_trace_columns`: the caller
    supplies the unit draws in scalar call order (``gap_draws`` has one
    entry per task after the first), and the release clock accumulates the
    inter-arrival gaps exactly like the scalar ``t +=`` loop.
    """
    if np is None:  # pragma: no cover - callers gate on use_numpy()
        raise RuntimeError("numpy is not available")
    spans = uniform_from_draws(span_draws, *span_range)
    workloads = uniform_from_draws(workload_draws, *workload_range)
    gaps = uniform_from_draws(gap_draws, min_interarrival, max_interarrival)
    releases = running_sum(gaps, initial=0.0)
    return releases.tolist(), spans.tolist(), workloads.tolist()


def agreeable_trace_columns(
    gap_draws: Sequence[float],
    span_draws: Sequence[float],
    workload_draws: Sequence[float],
    *,
    min_interarrival: float,
    max_interarrival: float,
    span_range: Tuple[float, float],
    workload_range: Tuple[float, float],
) -> Tuple[List[float], List[float], List[float]]:
    """Batched ``(releases, deadlines, workloads)`` for an agreeable trace.

    Same draw protocol as :func:`synthetic_trace_columns`, but the deadline
    column is the running maximum of ``release + span`` so deadlines are
    non-decreasing in release order -- the *agreeable* shape the fptas tier
    solves in a single offline call.  ``np.maximum.accumulate`` applies the
    same exact comparisons as a scalar ``max`` clamp, so the columns are
    bit-identical to the scalar loop in
    :func:`repro.workloads.synthetic.agreeable_trace`.
    """
    if np is None:  # pragma: no cover - callers gate on use_numpy()
        raise RuntimeError("numpy is not available")
    spans = uniform_from_draws(span_draws, *span_range)
    workloads = uniform_from_draws(workload_draws, *workload_range)
    gaps = uniform_from_draws(gap_draws, min_interarrival, max_interarrival)
    releases = running_sum(gaps, initial=0.0)
    deadlines = np.maximum.accumulate(releases + spans)
    return releases.tolist(), deadlines.tolist(), workloads.tolist()


def segments_feasible_batch(
    releases: Sequence[float],
    deadlines: Sequence[float],
    workload_need: Sequence[float],
    seg_task: Sequence[int],
    seg_starts: Sequence[float],
    seg_ends: Sequence[float],
    seg_speeds: Sequence[float],
    seg_cores: Sequence[int],
    *,
    max_speed: float,
    rel_tol: float,
    abs_tol: float,
) -> bool:
    """Vectorized feasibility predicate over a segment table.

    Array counterpart of the checks in
    :func:`repro.schedule.validation.validate_segments`: per-segment
    release/deadline/speed bounds, per-task executed-workload totals and
    per-core non-overlap.  ``seg_task`` holds per-segment indices into the
    task columns.  Returns ``False`` on any violation -- the caller
    re-runs the scalar validator to raise the precise error.
    """
    if np is None:  # pragma: no cover - callers gate on use_numpy()
        raise RuntimeError("numpy is not available")
    releases = np.asarray(releases, dtype=np.float64)
    deadlines = np.asarray(deadlines, dtype=np.float64)
    workload_need = np.asarray(workload_need, dtype=np.float64)
    seg_task = np.asarray(seg_task, dtype=np.int64)
    starts = np.asarray(seg_starts, dtype=np.float64)
    ends = np.asarray(seg_ends, dtype=np.float64)
    speeds = np.asarray(seg_speeds, dtype=np.float64)
    cores = np.asarray(seg_cores, dtype=np.int64)
    if bool((starts < releases[seg_task] - abs_tol).any()):
        return False
    if bool((ends > deadlines[seg_task] + abs_tol).any()):
        return False
    if bool((speeds > max_speed * (1.0 + rel_tol) + abs_tol).any()):
        return False
    executed = np.zeros(releases.shape[0], dtype=np.float64)
    np.add.at(executed, seg_task, speeds * (ends - starts))
    tolerance = np.maximum(abs_tol, rel_tol * workload_need)
    if bool((np.abs(executed - workload_need) > tolerance).any()):
        return False
    order = np.lexsort((starts, cores))
    o_cores, o_starts, o_ends = cores[order], starts[order], ends[order]
    same_core = o_cores[1:] == o_cores[:-1]
    overlap = o_starts[1:] < o_ends[:-1] - abs_tol
    return not bool((same_core & overlap).any())
