"""Numeric solvers used by the SDEM optimization schemes.

Every closed-form scheme in the paper reduces to one of three numeric
primitives:

* a monotone root find for first-order conditions such as
  ``sum_k (w_k / (d_k - x))**lam = alpha_m / (beta * (lam - 1))``
  (Section 5.1.1) -- :func:`bisect_increasing`;
* a one-dimensional convex minimization over a closed interval
  (the per-case energy functions ``E_i(Delta)`` of Sections 4.1/4.2) --
  :func:`minimize_convex_1d`;
* a two-dimensional convex minimization over a box for the coupled
  Eq. (13) blocks where the middle Case-3 tasks tie ``Delta_1`` and
  ``Delta_2`` together -- :func:`minimize_convex_2d_box`.

All solvers are deterministic and allocation-light; they are called inside
O(n^4)/O(n^5) dynamic programs, so constant factors matter.  Every solver
invocation is counted in a per-process tally (:func:`solver_call_counts`)
so the experiment engine can report how much numeric work each simulation
unit performed (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

try:  # the batched primitives need numpy; everything scalar does not
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less CI legs
    _np = None  # type: ignore[assignment]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# ---------------------------------------------------------------------------
# Solver-call accounting
# ---------------------------------------------------------------------------

#: Per-process tally of numeric-solver invocations.  Worker processes of the
#: parallel experiment engine each carry their own copy; the engine snapshots
#: the totals around every work unit and ships the delta back with the
#: result, so counts aggregate correctly across processes.
_CALL_COUNTS: Dict[str, int] = {}


def record_solver_call(name: str, by: int = 1) -> None:
    """Add ``by`` to the named counter (shared with :mod:`repro.core.blocks`)."""
    _CALL_COUNTS[name] = _CALL_COUNTS.get(name, 0) + by


def solver_call_counts() -> Dict[str, int]:
    """A copy of the per-counter tallies accumulated in this process."""
    return dict(_CALL_COUNTS)


def solver_call_total() -> int:
    """Total solver invocations recorded in this process."""
    return sum(_CALL_COUNTS.values())


#: Per-process tally of wall-clock seconds spent inside solver entry
#: points (see :func:`add_solver_seconds`).  Like the call counts, worker
#: processes accumulate their own copy and the experiment engine ships the
#: per-unit delta back with each result, so ``repro bench`` can report a
#: measured solver/engine wall-time split for every mode -- including the
#: pooled one, where wrapping module attributes in the parent process
#: would see nothing.
_SOLVER_SECONDS: List[float] = [0.0]


def add_solver_seconds(seconds: float) -> None:
    """Accumulate wall time spent inside a solver entry point."""
    _SOLVER_SECONDS[0] += seconds


def solver_seconds_total() -> float:
    """Solver wall-clock seconds recorded in this process."""
    return _SOLVER_SECONDS[0]


def reset_solver_counts() -> None:
    """Zero every counter (test isolation / benchmark baselines)."""
    _CALL_COUNTS.clear()
    _SOLVER_SECONDS[0] = 0.0


def bisect_increasing(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Find the root of an increasing function on ``[lo, hi]``.

    The function is assumed (weakly) increasing.  If ``func(lo) >= 0`` the
    root is clamped to ``lo``; if ``func(hi) <= 0`` it is clamped to ``hi``.
    This clamping behaviour is exactly what the paper's boundary analysis
    requires: when the unconstrained extreme value falls outside the feasible
    domain, the boundary point is the constrained optimum.

    Parameters
    ----------
    func:
        Increasing function of one variable.
    lo, hi:
        Bracket endpoints, ``lo <= hi``.
    tol:
        Absolute tolerance on the argument.
    max_iter:
        Iteration cap; with ``tol=1e-12`` and millisecond-scale domains the
        loop terminates far earlier.
    """
    if lo > hi:
        raise ValueError(f"empty bracket: lo={lo} > hi={hi}")
    record_solver_call("bisect")
    flo = func(lo)
    if flo >= 0.0:
        return lo
    fhi = func(hi)
    if fhi <= 0.0:
        return hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fmid = func(mid)
        if fmid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_section_minimize(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> Tuple[float, float]:
    """Minimize a unimodal function on ``[lo, hi]``.

    Returns ``(argmin, min_value)``.  Golden-section search needs no
    derivatives, which keeps the per-case energy functions of Sections
    4.1/4.2 usable even at the piecewise joints where they are continuous
    but not differentiable.
    """
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    record_solver_call("golden_section")
    if hi - lo <= tol:
        x = 0.5 * (lo + hi)
        return x, func(x)
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = func(x1), func(x2)
    # Track the best point ever *evaluated*: when the minimum sits on a
    # cliff edge (graded-penalty feasibility boundaries in the block
    # solvers), the final bracket's midpoint can land a hair inside the
    # penalty region even though a probe already hit the true minimum.
    best = min(((x1, f1), (x2, f2)), key=lambda item: item[1])
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = func(x1)
            if f1 < best[1]:
                best = (x1, f1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = func(x2)
            if f2 < best[1]:
                best = (x2, f2)
    # Include the midpoint and the endpoints: a constrained optimum
    # frequently sits on the feasible-domain boundary (the paper's
    # "just-fit"/"invalid" cases).
    mid = 0.5 * (a + b)
    candidates = [best, (mid, func(mid)), (lo, func(lo)), (hi, func(hi))]
    return min(candidates, key=lambda item: item[1])


def minimize_convex_1d(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-10,
    guess: Optional[float] = None,
    guess_radius: Optional[float] = None,
) -> Tuple[float, float]:
    """Minimize a convex function on ``[lo, hi]``; returns ``(argmin, value)``.

    Thin wrapper over :func:`golden_section_minimize` (convex implies
    unimodal) kept as a separate name so call sites document their convexity
    assumption.

    When ``guess`` is given, a narrow bracket of half-width ``guess_radius``
    (default 5% of the interval) around the guess is searched first.  For a
    convex function the narrow result is provably the global argmin whenever
    it lands strictly inside the narrow bracket -- or on a bracket edge that
    coincides with the domain boundary; otherwise the full interval is
    searched.  Call sites that scan adjacent ``Delta`` breakpoint segments
    (e.g. :func:`repro.core.heterogeneous.solve_common_release_heterogeneous`)
    pass the previous segment's argmin, collapsing most segments to a handful
    of evaluations once the minimum has been bracketed.
    """
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    if hi - lo <= tol:
        # Degenerate bracket (typical of warm-start bracketing): the
        # midpoint is already within tolerance, so skip the golden loop.
        x = 0.5 * (lo + hi)
        return x, func(x)
    if guess is not None and hi > lo:
        radius = 0.05 * (hi - lo) if guess_radius is None else guess_radius
        g_lo = max(lo, guess - radius)
        g_hi = min(hi, guess + radius)
        if g_hi - g_lo > tol and (g_hi - g_lo) < 0.5 * (hi - lo):
            x, value = golden_section_minimize(func, g_lo, g_hi, tol=tol)
            margin = max(10.0 * tol, 1e-3 * (g_hi - g_lo))
            # An argmin on a narrow-bracket edge that is *not* the domain
            # boundary means the true minimum may lie outside the bracket.
            left_ok = g_lo <= lo + margin or x > g_lo + margin
            right_ok = g_hi >= hi - margin or x < g_hi - margin
            if left_ok and right_ok:
                record_solver_call("warm_start_hit")
                return x, value
    return golden_section_minimize(func, lo, hi, tol=tol)


def minimize_convex_2d_box(
    func: Callable[[float, float], float],
    x_bounds: Tuple[float, float],
    y_bounds: Tuple[float, float],
    *,
    tol: float = 1e-9,
    max_rounds: int = 60,
) -> Tuple[float, float, float]:
    """Minimize a jointly convex function over an axis-aligned box.

    Coordinate descent with exact (golden-section) line minimizations.  For a
    convex function over a box, coordinate descent converges to the global
    box-constrained minimum because the only non-smoothness we encounter is
    at the box faces.  Returns ``(x, y, value)``.

    Used for the Eq. (13)/(15) blocks where Case-3 tasks couple
    ``Delta_1`` and ``Delta_2`` through the term
    ``(d_n' - Delta_1 - Delta_2) ** (1 - lam)``.
    """
    x_lo, x_hi = x_bounds
    y_lo, y_hi = y_bounds
    if x_lo > x_hi or y_lo > y_hi:
        raise ValueError("empty box")
    x = 0.5 * (x_lo + x_hi)
    y = 0.5 * (y_lo + y_hi)
    value = func(x, y)
    for _ in range(max_rounds):
        new_x, _ = golden_section_minimize(lambda t: func(t, y), x_lo, x_hi, tol=tol)
        new_y, _ = golden_section_minimize(lambda t: func(new_x, t), y_lo, y_hi, tol=tol)
        new_value = func(new_x, new_y)
        moved = abs(new_x - x) + abs(new_y - y)
        x, y = new_x, new_y
        if value - new_value <= tol and moved <= tol:
            value = min(value, new_value)
            break
        value = new_value
    return x, y, value


# ---------------------------------------------------------------------------
# Batched primitives (numpy numeric core)
#
# The vectorized backend (repro.core.vectorized) replaces "one Python call
# per probe" with "one array call per *iteration*": K independent 1-D
# problems advance together, each iteration evaluating every still-active
# problem's next probe in a single batched objective call.  The batched
# objective receives ``(xs, idx)`` -- probe positions plus the indices of
# the problems they belong to -- and returns the objective values; the
# ``idx`` array lets callers route each probe to its own sub-problem
# (e.g. its own (i, j) cell of the pair enumeration).
# ---------------------------------------------------------------------------


def _require_numpy(name: str):
    if _np is None:  # pragma: no cover - exercised on numpy-less CI legs
        raise RuntimeError(f"{name} requires numpy, which is not installed")
    return _np


def bisect_increasing_batch(
    func: Callable[["_np.ndarray", "_np.ndarray"], "_np.ndarray"],
    lo: Sequence[float],
    hi: Sequence[float],
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> "_np.ndarray":
    """Roots of K increasing functions on per-problem brackets.

    Batched transcription of :func:`bisect_increasing`, including its
    boundary clamps (``func >= 0`` at ``lo`` pins the root to ``lo``;
    ``func <= 0`` at ``hi`` pins it to ``hi``).  ``func(xs, idx)`` must
    evaluate problem ``idx[k]`` at position ``xs[k]``; only still-active
    problems are evaluated each iteration (boolean-mask advancement).
    """
    np = _require_numpy("bisect_increasing_batch")
    lo = np.asarray(lo, dtype=np.float64).copy()
    hi = np.asarray(hi, dtype=np.float64).copy()
    if (lo > hi).any():
        bad = int(np.argmax(lo > hi))
        raise ValueError(f"empty bracket: lo={lo[bad]} > hi={hi[bad]}")
    record_solver_call("bisect_batch")
    k = lo.shape[0]
    result = np.empty(k, dtype=np.float64)
    all_idx = np.arange(k)
    flo = func(lo, all_idx)
    at_lo = flo >= 0.0
    result[at_lo] = lo[at_lo]
    active = ~at_lo
    if active.any():
        idx = all_idx[active]
        fhi = func(hi[idx], idx)
        at_hi = fhi <= 0.0
        result[idx[at_hi]] = hi[idx[at_hi]]
        active[idx[at_hi]] = False
    for _ in range(max_iter):
        if not active.any():
            break
        idx = all_idx[active]
        mid = 0.5 * (lo[idx] + hi[idx])
        converged = hi[idx] - lo[idx] <= tol
        result[idx[converged]] = mid[converged]
        active[idx[converged]] = False
        live = idx[~converged]
        if live.shape[0] == 0:
            continue
        mid_live = mid[~converged]
        fmid = func(mid_live, live)
        below = fmid < 0.0
        lo[live[below]] = mid_live[below]
        hi[live[~below]] = mid_live[~below]
    if active.any():
        idx = all_idx[active]
        result[idx] = 0.5 * (lo[idx] + hi[idx])
    return result


def golden_section_minimize_batch(
    func: Callable[["_np.ndarray", "_np.ndarray"], "_np.ndarray"],
    lo: Sequence[float],
    hi: Sequence[float],
    *,
    tol: Union[float, Sequence[float]] = 1e-10,
    max_iter: int = 200,
) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """Minimize K unimodal functions on per-problem intervals.

    Batched transcription of :func:`golden_section_minimize`: per-problem
    best-ever tracking, the same endpoint/midpoint candidate sweep at the
    end, and degenerate intervals (``hi - lo <= tol``) short-circuiting to
    their midpoint evaluation.  ``tol`` is one tolerance for every problem
    or one per problem.  Each iteration issues one ``func`` call covering
    every still-active problem's single new probe.  Returns ``(argmins,
    values)``; wherever ``func`` returns the scalar objective's floats,
    each problem's pair is the one :func:`golden_section_minimize` returns
    with that problem's ``tol``.
    """
    np = _require_numpy("golden_section_minimize_batch")
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if (lo > hi).any():
        bad = int(np.argmax(lo > hi))
        raise ValueError(f"empty interval: lo={lo[bad]} > hi={hi[bad]}")
    record_solver_call("golden_section_batch")
    k = lo.shape[0]
    all_idx = np.arange(k)
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), (k,))
    degenerate = hi - lo <= tol
    best_x = np.empty(k, dtype=np.float64)
    best_f = np.full(k, math.inf, dtype=np.float64)
    if degenerate.any():
        idx = all_idx[degenerate]
        mids = 0.5 * (lo[idx] + hi[idx])
        best_x[idx] = mids
        best_f[idx] = func(mids, idx)
    live = all_idx[~degenerate]
    if live.shape[0] == 0:
        return best_x, best_f
    a = lo[live].copy()
    b = hi[live].copy()
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = func(x1, live)
    f2 = func(x2, live)
    lower_wins = f1 <= f2
    cur_x = np.where(lower_wins, x1, x2)
    cur_f = np.where(lower_wins, f1, f2)
    best_x[live] = cur_x
    best_f[live] = cur_f
    active = np.ones(live.shape[0], dtype=bool)
    live_tol = tol[live]
    for _ in range(max_iter):
        active &= b - a > live_tol
        if not active.any():
            break
        sel = np.flatnonzero(active)
        shrink_right = f1[sel] <= f2[sel]
        r = sel[shrink_right]
        l = sel[np.logical_not(shrink_right, out=shrink_right)]
        # f1 <= f2: drop [x2, b]; the old x1 becomes the new x2.
        b[r] = x2[r]
        x2[r] = x1[r]
        f2[r] = f1[r]
        x1[r] = b[r] - _GOLDEN * (b[r] - a[r])
        # f1 > f2: drop [a, x1]; the old x2 becomes the new x1.
        a[l] = x1[l]
        x1[l] = x2[l]
        f1[l] = f2[l]
        x2[l] = a[l] + _GOLDEN * (b[l] - a[l])
        probes = np.concatenate([x1[r], x2[l]])
        owners = np.concatenate([live[r], live[l]])
        values = func(probes, owners)
        f1[r] = values[: r.shape[0]]
        f2[l] = values[r.shape[0]:]
        up = r[f1[r] < best_f[live[r]]]
        best_x[live[up]] = x1[up]
        best_f[live[up]] = f1[up]
        up = l[f2[l] < best_f[live[l]]]
        best_x[live[up]] = x2[up]
        best_f[live[up]] = f2[up]
    # Endpoint / midpoint candidates, exactly as the scalar sweep.
    mids = 0.5 * (a + b)
    probes = np.concatenate([mids, lo[live], hi[live]])
    owners = np.concatenate([live, live, live])
    values = func(probes, owners)
    n_live = live.shape[0]
    for offset, xs in ((0, mids), (n_live, lo[live]), (2 * n_live, hi[live])):
        vals = values[offset: offset + n_live]
        better = vals < best_f[live]
        best_x[live[better]] = xs[better]
        best_f[live[better]] = vals[better]
    return best_x, best_f


def weighted_power_sum(weights: Sequence[float], exponent: float) -> float:
    """Return ``sum(w ** exponent for w in weights)``.

    Tiny helper shared by the closed forms Eq. (4) and Eq. (8); isolated so
    tests can property-check it against numpy.
    """
    return float(sum(w ** exponent for w in weights))
