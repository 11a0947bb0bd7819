"""Transition-overhead-aware schemes (paper Section 7).

When waking up costs energy, sleeping is only worth it for gaps longer than
the break-even times (``xi`` for a core, ``xi_m`` for the memory).  The
paper extends the common-release scheme of Section 4.2 in three moves:

1. replace the critical speed by the *constrained* critical speed ``s_c``
   (:meth:`repro.models.power.CorePowerModel.s_c`): a task whose leftover
   gap could never amortize a core sleep simply runs at its filled speed;
2. keep the case analysis over the sleep length ``Delta``, but evaluate
   every candidate with break-even-aware gap pricing -- each component
   crosses its idle gap at ``min(static * gap, static * break_even)``;
3. pick the best of the per-regime stationary points and the kink points
   ``{0, xi, xi_m}``.  Table 3's four rows are exactly the outcomes of this
   candidate sweep, because each smooth piece of the total-energy curve
   corresponds to one sleep/stay-awake regime whose interior stationary
   point is an Eq. (8)-type closed form with a different effective static
   coefficient:

   * both memory and aligned cores sleep -> ``(n-i+1) alpha + alpha_m``;
   * memory sleeps, cores idle awake     -> ``alpha_m`` (the Eq. (4) form);
   * memory awake, cores sleep           -> ``(n-i+1) alpha``.

The returned solution's ``predicted_energy`` equals pricing the emitted
schedule with :func:`repro.energy.accounting.account` under
``SleepPolicy.BREAK_EVEN`` for both components over ``[release, release +
|I|]`` -- the test suite asserts this equality and compares against a dense
numeric reference.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.core import kernels, vectorized
from repro.core.common_release import CommonReleaseSolution
from repro.models.platform import Platform
from repro.models.task import TaskSet
from repro.utils.solvers import record_solver_call

__all__ = [
    "solve_common_release_with_overhead",
    "overhead_energy_at_delta",
]

_INF = float("inf")


def _gap_cost(static: float, gap: float, break_even: float) -> float:
    """Cheapest way one component crosses an idle gap."""
    if static == 0.0 or gap <= 0.0:
        return 0.0
    return min(static * gap, static * break_even)


def _schedule_geometry(
    tasks: TaskSet, platform: Platform
) -> Tuple[float, List[float], List[float], List]:
    """Common geometry: per-task natural finish under the overhead model.

    With ``alpha = 0`` the natural finish is the deadline (filled speed);
    with ``alpha != 0`` it is the completion at the constrained critical
    speed ``s_c``.  Returns ``(horizon, natural_ends, workloads, order)``
    with tasks sorted by natural end, all on the release-relative axis.
    """
    core = platform.core
    release = tasks[0].release
    if core.alpha == 0.0:
        annotated = [(t.deadline - release, t) for t in tasks]
        horizon = max(end for end, _ in annotated)
    else:
        # s_c is defined against the maximal interval |I| = d_n - r.
        outer = tasks.latest_deadline - release
        annotated = [(t.workload / core.s_c(t, outer), t) for t in tasks]
        horizon = max(end for end, _ in annotated)
    annotated.sort(key=lambda pair: pair[0])
    ends = [end for end, _ in annotated]
    order = [t for _, t in annotated]
    workloads = [t.workload for t in order]
    return horizon, ends, workloads, order


def overhead_energy_at_delta(
    tasks: TaskSet,
    platform: Platform,
    delta: float,
    *,
    horizon_end: Optional[float] = None,
) -> float:
    """Total energy (with transition overheads) at sleep length ``delta``.

    Tasks whose natural finish lands inside the sleep window are aligned to
    finish at ``|I| - delta``; the others keep their natural speed.  All
    idle gaps are priced with break-even-aware gap costs over
    ``[release, horizon_end]`` -- by default up to the latest deadline, so
    the *trailing* idle time (after the last completion) also counts
    toward amortizing a sleep transition.  With common releases all common
    idle is one trailing window, so the memory's effective gap is
    ``horizon_end - busy_end``, not just the in-``|I|`` part ``delta``.
    Returns ``inf`` when ``delta`` forces an overspeed.
    """
    core = platform.core
    memory = platform.memory
    release = tasks[0].release
    rel_end = (
        tasks.latest_deadline - release
        if horizon_end is None
        else horizon_end - release
    )
    horizon, ends, _, order = _schedule_geometry(tasks, platform)
    if rel_end < horizon - 1e-9:
        raise ValueError(
            f"horizon_end {horizon_end} precedes the schedule end "
            f"{release + horizon}"
        )
    busy_end = horizon - delta
    if busy_end <= 0.0:
        return _INF
    total = memory.alpha_m * busy_end + _gap_cost(
        memory.alpha_m, rel_end - busy_end, memory.xi_m
    )
    for natural, task in zip(ends, order):
        finish = min(natural, busy_end)
        speed = task.workload / finish
        if speed > core.s_up * (1.0 + 1e-9):
            return _INF
        total += core.execution_energy(task.workload, speed)
        total += _gap_cost(core.alpha, rel_end - finish, core.xi)
    return total


def solve_common_release_with_overhead(
    tasks: TaskSet,
    platform: Platform,
    *,
    horizon_end: Optional[float] = None,
    check_inputs: bool = True,
) -> CommonReleaseSolution:
    """Section 7's overhead-aware common-release scheme (Theorem 5).

    Scans the ``n`` cases of the Section 4 geometry; in each case evaluates
    the per-regime stationary points plus the Table 3 kink candidates
    ``{0, xi, xi_m}`` under break-even pricing and returns the global best.

    ``horizon_end`` (default: the latest deadline) closes the accounting
    window; trailing idle up to it counts toward amortizing sleep
    transitions, so the returned ``predicted_energy`` equals pricing the
    emitted schedule over ``[release, horizon_end]`` with
    ``SleepPolicy.BREAK_EVEN``.

    ``check_inputs=False`` skips the common-release / feasibility input
    guards for callers that guarantee them structurally -- the online
    replan loop re-anchors every task at the same instant and only ever
    tightens speeds toward ``s_up``, and re-checking on each of its
    thousands of solves is measurable (docs/PERFORMANCE.md).  The solver's
    output is identical either way.
    """
    record_solver_call("overhead_delta")
    core = platform.core
    if check_inputs:
        if not tasks.has_common_release():
            raise ValueError(
                "the Section 7 scheme requires a common release time"
            )
        if not tasks.is_feasible_at(core.s_up):
            raise ValueError("task set infeasible even at s_up")

    release = tasks[0].release
    rel_end = (
        tasks.latest_deadline - release
        if horizon_end is None
        else horizon_end - release
    )
    best: Optional[Tuple[float, float, int]] = None
    backend = vectorized.get_backend()
    if backend != "scalar":
        # The online replan loop solves thousands of 1-8 task instances;
        # the fused solve runs the same geometry / prefix scan / candidate
        # fold in one frame.  Under jit the compiled transcription takes
        # every set its stack buffers hold; the kernel self-check pins it
        # bit-identical to the Python fused solve.
        if backend == "jit" and len(tasks) <= kernels.REPRO_MAX_SMALL:
            solve = kernels.overhead_solve_small
        else:
            solve = vectorized.overhead_solve_small
        horizon, ends, order_idx, best = solve(tasks, platform, rel_end)
        if best is None and rel_end < horizon - 1e-9:
            raise ValueError(
                f"horizon_end {horizon_end} precedes the schedule end "
                f"{release + horizon}"
            )
        ordered_tasks = tasks.tasks
        order = [ordered_tasks[k] for k in order_idx]
    else:
        horizon, ends, workloads, order = _schedule_geometry(tasks, platform)
        n = len(order)
        # Gap lengths exceed the in-|I| sleep by this trailing allowance,
        # which shifts the break-even kink positions on the Delta axis.
        shift = rel_end - horizon

        delta_bp = [_INF] + [horizon - c for c in ends]
        lam, beta = core.lam, core.beta
        suffix_wlam = [0.0] * (n + 1)
        suffix_max_w = [0.0] * (n + 1)
        for j in range(n - 1, -1, -1):
            suffix_wlam[j] = suffix_wlam[j + 1] + workloads[j] ** lam
            suffix_max_w[j] = max(suffix_max_w[j + 1], workloads[j])

        beta_lam = beta * (lam - 1.0)
        inv_lam = 1.0 / lam
        memory = platform.memory
        alpha, alpha_m = core.alpha, memory.alpha_m
        s_up, core_xi, mem_xi = core.s_up, core.xi, memory.xi_m
        kinks = (0.0, core_xi - shift, mem_xi - shift)

        for i in range(1, n + 1):
            lo = delta_bp[i]
            cap = horizon - suffix_max_w[i - 1] / s_up
            hi = min(delta_bp[i - 1], cap, horizon)
            if hi < lo:
                continue
            aligned = n - i + 1
            candidates = {lo, hi if math.isfinite(hi) else lo}
            # Eq. (8)-type stationary point per sleep/stay-awake regime,
            # each with its own effective static coefficient (Table 3).
            factor = beta_lam * suffix_wlam[i - 1]
            for coeff in (
                aligned * alpha + alpha_m,  # both sleep
                alpha_m,  # cores idle awake
                aligned * alpha,  # memory stays awake
            ):
                if coeff > 0.0:
                    point = horizon - (factor / coeff) ** inv_lam
                    candidates.add(min(max(point, lo), hi))
            for kink in kinks:
                if lo <= kink <= hi:
                    candidates.add(kink)
            for delta in sorted(candidates):
                energy = overhead_energy_at_delta(
                    tasks, platform, delta, horizon_end=horizon_end
                )
                if best is None or energy < best[1] - 1e-12:
                    best = (delta, energy, i)
    if best is None:  # pragma: no cover - guarded by feasibility check
        raise RuntimeError("no feasible case found")
    delta_opt, energy_opt, case_idx = best

    busy_end = horizon - delta_opt
    finish: Dict[str, float] = {}
    speeds: Dict[str, float] = {}
    for natural, task in zip(ends, order):
        end_rel = min(natural, busy_end)
        finish[task.name] = release + end_rel
        speeds[task.name] = task.workload / end_rel
    return CommonReleaseSolution(
        tasks=tasks,
        release=release,
        interval_end=release + horizon,
        delta=delta_opt,
        case_index=case_idx,
        finish_times=finish,
        speeds=speeds,
        predicted_energy=energy_opt,
        alpha_zero=core.alpha == 0.0,
    )
