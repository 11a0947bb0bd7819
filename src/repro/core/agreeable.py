"""Optimal schemes for agreeable-deadline tasks (paper Section 5).

Lemma 4 shows an optimal schedule exists in which the deadline order of the
tasks is respected across blocks: sorting tasks by deadline, each memory
busy interval (*block*) hosts a consecutive run of that order.  The global
optimum therefore decomposes as a dynamic program over prefixes,

    OPT(q) = min over p < q of  OPT(p) + Emin(p+1 .. q)  [+ alpha_m * xi_m]

where ``Emin`` is the single-block local optimum of Section 5.1.1 / 5.2.1
(:func:`repro.core.blocks.solve_block`) and the bracketed term is the
Section 7 per-block memory transition overhead, charged once per block
because a block costs exactly one sleep/wake cycle.

Complexities match the paper's Table 1 up to the inner solver: the DP
itself is O(n^2) block evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Tuple

from repro.core import vectorized
from repro.core.blocks import BlockSolution, solve_block, solve_blocks_by_length
from repro.models.platform import Platform
from repro.models.task import TaskSet
from repro.schedule.timeline import ExecutionInterval, Schedule

__all__ = ["AgreeableSolution", "solve_agreeable"]


@dataclass(frozen=True)
class AgreeableSolution:
    """Result of the Section 5 dynamic program.

    ``predicted_energy`` includes ``len(blocks)`` memory transition
    overheads when ``include_transition_overhead`` was requested.
    """

    tasks: TaskSet
    blocks: Tuple[BlockSolution, ...]
    predicted_energy: float
    block_overhead: float

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_intervals(self) -> List[Tuple[float, float]]:
        """The memory busy intervals, in time order."""
        return sorted((b.start, b.end) for b in self.blocks)

    def schedule(self) -> Schedule:
        """One core per task across all blocks (unbounded-core model)."""
        placements = [
            ExecutionInterval(p.name, p.start, p.end, p.speed)
            for block in self.blocks
            for p in block.placements
        ]
        return Schedule.one_task_per_core(placements)


def solve_agreeable(
    tasks: TaskSet,
    platform: Platform,
    *,
    block_method: Literal["descent", "pairs"] = "descent",
    include_transition_overhead: bool = False,
) -> AgreeableSolution:
    """Optimal agreeable-deadline SDEM schedule (Sections 5 and 7).

    Parameters
    ----------
    tasks:
        An agreeable task set (later release implies later deadline).
    platform:
        Dispatches on ``platform.core.alpha`` between the Section 5.1
        (``alpha = 0``) and Section 5.2 (``alpha != 0``) block solvers.
    block_method:
        Inner single-block solver; see :func:`repro.core.blocks.solve_block`.
    include_transition_overhead:
        Charge ``alpha_m * xi_m`` per block in the DP (the Section 7
        extension).  With a positive overhead the DP naturally merges
        blocks whose separation cannot amortize a sleep cycle.

    Under the numpy backend the ``'descent'`` blocks are priced together,
    one batched descent per block length
    (:func:`repro.core.blocks.solve_blocks_by_length`), bit-identical to
    per-block :func:`~repro.core.blocks.solve_block` calls but bypassing
    its per-block memo.  Repeated whole-instance solves are served by the
    result cache (:mod:`repro.experiments.cache`) in the sweep engine and
    the solve service, not by this function.
    """
    if not tasks.is_agreeable():
        raise ValueError("Section 5 schemes require agreeable deadlines")
    if not tasks.is_feasible_at(platform.core.s_up):
        raise ValueError("task set infeasible even at s_up")

    overhead = (
        platform.memory.transition_energy() if include_transition_overhead else 0.0
    )
    n = len(tasks)

    # Gap pruning: when memory leakage is positive and sleeping is free
    # (no per-block overhead), a block spanning a *feasibility gap* --
    # task k+1 released strictly after task k's deadline -- is provably
    # dominated: splitting the busy interval at the gap leaves every task
    # window unchanged (deadline order bounds the left tasks' deadlines by
    # the gap start, agreeable releases bound the right tasks' releases by
    # the gap end) while shortening the memory-awake time by at least the
    # gap, i.e. saving >= alpha_m * gap.  Skipping those blocks turns the
    # O(n^2) block pricing into O(sum of per-cluster n_c^2) on clustered
    # traces without changing the DP optimum.  With a positive overhead
    # merging across a gap can amortize a sleep cycle, so no pruning then.
    prune_gaps = platform.memory.alpha_m > 0.0 and overhead == 0.0
    gap_after = [
        tasks[k + 1].release > tasks[k].deadline + 1e-9 for k in range(n - 1)
    ]

    # Price every consecutive block tau'[p:q] that can appear in an optimum.
    spans: List[Tuple[int, int]] = []
    for p in range(n):
        spans_gap = False
        for q in range(p + 1, n + 1):
            if q >= p + 2 and gap_after[q - 2]:
                spans_gap = True
            if not (prune_gaps and spans_gap):
                spans.append((p, q))
    block_solutions: Dict[Tuple[int, int], BlockSolution]
    if block_method == "descent" and vectorized.get_backend() == "numpy":
        block_solutions = solve_blocks_by_length(tasks, platform, spans)
    else:
        block_solutions = {
            (p, q): solve_block(tasks.subset(p, q), platform, method=block_method)
            for p, q in spans
        }

    # DP over prefixes (Lemma 4 ordering).  Singleton blocks are never
    # pruned, so a finite-cost path always exists.
    best_cost = [math.inf] * (n + 1)
    best_prev: List[Optional[int]] = [None] * (n + 1)
    best_cost[0] = 0.0
    for q in range(1, n + 1):
        for p in range(q):
            solution = block_solutions.get((p, q))
            if solution is None:
                continue
            candidate = best_cost[p] + solution.energy + overhead
            if candidate < best_cost[q]:
                best_cost[q] = candidate
                best_prev[q] = p

    # Reconstruct the chosen partition.
    blocks: List[BlockSolution] = []
    q = n
    while q > 0:
        p = best_prev[q]
        assert p is not None
        blocks.append(block_solutions[(p, q)])
        q = p
    blocks.reverse()

    return AgreeableSolution(
        tasks=tasks,
        blocks=tuple(blocks),
        predicted_energy=best_cost[n],
        block_overhead=overhead,
    )
