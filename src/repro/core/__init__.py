"""SDEM core algorithms (the paper's contribution).

Modules map one-to-one onto the paper's sections:

* :mod:`repro.core.common_release` -- Section 4's optimal schemes for
  common-release-time tasks (``alpha = 0`` and ``alpha != 0``);
* :mod:`repro.core.blocks` / :mod:`repro.core.blocks_alpha` -- Section 5's
  per-block local optimum for agreeable-deadline task subsets;
* :mod:`repro.core.agreeable` -- Section 5's dynamic programs over blocks;
* :mod:`repro.core.online` -- Section 6's SDEM-ON online heuristic;
* :mod:`repro.core.transition` -- Section 7's transition-overhead-aware
  extensions (Table 3);
* :mod:`repro.core.bounded` -- Section 3's bounded-core analysis
  (Theorem 1 closed forms and exact/heuristic partitioners);
* :mod:`repro.core.reference` -- slow, brutally simple reference
  optimizers the test-suite certifies the fast schemes against;
* :mod:`repro.core.solve_config` -- the one solve configuration (numeric
  backend, solver tier, ε) every solve runs under;
* :mod:`repro.core.vectorized` -- the batched NumPy numeric core behind
  the block / case-scan hot paths;
* :mod:`repro.core.fptas` -- the ε-approximate solver tier
  (``--solver exact|fptas``) for huge-n instances the exact DPs cannot
  reach (after Antoniadis, Huang & Ott, arXiv:1407.0892).
"""

from repro.core.common_release import (
    CommonReleaseSolution,
    solve_common_release,
    solve_common_release_alpha_zero,
    solve_common_release_alpha_nonzero,
)
from repro.core.blocks import BlockSolution, TaskPlacement, block_energy, solve_block
from repro.core.agreeable import AgreeableSolution, solve_agreeable
from repro.core.transition import (
    overhead_energy_at_delta,
    solve_common_release_with_overhead,
)
from repro.core.online import SdemOnlinePolicy
from repro.core.bounded import (
    BoundedSolution,
    balanced_partition_energy,
    optimal_busy_interval_two_cores,
    partition_tasks,
    solve_bounded_common_deadline,
)
from repro.core.heterogeneous import (
    HeterogeneousSolution,
    solve_common_release_heterogeneous,
)
from repro.core.discrete import (
    a57_levels,
    quantization_overhead,
    quantize_schedule,
    split_interval,
)
from repro.core.partitioned import (
    PartitionedSolution,
    solve_partitioned_common_release,
)
from repro.core.islands import IslandSolution, solve_islands_common_release
from repro.core.solve_config import SolveConfig, using
from repro.core.vectorized import available_backends, get_backend
from repro.core.fptas import (
    get_solver_epsilon,
    get_solver_tier,
    solve_agreeable_fptas,
    solve_agreeable_fptas_columns,
    solve_common_release_fptas,
)

__all__ = [
    "SolveConfig",
    "using",
    "available_backends",
    "get_backend",
    "get_solver_epsilon",
    "get_solver_tier",
    "solve_agreeable_fptas",
    "solve_agreeable_fptas_columns",
    "solve_common_release_fptas",
    "CommonReleaseSolution",
    "solve_common_release",
    "solve_common_release_alpha_zero",
    "solve_common_release_alpha_nonzero",
    "BlockSolution",
    "TaskPlacement",
    "block_energy",
    "solve_block",
    "AgreeableSolution",
    "solve_agreeable",
    "overhead_energy_at_delta",
    "solve_common_release_with_overhead",
    "SdemOnlinePolicy",
    "BoundedSolution",
    "balanced_partition_energy",
    "optimal_busy_interval_two_cores",
    "partition_tasks",
    "solve_bounded_common_deadline",
    "HeterogeneousSolution",
    "solve_common_release_heterogeneous",
    "a57_levels",
    "quantization_overhead",
    "quantize_schedule",
    "split_interval",
    "PartitionedSolution",
    "solve_partitioned_common_release",
    "IslandSolution",
    "solve_islands_common_release",
]
