"""``repro.lint`` -- project-specific static analysis (``repro check``).

The repo enforces several invariants that generic linters cannot see:

* **determinism** -- cache keys, result rows and solver outputs must be
  bit-reproducible (no wall-clock, no unseeded randomness, no set-order
  dependence, no computed-float equality in solver code);
* **backend purity** -- the scalar/numpy dual numeric core stays
  byte-compatible only while every ndarray touch goes through
  :mod:`repro.core.vectorized` and ``REPRO_NUMERIC`` is read only by
  its sanctioned accessor, :mod:`repro.core.solve_config`;
* **concurrency** -- the solve service's locks are acquired in a
  consistent order, never held across ``await``, and the metrics
  registry's shared state is only mutated under its lock;
* **units** -- energy/power/time/speed quantities (all ``float``) are
  not additively mixed without conversion (see :mod:`repro.units`).

This package turns those conventions into machine-checked rules: a small
AST engine (:mod:`repro.lint.engine`), one module per rule family, a
baseline mechanism (:mod:`repro.lint.baseline`) that suppresses accepted
legacy findings so CI only fails on *new* violations, and the CLI runner
(:mod:`repro.lint.runner`) behind ``repro check``.

See docs/STATIC_ANALYSIS.md for the rule catalogue and how to add rules.
"""

from __future__ import annotations

from repro.lint.engine import (
    Finding,
    Project,
    Rule,
    SourceModule,
    all_rules,
    analyze_paths,
    load_rules,
    rule_catalogue,
)
from repro.lint.baseline import (
    BASELINE_DEFAULT,
    Baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.runner import CheckReport, render_json, render_text, run_check

__all__ = [
    "Finding",
    "Project",
    "Rule",
    "SourceModule",
    "all_rules",
    "analyze_paths",
    "load_rules",
    "rule_catalogue",
    "BASELINE_DEFAULT",
    "Baseline",
    "load_baseline",
    "write_baseline",
    "CheckReport",
    "render_json",
    "render_text",
    "run_check",
]
