"""Compiled solver kernels backing the ``REPRO_NUMERIC=jit`` backend.

This package owns every cffi import in the tree (lint rule BCK004
enforces that) and hides the compiled provider behind a tiny protocol:

* :func:`load` builds the cffi-compiled C provider once per process and
  **self-checks** it against the pure Python references before accepting
  it.  A build whose output drifts from the reference by even one bit on
  the row-identity-critical kernels is rejected, so "jit available"
  always implies "jit agrees".
* :func:`available` / :func:`load_error` report the outcome;
  :func:`warm_up` forces compilation outside timed regions;
  :func:`cache_dir` / :func:`clear` manage the on-disk compile cache.
* The module-level wrappers (:func:`overhead_solve_small`,
  :func:`block_energy`, :func:`block_energy_batch`,
  :func:`solve_block_descent`, :func:`powersum_roots`) adapt
  task-set/platform objects to the raw array protocol, caching the
  flattened platform parameters.

The package deliberately uses no numpy of its own, so the jit backend
still functions -- and degrades cleanly -- on hosts without numpy.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.kernels._csource import REPRO_KERNELS_ABI, REPRO_MAX_SMALL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.models.platform import Platform
    from repro.models.task import TaskSet

__all__ = [
    "JitUnavailableWarning",
    "REPRO_KERNELS_ABI",
    "REPRO_MAX_SMALL",
    "available",
    "block_energy",
    "block_energy_batch",
    "cache_dir",
    "clear",
    "load",
    "load_error",
    "overhead_solve_small",
    "powersum_roots",
    "provider_name",
    "solve_block_descent",
    "warm_up",
]


class JitUnavailableWarning(RuntimeWarning):
    """Structured warning for jit-backend degradation (never an error)."""


_lock = threading.Lock()
_provider: Optional[Any] = None
_load_attempted = False
_load_error: Optional[str] = None

_PARAMS_LIMIT = 64
_params_cache: dict = {}
_last_platform: Optional[Any] = None
_last_params: Tuple[float, ...] = ()


def _platform_params(platform: "Platform") -> Tuple[float, ...]:
    """Flattened ``(alpha, beta, lam, s_m, s_up, xi, alpha_m, xi_m)``.

    ``s_m`` is hoisted here because the property recomputes its root on
    every access; Platform is frozen/hashable so the cache is sound.  The
    identity fast path skips even the dataclass hash: the replan loop
    solves thousands of instances against one Platform object, and
    hashing it dominates a sub-10us kernel call.
    """
    global _last_platform, _last_params
    if platform is _last_platform:
        return _last_params
    hit = _params_cache.get(platform)
    if hit is None:
        core = platform.core
        memory = platform.memory
        hit = (
            core.alpha,
            core.beta,
            core.lam,
            core.s_m,
            core.s_up,
            core.xi,
            memory.alpha_m,
            memory.xi_m,
        )
        if len(_params_cache) >= _PARAMS_LIMIT:
            _params_cache.clear()
        _params_cache[platform] = hit
    _last_platform = platform
    _last_params = hit
    return hit


# ---------------------------------------------------------------------------
# Provider resolution + self-check
# ---------------------------------------------------------------------------


def _reference_platforms() -> List["Platform"]:
    from repro.models.platform import paper_platform

    shared = paper_platform(num_cores=None, xi=5.0)
    return [shared, shared.negligible_core_static()]


def _reference_tasksets() -> List["TaskSet"]:
    from repro.models.task import Task, TaskSet

    return [
        TaskSet([Task(0.0, 50.0, 30000.0)]),
        TaskSet(
            [
                Task(0.0, 40.0, 20000.0, name="a"),
                Task(0.0, 60.0, 45000.0, name="b"),
                Task(0.0, 60.0, 15000.0, name="c"),
            ]
        ),
        TaskSet(
            [
                Task(0.0, 30.0, 9000.0),
                Task(0.0, 55.0, 40000.0),
                Task(0.0, 80.0, 52000.0),
                Task(0.0, 80.0, 11000.0),
                Task(0.0, 120.0, 70000.0),
            ]
        ),
    ]


def _self_check(provider: Any) -> Optional[str]:
    """Compare provider output against the Python references.

    Returns an error description on the first mismatch, ``None`` when the
    provider is trustworthy.  The overhead solve and block energy must be
    *bit-identical* (they drive cross-backend row identity); the descent
    and root finds may differ by at most 1e-9 (their output feeds rounded
    schedule rows).
    """
    from repro.core import blocks, vectorized

    platforms = _reference_platforms()
    tasksets = _reference_tasksets()
    for platform in platforms:
        params = _platform_params(platform)
        for tasks in tasksets:
            sig = tasks.energy_signature()
            rel_end = tasks.latest_deadline - tasks[0].release + 25.0
            expected = vectorized.overhead_solve_small(tasks, platform, rel_end)
            got = provider.overhead_solve_small(
                sig, tasks.latest_deadline, params, rel_end
            )
            if got != expected:
                return (
                    f"overhead_solve_small mismatch on n={len(tasks)}: "
                    f"{got!r} != {expected!r}"
                )
            span = tasks.latest_deadline - tasks.earliest_release
            probes = [
                (tasks.earliest_release, tasks.latest_deadline),
                (tasks.earliest_release + 0.25 * span, tasks.latest_deadline),
                (tasks.earliest_release, tasks.earliest_release + 0.1 * span),
                (tasks.latest_deadline, tasks.earliest_release),
            ]
            starts = [p[0] for p in probes]
            ends = [p[1] for p in probes]
            got_be = provider.block_energy_batch(sig, params, starts, ends)
            expected_be = [
                blocks._block_energy_scalar(tasks, platform, s, e)
                for s, e in probes
            ]
            if list(got_be) != expected_be:
                return (
                    f"block_energy_batch mismatch on n={len(tasks)}: "
                    f"{got_be!r} != {expected_be!r}"
                )

    platform = platforms[0]
    params = _platform_params(platform)
    tasks = tasksets[1]
    sig = tasks.energy_signature()
    s_lo, s_hi = tasks.earliest_release, tasks[0].deadline
    e_lo, e_hi = tasks[-1].release, tasks.latest_deadline
    mid = 0.5 * (s_lo + e_hi)
    starts = [(s_lo, e_hi), (mid, mid), (s_lo, e_lo if e_lo > s_lo else e_hi), (s_hi, e_hi)]
    expected_xy = blocks._minimize_2d(
        lambda s, e: blocks._block_energy_scalar(tasks, platform, s, e),
        (s_lo, s_hi),
        (e_lo, e_hi),
        starts,
    )
    got_xy = provider.solve_block_descent(
        sig, params, (s_lo, s_hi), (e_lo, e_hi), starts, 1e-9, 80
    )
    if any(abs(g - e) > 1e-9 for g, e in zip(got_xy, expected_xy)):
        return f"solve_block_descent mismatch: {got_xy!r} != {expected_xy!r}"

    from repro.utils.solvers import bisect_increasing

    # Both root modes blocks._sweep_cells_alpha_zero_numpy uses: mode 0
    # is the head slope over deadlines, mode 1 the tail condition over
    # (staggered) releases.
    deadlines = [t.deadline for t in tasks]
    releases = [0.0, 5.0, 12.0]
    workloads = [t.workload for t in tasks]
    lam = platform.core.lam
    target = 4.0e9
    head_mask = bytes([1, 1, 0])
    tail_mask = bytes([0, 1, 1])

    def head_slope(start: float) -> float:
        acc = 0.0
        for flag, d, w in zip(head_mask, deadlines, workloads):
            if not flag:
                continue
            length = d - start
            if length <= 0.0:
                return float("inf")
            acc += (w / length) ** lam
        return acc - target

    def tail_condition(end: float) -> float:
        acc = 0.0
        for flag, r, w in zip(tail_mask, releases, workloads):
            if not flag:
                continue
            length = end - r
            if length <= 0.0:
                return float("-inf")
            acc += (w / length) ** lam
        return target - acc

    root_probes = (
        (0, deadlines, head_mask, head_slope, 0.0, deadlines[0]),
        (1, releases, tail_mask, tail_condition, releases[-1], tasks.latest_deadline),
    )
    for mode, values, mask, closure, lo, hi in root_probes:
        expected_root = bisect_increasing(closure, lo, hi)
        got_root = provider.powersum_roots(
            values, workloads, mask, 1, [lo], [hi], target, lam, mode, 1e-12, 200
        )[0]
        if abs(got_root - expected_root) > 1e-9:
            return (
                f"powersum_roots mode {mode} mismatch: "
                f"{got_root!r} != {expected_root!r}"
            )
    return None


def _resolve_provider() -> Tuple[Optional[Any], Optional[str]]:
    try:
        from repro.core.kernels._cffi_provider import build

        candidate = build()
    except Exception as exc:  # pragma: no cover - toolchain-dependent
        return None, f"cffi: {type(exc).__name__}: {exc}"
    try:
        failure = _self_check(candidate)
    except Exception as exc:  # pragma: no cover - toolchain-dependent
        failure = f"self-check raised {type(exc).__name__}: {exc}"
    if failure is None:
        return candidate, None
    return None, f"cffi: {failure}"  # pragma: no cover


def load() -> bool:
    """Resolve and self-check a provider once per process; True on success."""
    global _provider, _load_attempted, _load_error
    if _load_attempted:
        return _provider is not None
    with _lock:
        if _load_attempted:
            return _provider is not None
        provider, error = _resolve_provider()
        _provider = provider
        _load_error = error
        _load_attempted = True
    return _provider is not None


def available() -> bool:
    """True when a self-checked compiled provider is loaded (loads lazily)."""
    return load()


def provider_name() -> Optional[str]:
    """``"cffi"`` after a successful load, else ``None``."""
    return getattr(_provider, "name", None) if load() else None


def load_error() -> Optional[str]:
    """Why the jit tier is unavailable (``None`` when it is available)."""
    load()
    return _load_error


def clear() -> None:
    """Forget the resolved provider and its caches (tests, reconfiguration).

    Does not delete on-disk compile artifacts -- those are content
    addressed (see :func:`cache_dir`) and reused safely across processes.
    """
    global _provider, _load_attempted, _load_error, _last_platform, _last_params
    with _lock:
        if _provider is not None:
            _provider.clear_caches()
        _provider = None
        _load_attempted = False
        _load_error = None
        _params_cache.clear()
        _last_platform = None
        _last_params = ()


def cache_dir() -> Optional[str]:
    """On-disk compile-cache directory for the cffi build (None if cffi
    cannot even be imported)."""
    try:
        from repro.core.kernels import _cffi_provider
    except Exception:  # pragma: no cover - host-dependent
        return None
    return _cffi_provider.cache_dir()


def warm_up() -> Optional[str]:
    """Force provider resolution + compilation now; returns provider name.

    Benches call this before timing so first-call compile cost never
    pollutes measured numbers.  Harmless no-op when jit is unavailable.
    """
    if not load():
        return None
    from repro.models.task import Task, TaskSet

    platform = _reference_platforms()[0]
    tasks = TaskSet([Task(0.0, 50.0, 30000.0), Task(0.0, 90.0, 40000.0)])
    overhead_solve_small(tasks, platform, 120.0)
    block_energy(tasks, platform, 0.0, 90.0)
    solve_block_descent(
        tasks, platform, (0.0, 50.0), (0.0, 90.0), [(0.0, 90.0)]
    )
    powersum_roots(
        [t.deadline for t in tasks],
        [t.workload for t in tasks],
        bytes([1, 1]),
        1,
        [0.0],
        [40.0],
        1.0e9,
        platform.core.lam,
        0,
    )
    return provider_name()


# ---------------------------------------------------------------------------
# Kernel wrappers (object -> raw-array adaptation)
# ---------------------------------------------------------------------------


def overhead_solve_small(
    tasks: "TaskSet", platform: "Platform", rel_end: float
) -> Tuple[float, Sequence[float], Sequence[int], Optional[Tuple[float, float, int]]]:
    """Compiled Section 7 fused solve; drop-in for
    :func:`repro.core.vectorized.overhead_solve_small`."""
    assert _provider is not None
    return _provider.overhead_solve_small(
        tasks.energy_signature(),
        tasks.latest_deadline,
        _platform_params(platform),
        rel_end,
    )


def block_energy(
    tasks: "TaskSet", platform: "Platform", start: float, end: float
) -> float:
    """Compiled single block-energy evaluation (batch of one)."""
    assert _provider is not None
    return _provider.block_energy_batch(
        tasks.energy_signature(), _platform_params(platform), [start], [end]
    )[0]


def block_energy_batch(
    tasks: "TaskSet",
    platform: "Platform",
    starts: Sequence[float],
    ends: Sequence[float],
) -> List[float]:
    """Compiled block energies at K ``(start, end)`` candidates."""
    assert _provider is not None
    return _provider.block_energy_batch(
        tasks.energy_signature(), _platform_params(platform), starts, ends
    )


def solve_block_descent(
    tasks: "TaskSet",
    platform: "Platform",
    x_bounds: Tuple[float, float],
    y_bounds: Tuple[float, float],
    starts: Sequence[Tuple[float, float]],
    *,
    tol: float = 1e-9,
    max_rounds: int = 80,
) -> Tuple[float, float, float]:
    """Compiled coordinate+diagonal descent over the block objective."""
    assert _provider is not None
    return _provider.solve_block_descent(
        tasks.energy_signature(),
        _platform_params(platform),
        x_bounds,
        y_bounds,
        starts,
        tol,
        max_rounds,
    )


def powersum_roots(
    values: Sequence[float],
    workloads: Sequence[float],
    masks: bytes,
    count: int,
    lo: Sequence[float],
    hi: Sequence[float],
    target: float,
    lam: float,
    mode: int,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> List[float]:
    """Compiled batched bisection over the alpha=0 power-sum closures.

    ``mode`` 0 treats ``values`` as deadlines (head slope), 1 as releases
    (tail condition); ``masks`` is ``count * len(values)`` bytes of 0/1
    row-major membership flags.
    """
    assert _provider is not None
    return _provider.powersum_roots(
        values, workloads, masks, count, lo, hi, target, lam, mode, tol, max_iter
    )
