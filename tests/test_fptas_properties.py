"""Property tests for the ε-approximate tier (hypothesis).

The contract under randomized instances and platforms, on every numeric
backend: ``energy(fptas, ε) <= (1 + ε) * energy(exact)``, and every
schedule the tier accepts is feasible — all placements inside task
windows, at or below ``s_up``, with no deadline misses.  Backend
coverage is explicit because the fptas pricing path is *claimed* to be
backend-independent by construction; these tests would catch any
backend-sensitive term sneaking into it.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import vectorized
from repro.core.agreeable import solve_agreeable
from repro.core.blocks import block_energy_cache_clear
from repro.core.common_release import solve_common_release
from repro.core.fptas import (
    solve_agreeable_fptas,
    solve_common_release_fptas,
)
from repro.core.solve_config import SolveConfig, using
from repro.core.transition import solve_common_release_with_overhead
from repro.models import CorePowerModel, MemoryModel, Platform, Task, TaskSet
from repro.schedule import validate_schedule

EPSILON = 0.1

BACKENDS = ["scalar"] + (["numpy", "jit"] if vectorized.HAS_NUMPY else [])


def per_backend(solve):
    """``solve()`` under every available backend with cold memo caches."""
    results = {}
    for backend in BACKENDS:
        block_energy_cache_clear()
        vectorized.block_arrays_cache_clear()
        with using(SolveConfig(backend)):
            results[backend] = solve()
    return results


# -- strategies ---------------------------------------------------------------

platforms = st.builds(
    lambda alpha, alpha_m, lam: Platform(
        CorePowerModel(beta=1e-6, lam=lam, alpha=alpha, s_up=2000.0),
        MemoryModel(alpha_m=alpha_m),
    ),
    alpha=st.sampled_from([0.0, 0.1, 2.0, 50.0]),
    alpha_m=st.floats(0.1, 200.0),
    lam=st.sampled_from([2.0, 2.5, 3.0]),
)

overhead_platforms = st.builds(
    lambda alpha, alpha_m, xi_m: Platform(
        CorePowerModel(beta=1e-6, lam=3.0, alpha=alpha, s_up=2000.0),
        MemoryModel(alpha_m=alpha_m, xi_m=xi_m),
    ),
    alpha=st.sampled_from([0.0, 2.0]),
    alpha_m=st.floats(0.5, 200.0),
    xi_m=st.floats(0.0, 30.0),
)

common_release_sets = st.lists(
    st.tuples(st.floats(5.0, 150.0), st.floats(10.0, 5000.0)),
    min_size=1,
    max_size=12,
).map(lambda pairs: TaskSet(Task(0.0, d, w) for d, w in pairs))


@st.composite
def agreeable_sets(draw):
    n = draw(st.integers(1, 12))
    releases = sorted(draw(st.floats(0.0, 300.0)) for _ in range(n))
    tasks, last_d = [], 0.0
    for r in releases:
        d = max(r + draw(st.floats(8.0, 80.0)), last_d + 0.5)
        tasks.append(Task(r, d, draw(st.floats(10.0, 3000.0))))
        last_d = d
    return TaskSet(tasks)


_slow = settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def assert_bounded(approx: float, exact: float) -> None:
    assert approx <= (1.0 + EPSILON) * exact + 1e-9 * max(1.0, exact)


# -- the (1+ε) bound, on every backend ----------------------------------------


@_slow
@given(tasks=agreeable_sets(), platform=platforms)
def test_agreeable_bound_holds_on_every_backend(tasks, platform):
    exact = solve_agreeable(tasks, platform).predicted_energy
    results = per_backend(
        lambda: solve_agreeable_fptas(
            tasks, platform, epsilon=EPSILON
        ).predicted_energy
    )
    for energy in results.values():
        assert_bounded(energy, exact)
    # Backend-independent by construction: identical floats, not approx.
    assert len(set(results.values())) == 1


@_slow
@given(tasks=common_release_sets, platform=platforms)
def test_common_release_bound_holds_on_every_backend(tasks, platform):
    exact = solve_common_release(tasks, platform).predicted_energy
    results = per_backend(
        lambda: solve_common_release_fptas(
            tasks, platform, epsilon=EPSILON
        ).predicted_energy
    )
    for energy in results.values():
        assert_bounded(energy, exact)
    assert len(set(results.values())) == 1


@_slow
@given(tasks=common_release_sets, platform=overhead_platforms)
def test_overhead_bound_holds(tasks, platform):
    exact = solve_common_release_with_overhead(tasks, platform).predicted_energy
    approx = solve_common_release_fptas(
        tasks, platform, epsilon=EPSILON
    ).predicted_energy
    assert_bounded(approx, exact)


@_slow
@given(tasks=agreeable_sets(), platform=overhead_platforms)
def test_agreeable_overhead_bound_holds(tasks, platform):
    exact = solve_agreeable(
        tasks, platform, include_transition_overhead=True
    ).predicted_energy
    approx = solve_agreeable_fptas(
        tasks, platform, epsilon=EPSILON, include_transition_overhead=True
    ).predicted_energy
    assert_bounded(approx, exact)


# -- feasibility of accepted schedules ----------------------------------------


@_slow
@given(tasks=agreeable_sets(), platform=platforms)
def test_agreeable_schedule_feasible(tasks, platform):
    """Placements inside windows, speeds <= s_up, workloads conserved."""
    solution = solve_agreeable_fptas(tasks, platform, epsilon=EPSILON)
    validate_schedule(
        solution.schedule(),
        tasks,
        max_speed=platform.core.s_up,
        require_non_preemptive=True,
    )


@_slow
@given(tasks=common_release_sets, platform=platforms)
def test_common_release_schedule_feasible(tasks, platform):
    solution = solve_common_release_fptas(tasks, platform, epsilon=EPSILON)
    validate_schedule(
        solution.schedule(), tasks, max_speed=platform.core.s_up
    )


def staggered_deadlines(n: int) -> TaskSet:
    """``n`` equal tasks released at 0 with deadlines 8, 8.5, 9, ..."""
    return TaskSet(Task(0.0, 8.0 + 0.5 * k, 10.0) for k in range(n))


def lam2_zero_alpha(alpha_m: float) -> Platform:
    return Platform(
        CorePowerModel(beta=1e-6, lam=2.0, alpha=0.0, s_up=2000.0),
        MemoryModel(alpha_m=alpha_m),
    )


# Counterexamples to an axis-only descent, which prices these about 2.1%
# above the optimum at ε = 0.02: it parks the block's start on the first
# deadline, where only translating the whole block saves energy.
@_slow
@example(tasks=staggered_deadlines(9), platform=lam2_zero_alpha(0.125), eps=0.02)
@example(tasks=staggered_deadlines(10), platform=lam2_zero_alpha(0.5), eps=0.02)
@example(tasks=staggered_deadlines(11), platform=lam2_zero_alpha(0.5), eps=0.02)
@example(tasks=staggered_deadlines(12), platform=lam2_zero_alpha(0.5), eps=0.02)
@given(tasks=agreeable_sets(), platform=platforms, eps=st.sampled_from([0.02, 0.5, 2.0]))
def test_bound_scales_with_epsilon(tasks, platform, eps):
    """The contract holds at the extremes of the legal ε range too."""
    exact = solve_agreeable(tasks, platform).predicted_energy
    approx = solve_agreeable_fptas(tasks, platform, epsilon=eps).predicted_energy
    assert approx <= (1.0 + eps) * exact + 1e-9 * max(1.0, exact)
