"""Idle-window edge cases for the segment-table accountant.

The batched pricing kernel only engages above the small-table cutoff, so
every scenario here is built both small (scalar reference loop) and
large (>_SMALL_N segments, numpy batch when available) and checked
against the independent full path (:func:`repro.energy.accounting.account`
over a materialized ``Schedule``).  Covered shapes:

* zero-length idle windows -- abutting segments and busy spans that
  exactly touch the horizon boundaries must price no gap at all;
* back-to-back sleep opportunities shorter than ``xi_m`` -- BREAK_EVEN
  must keep the memory powered (no sleep credit), ALWAYS must pay the
  transition per gap;
* all-cores-idle boundaries -- leading/trailing windows where no core
  runs anything, including a horizon far wider than the busy span.
"""

from __future__ import annotations

import pytest

from repro.core import vectorized
from repro.core.solve_config import SolveConfig, using
from repro.energy.accounting import (
    SleepPolicy,
    _account_segments_scalar,
    account,
    account_segments,
)
from repro.models import CorePowerModel, MemoryModel, Platform
from repro.schedule.timeline import CoreTimeline, ExecutionInterval, Schedule

REL_TOL = 1e-9

POLICIES = (SleepPolicy.BREAK_EVEN, SleepPolicy.ALWAYS, SleepPolicy.NEVER)


def platform_with(xi_m: float = 8.0, xi: float = 5.0) -> Platform:
    return Platform(
        CorePowerModel(beta=1e-6, lam=3.0, alpha=2.0, s_up=1000.0, xi=xi),
        MemoryModel(alpha_m=10.0, xi_m=xi_m),
        num_cores=4,
    )


def seg(core: int, start: float, end: float, speed: float = 100.0, name: str = ""):
    label = name or f"t{core}_{start:.3f}"
    return (core, ExecutionInterval(label, start, end, speed))


def schedule_of(segments):
    per_core = {}
    for core, interval in segments:
        per_core.setdefault(core, []).append(interval)
    count = max(per_core) + 1
    return Schedule(CoreTimeline(per_core.get(i, [])) for i in range(count))


def assert_matches_full_path(segments, platform, horizon):
    """account_segments == the Schedule-based accountant, per policy,
    on whichever backend is currently selected."""
    priced = account_segments(
        segments, platform, horizon=horizon, memory_policies=POLICIES
    )
    schedule = schedule_of(segments)
    for policy, fast in zip(POLICIES, priced):
        reference = account(
            schedule, platform, horizon=horizon, memory_policy=policy
        )
        assert fast.total == pytest.approx(reference.total, rel=REL_TOL)
        assert fast.memory_total == pytest.approx(
            reference.memory_total, rel=REL_TOL
        )
        assert fast.memory_sleep_time == pytest.approx(
            reference.memory_sleep_time, rel=REL_TOL, abs=1e-12
        )
    return priced


def backends():
    names = ["scalar"]
    if vectorized.HAS_NUMPY:
        names.append("numpy")
    return names


@pytest.fixture(params=backends())
def backend(request):
    """Run the test under each available backend."""
    with using(SolveConfig(request.param)):
        yield request.param


def tile(segments, copies: int, stride: float):
    """Repeat a segment pattern ``copies`` times, shifted by ``stride``,
    to push the table over the batch cutoff without changing its shape."""
    out = list(segments)
    for k in range(1, copies):
        for core, iv in segments:
            out.append(
                seg(core, iv.start + k * stride, iv.end + k * stride, iv.speed)
            )
    return out


class TestZeroLengthIdleWindows:
    def test_abutting_segments_price_no_gap(self, backend):
        platform = platform_with()
        base = [
            seg(0, 0.0, 4.0),
            seg(0, 4.0, 9.0),  # zero-length window at t=4
            seg(1, 0.0, 9.0),
        ]
        segments = tile(base, 30, 9.0)  # 90 segments, still gap-free
        assert len(segments) > vectorized._SMALL_N
        horizon = (0.0, 30 * 9.0)
        priced = assert_matches_full_path(segments, platform, horizon)
        for breakdown in priced:
            assert breakdown.memory_idle == pytest.approx(0.0, abs=1e-9)
            assert breakdown.memory_sleep_time == pytest.approx(0.0, abs=1e-9)
            assert breakdown.memory_busy_time == pytest.approx(
                horizon[1], rel=REL_TOL
            )

    def test_busy_span_exactly_touching_horizon(self, backend):
        platform = platform_with()
        base = [seg(0, 0.0, 5.0), seg(1, 5.0, 10.0)]
        segments = tile(base, 40, 10.0)
        horizon = (0.0, 40 * 10.0)  # busy union == horizon exactly
        priced = assert_matches_full_path(segments, platform, horizon)
        for breakdown in priced:
            assert breakdown.memory_idle == pytest.approx(0.0, abs=1e-9)


class TestShortBackToBackSleeps:
    """Gaps shorter than xi_m: BREAK_EVEN stays powered, ALWAYS pays."""

    def test_sub_break_even_gaps(self, backend):
        platform = platform_with(xi_m=8.0)
        gap = 3.0  # < xi_m
        busy = 5.0
        copies = 40
        base = [seg(0, 0.0, busy)]
        segments = tile(base, copies, busy + gap)
        horizon = (0.0, copies * (busy + gap) - gap)
        priced = assert_matches_full_path(segments, platform, horizon)
        by_policy = dict(zip(POLICIES, priced))
        n_gaps = copies - 1
        alpha_m = platform.memory.alpha_m
        # BREAK_EVEN: every gap is too short to amortize the transition.
        be = by_policy[SleepPolicy.BREAK_EVEN]
        assert be.memory_sleep_time == pytest.approx(0.0, abs=1e-9)
        assert be.memory_idle == pytest.approx(
            alpha_m * gap * n_gaps, rel=REL_TOL
        )
        # ALWAYS: pays the full transition (xi_m worth of static energy)
        # per gap and books the whole gap as sleep.
        always = by_policy[SleepPolicy.ALWAYS]
        assert always.memory_sleep_time == pytest.approx(
            gap * n_gaps, rel=REL_TOL
        )
        assert always.memory_idle == pytest.approx(
            alpha_m * platform.memory.xi_m * n_gaps, rel=REL_TOL
        )
        # NEVER: static power across every gap, no sleep.
        never = by_policy[SleepPolicy.NEVER]
        assert never.memory_sleep_time == pytest.approx(0.0, abs=1e-9)
        assert never.memory_idle == pytest.approx(
            alpha_m * gap * n_gaps, rel=REL_TOL
        )
        # Naive sleeping must cost MORE than staying powered here: that
        # inversion is the paper's case for the break-even guard.
        assert always.memory_idle > never.memory_idle

    def test_gap_exactly_at_break_even(self, backend):
        platform = platform_with(xi_m=8.0)
        gap = 8.0  # == xi_m: sleeping and staying powered cost the same
        copies = 35
        segments = tile([seg(0, 0.0, 4.0)], copies, 4.0 + gap)
        horizon = (0.0, copies * (4.0 + gap) - gap)
        priced = assert_matches_full_path(segments, platform, horizon)
        by_policy = dict(zip(POLICIES, priced))
        # At the boundary BREAK_EVEN sleeps (gap >= xi_m) and the energy
        # equals the NEVER policy's -- the indifference point.
        be = by_policy[SleepPolicy.BREAK_EVEN]
        never = by_policy[SleepPolicy.NEVER]
        assert be.memory_idle == pytest.approx(never.memory_idle, rel=REL_TOL)
        assert be.memory_sleep_time == pytest.approx(
            gap * (copies - 1), rel=REL_TOL
        )


class TestAllCoresIdleBoundaries:
    def test_leading_and_trailing_idle_windows(self, backend):
        platform = platform_with(xi_m=8.0)
        copies = 35
        stride = 6.0
        segments = tile([seg(0, 100.0, 104.0)], copies, stride)
        busy_start = 100.0
        busy_end = 100.0 + (copies - 1) * stride + 4.0
        lead, trail = 50.0, 25.0  # both > xi_m
        horizon = (busy_start - lead, busy_end + trail)
        priced = assert_matches_full_path(segments, platform, horizon)
        by_policy = dict(zip(POLICIES, priced))
        be = by_policy[SleepPolicy.BREAK_EVEN]
        # The edge windows amortize (>= xi_m) and are slept; the interior
        # 2.0 ms gaps do not.
        assert be.memory_sleep_time == pytest.approx(
            lead + trail, rel=REL_TOL
        )
        never = by_policy[SleepPolicy.NEVER]
        assert never.memory_idle == pytest.approx(
            platform.memory.alpha_m
            * (lead + trail + 2.0 * (copies - 1)),
            rel=REL_TOL,
        )

    def test_single_segment_wide_horizon(self, backend):
        platform = platform_with()
        segments = [seg(0, 10.0, 12.0)]
        horizon = (0.0, 1000.0)
        priced = assert_matches_full_path(segments, platform, horizon)
        be = priced[0]
        assert be.memory_busy_time == pytest.approx(2.0, rel=REL_TOL)
        assert be.memory_sleep_time == pytest.approx(998.0, rel=REL_TOL)

    def test_scalar_reference_is_bit_exact_vs_account(self):
        """On the scalar path the fast accountant is *exactly* account()."""
        with using(SolveConfig("scalar")):
            platform = platform_with()
            segments = tile(
                [seg(0, 0.0, 3.0), seg(1, 1.0, 4.5), seg(2, 6.0, 9.0)], 10, 11.0
            )
            horizon = (-5.0, 115.0)
            schedule = schedule_of(segments)
            for policy in POLICIES:
                (fast,) = account_segments(
                    segments, platform, horizon=horizon, memory_policies=(policy,)
                )
                reference = account(
                    schedule, platform, horizon=horizon, memory_policy=policy
                )
                assert fast == reference  # dataclass equality: every field
            direct = _account_segments_scalar(
                segments, platform, horizon, POLICIES, SleepPolicy.BREAK_EVEN
            )
            assert direct[0] == account(
                schedule,
                platform,
                horizon=horizon,
                memory_policy=SleepPolicy.BREAK_EVEN,
            )
