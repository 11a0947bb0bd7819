"""Tests for the YDS / Optimal Available speed-scaling substrate."""

from __future__ import annotations

import math
import random

import pytest

# The convex-programming reference needs numpy and scipy; the scalar CI
# leg installs neither, so the module skips there instead of breaking
# collection.
np = pytest.importorskip("numpy")
minimize = pytest.importorskip("scipy.optimize").minimize

from repro.speed_scaling import (
    optimal_available_plan,
    staircase_speeds,
    yds_energy,
    yds_schedule,
)


def numeric_optimal_energy(jobs, lam=3.0, beta=1.0):
    """Convex-programming reference for the YDS optimum.

    Discretize at the release/deadline event points; allocate work
    ``x[j, k]`` of job j to interval k (allowed only inside the job's
    window); processor dynamic energy is ``sum_k L_k * (W_k / L_k)**lam``
    which is jointly convex in the allocations.
    """
    points = sorted({t for _, r, d, _ in jobs for t in (r, d)})
    intervals = [
        (a, b) for a, b in zip(points, points[1:]) if b > a
    ]
    lengths = np.array([b - a for a, b in intervals])
    allowed = np.array(
        [
            [1.0 if (r <= a + 1e-12 and b <= d + 1e-12) else 0.0 for a, b in intervals]
            for _, r, d, _ in jobs
        ]
    )
    workloads = np.array([w for _, _, _, w in jobs])
    nj, nk = allowed.shape

    def objective(x):
        x = x.reshape(nj, nk) * allowed
        per_interval = x.sum(axis=0)
        return float(np.sum(lengths * (per_interval / lengths) ** lam)) * beta

    constraints = [
        {
            "type": "eq",
            "fun": (lambda x, j=j: (x.reshape(nj, nk) * allowed)[j].sum() - workloads[j]),
        }
        for j in range(nj)
    ]
    x0 = np.zeros((nj, nk))
    for j in range(nj):
        mask = allowed[j] > 0
        x0[j, mask] = workloads[j] / mask.sum()
    result = minimize(
        objective,
        x0.ravel(),
        method="SLSQP",
        bounds=[(0.0, None)] * (nj * nk),
        constraints=constraints,
        options={"maxiter": 500, "ftol": 1e-12},
    )
    assert result.success, result.message
    return result.fun


class TestYdsSchedule:
    def test_single_job_fills_window(self):
        pieces = yds_schedule([("a", 0.0, 10.0, 50.0)])
        assert len(pieces) == 1
        assert pieces[0].start == pytest.approx(0.0)
        assert pieces[0].end == pytest.approx(10.0)
        assert pieces[0].speed == pytest.approx(5.0)

    def test_common_release_staircase(self):
        # Jobs (w=30, d=3) and (w=10, d=10): group1 = {a} at 10, then b at
        # (10)/(10-3) ~ 1.43.
        pieces = yds_schedule([("a", 0.0, 3.0, 30.0), ("b", 0.0, 10.0, 10.0)])
        by_name = {p.name: p for p in pieces}
        assert by_name["a"].speed == pytest.approx(10.0)
        assert by_name["b"].speed == pytest.approx(10.0 / 7.0)

    def test_nested_urgent_job_splits_outer(self):
        # Outer lazy job [0, 10] w=10; inner urgent [4, 6] w=20.
        pieces = yds_schedule([("outer", 0, 10, 10.0), ("inner", 4, 6, 20.0)])
        inner = [p for p in pieces if p.name == "inner"]
        assert len(inner) == 1
        assert inner[0].speed == pytest.approx(10.0)
        assert (inner[0].start, inner[0].end) == (4.0, 6.0)
        outer_pieces = [p for p in pieces if p.name == "outer"]
        assert sum(p.workload for p in outer_pieces) == pytest.approx(10.0)
        # Outer runs at (10)/(10-2) = 1.25 outside the blocked span.
        for p in outer_pieces:
            assert p.speed == pytest.approx(1.25)
            assert p.end <= 4.0 + 1e-9 or p.start >= 6.0 - 1e-9

    def test_workload_conservation_and_window_respect(self):
        rng = random.Random(5)
        for _ in range(20):
            jobs = []
            for j in range(rng.randint(1, 6)):
                r = rng.uniform(0, 50)
                d = r + rng.uniform(1, 30)
                jobs.append((f"j{j}", r, d, rng.uniform(1, 100)))
            pieces = yds_schedule(jobs)
            done = {}
            for p in pieces:
                done[p.name] = done.get(p.name, 0.0) + p.workload
            for name, r, d, w in jobs:
                assert done[name] == pytest.approx(w, rel=1e-6)
            spans = {name: (r, d) for name, r, d, _ in jobs}
            for p in pieces:
                r, d = spans[p.name]
                assert p.start >= r - 1e-6
                assert p.end <= d + 1e-6
            # Single processor: pieces must not overlap.
            ordered = sorted(pieces, key=lambda p: p.start)
            for a, b in zip(ordered, ordered[1:]):
                assert a.end <= b.start + 1e-6

    def test_energy_matches_convex_reference(self):
        rng = random.Random(11)
        for _ in range(5):
            jobs = []
            for j in range(rng.randint(2, 4)):
                r = rng.uniform(0, 10)
                d = r + rng.uniform(2, 10)
                jobs.append((f"j{j}", r, d, rng.uniform(1, 20)))
            fast = yds_energy(jobs, beta=1.0, lam=3.0)
            ref = numeric_optimal_energy(jobs)
            assert fast == pytest.approx(ref, rel=1e-3)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            yds_schedule([("a", 5.0, 5.0, 1.0)])


class TestStaircase:
    def test_single_job(self):
        speeds = staircase_speeds([("a", 10.0, 50.0)], now=0.0)
        assert speeds == [("a", pytest.approx(5.0))]

    def test_matches_general_yds(self):
        rng = random.Random(23)
        for _ in range(15):
            now = rng.uniform(0, 5)
            jobs = [
                (f"j{k}", now + rng.uniform(1, 40), rng.uniform(1, 100))
                for k in range(rng.randint(1, 6))
            ]
            stair = dict(staircase_speeds(jobs, now))
            general = yds_schedule(
                [(name, now, d, w) for name, d, w in jobs]
            )
            speeds = {}
            for p in general:
                speeds.setdefault(p.name, p.speed)
            for name in stair:
                assert stair[name] == pytest.approx(speeds[name], rel=1e-6)

    def test_speeds_non_increasing_in_execution_order(self):
        rng = random.Random(31)
        for _ in range(10):
            jobs = [
                (f"j{k}", rng.uniform(1, 40), rng.uniform(1, 100))
                for k in range(rng.randint(2, 8))
            ]
            speeds = [s for _, s in staircase_speeds(jobs, now=0.0)]
            assert all(a >= b - 1e-9 for a, b in zip(speeds, speeds[1:]))

    def test_rejects_past_deadline(self):
        with pytest.raises(ValueError):
            staircase_speeds([("a", 1.0, 5.0)], now=2.0)


class TestOptimalAvailablePlan:
    def test_segments_back_to_back_and_feasible(self):
        plan = optimal_available_plan(
            [("a", 10.0, 40.0), ("b", 30.0, 20.0)], now=2.0
        )
        assert plan[0].start == pytest.approx(2.0)
        for x, y in zip(plan, plan[1:]):
            assert y.start == pytest.approx(x.end)
        deadlines = {"a": 10.0, "b": 30.0}
        for piece in plan:
            assert piece.end <= deadlines[piece.name] + 1e-9

    def test_edf_order(self):
        plan = optimal_available_plan(
            [("late", 100.0, 10.0), ("soon", 5.0, 10.0)], now=0.0
        )
        assert plan[0].name == "soon"
