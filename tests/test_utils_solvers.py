"""Tests for the numeric solver utilities."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    bisect_increasing,
    golden_section_minimize,
    minimize_convex_1d,
    minimize_convex_2d_box,
)
from repro.utils.solvers import weighted_power_sum


class TestBisectIncreasing:
    def test_finds_interior_root(self):
        root = bisect_increasing(lambda x: x - 3.0, 0.0, 10.0)
        assert root == pytest.approx(3.0, abs=1e-9)

    def test_clamps_to_lower_bound(self):
        assert bisect_increasing(lambda x: x + 1.0, 0.0, 10.0) == 0.0

    def test_clamps_to_upper_bound(self):
        assert bisect_increasing(lambda x: x - 20.0, 0.0, 10.0) == 10.0

    def test_rejects_empty_bracket(self):
        with pytest.raises(ValueError):
            bisect_increasing(lambda x: x, 5.0, 4.0)

    @given(root=st.floats(-50.0, 50.0), scale=st.floats(0.1, 10.0))
    def test_recovers_affine_roots(self, root, scale):
        found = bisect_increasing(lambda x: scale * (x - root), -100.0, 100.0)
        assert found == pytest.approx(root, abs=1e-7)

    def test_nonlinear_first_order_condition(self):
        # The Section 5.1.1 condition: sum (w/(d - x))^lam = c, increasing in x.
        w, d, lam, c = 10.0, 20.0, 3.0, 8.0
        x = bisect_increasing(lambda t: (w / (d - t)) ** lam - c, 0.0, d - 1e-6)
        assert (w / (d - x)) ** lam == pytest.approx(c, rel=1e-6)


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, v = golden_section_minimize(lambda t: (t - 2.0) ** 2 + 1.0, 0.0, 10.0)
        assert x == pytest.approx(2.0, abs=1e-6)
        assert v == pytest.approx(1.0, abs=1e-9)

    def test_boundary_minimum(self):
        x, v = golden_section_minimize(lambda t: t, 3.0, 10.0)
        assert x == pytest.approx(3.0)
        assert v == pytest.approx(3.0)

    def test_degenerate_interval(self):
        x, v = golden_section_minimize(lambda t: t * t, 4.0, 4.0)
        assert x == 4.0

    @given(center=st.floats(-5.0, 5.0))
    def test_convex_quartic(self, center):
        x, _ = minimize_convex_1d(lambda t: (t - center) ** 4, -10.0, 10.0)
        assert x == pytest.approx(center, abs=1e-3)


class TestConvex2D:
    def test_separable_quadratic(self):
        x, y, v = minimize_convex_2d_box(
            lambda a, b: (a - 1.0) ** 2 + (b - 2.0) ** 2,
            (0.0, 5.0),
            (0.0, 5.0),
        )
        assert x == pytest.approx(1.0, abs=1e-5)
        assert y == pytest.approx(2.0, abs=1e-5)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_coupled_objective(self):
        # min (x + y - 3)^2 + x^2 + y^2 -> x = y = 1 analytically.
        x, y, v = minimize_convex_2d_box(
            lambda a, b: (a + b - 3.0) ** 2 + a * a + b * b,
            (0.0, 5.0),
            (0.0, 5.0),
        )
        assert x == pytest.approx(1.0, abs=1e-4)
        assert y == pytest.approx(1.0, abs=1e-4)
        assert v == pytest.approx(3.0, abs=1e-6)

    def test_boundary_solution(self):
        x, y, _ = minimize_convex_2d_box(
            lambda a, b: (a - 10.0) ** 2 + (b + 4.0) ** 2,
            (0.0, 2.0),
            (0.0, 2.0),
        )
        assert x == pytest.approx(2.0, abs=1e-6)
        assert y == pytest.approx(0.0, abs=1e-6)

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            minimize_convex_2d_box(lambda a, b: a + b, (1.0, 0.0), (0.0, 1.0))


class TestWeightedPowerSum:
    def test_matches_manual(self):
        assert weighted_power_sum([1.0, 2.0, 3.0], 3.0) == pytest.approx(36.0)

    @given(
        st.lists(st.floats(0.1, 100.0), min_size=1, max_size=10),
        st.floats(1.1, 4.0),
    )
    def test_positive_and_monotone_in_exponent_for_large_weights(self, ws, lam):
        big = [w + 1.0 for w in ws]  # all > 1 so power sums grow with lam
        assert weighted_power_sum(big, lam) <= weighted_power_sum(big, lam + 0.1)


class TestWarmStartBracketing:
    def test_interior_guess_accepted(self):
        # Guess lands on the true minimum: the narrow bracket suffices.
        x, v = minimize_convex_1d(
            lambda t: (t - 4.0) ** 2, 0.0, 100.0, guess=4.0
        )
        assert x == pytest.approx(4.0, abs=1e-5)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_misleading_guess_falls_back_to_full_bracket(self):
        # Guess far from the minimum: the sub-bracket argmin pins to an
        # edge, which must trigger the full golden-section fallback.
        x, _ = minimize_convex_1d(
            lambda t: (t - 90.0) ** 2, 0.0, 100.0, guess=5.0
        )
        assert x == pytest.approx(90.0, abs=1e-4)

    def test_guess_at_domain_boundary(self):
        # Monotone objective, minimum at the lower domain edge; a guess on
        # that edge is legitimate even though the sub-bracket pins there.
        x, _ = minimize_convex_1d(lambda t: t, 0.0, 10.0, guess=0.0)
        assert x == pytest.approx(0.0, abs=1e-4)

    @given(center=st.floats(-5.0, 5.0), offset=st.floats(-0.2, 0.2))
    def test_near_guess_matches_unguided(self, center, offset):
        func = lambda t: (t - center) ** 4
        guided, _ = minimize_convex_1d(
            func, -10.0, 10.0, guess=center + offset
        )
        unguided, _ = minimize_convex_1d(func, -10.0, 10.0)
        assert func(guided) <= func(unguided) + 1e-9

    def test_counters_record_warm_start(self):
        from repro.utils.solvers import (
            reset_solver_counts,
            solver_call_counts,
            solver_call_total,
        )

        reset_solver_counts()
        minimize_convex_1d(lambda t: (t - 4.0) ** 2, 0.0, 100.0, guess=4.0)
        counts = solver_call_counts()
        assert counts.get("warm_start_hit") == 1
        assert counts.get("golden_section", 0) >= 1
        assert solver_call_total() == sum(counts.values())
        reset_solver_counts()
        assert solver_call_total() == 0


np = pytest.importorskip("numpy")

from repro.utils.solvers import (  # noqa: E402 - needs the numpy skip first
    bisect_increasing_batch,
    golden_section_minimize_batch,
)


class TestBisectIncreasingBatch:
    def test_matches_scalar_on_linear_family(self):
        roots = np.array([1.0, 2.5, 7.75, 0.0, 10.0])

        def family(xs, idx):
            return xs - roots[idx]

        batch = bisect_increasing_batch(family, [0.0] * 5, [10.0] * 5)
        for k, root in enumerate(roots):
            scalar = bisect_increasing(lambda x, r=root: x - r, 0.0, 10.0)
            assert batch[k] == pytest.approx(scalar, abs=1e-9)

    def test_boundary_clamps_match_scalar(self):
        # Root below lo (clamped to lo) and above hi (clamped to hi).
        shifts = np.array([-5.0, 25.0])

        def family(xs, idx):
            return xs - shifts[idx]

        batch = bisect_increasing_batch(family, [0.0, 0.0], [10.0, 10.0])
        assert batch[0] == 0.0
        assert batch[1] == 10.0

    def test_rejects_empty_bracket(self):
        with pytest.raises(ValueError, match="empty bracket"):
            bisect_increasing_batch(lambda xs, idx: xs, [5.0], [1.0])

    def test_mixed_brackets(self):
        los = [0.0, 2.0, -3.0]
        his = [4.0, 9.0, 3.0]
        roots = np.array([3.0, 6.0, 0.5])

        def family(xs, idx):
            return (xs - roots[idx]) ** 3

        batch = bisect_increasing_batch(family, los, his)
        assert np.allclose(batch, roots, atol=1e-6)


class TestGoldenSectionMinimizeBatch:
    def test_matches_scalar_on_quadratic_family(self):
        centers = np.array([1.0, 4.0, 8.5, 0.0, 10.0])

        def family(xs, idx):
            return (xs - centers[idx]) ** 2

        xs, values = golden_section_minimize_batch(
            family, [0.0] * 5, [10.0] * 5
        )
        for k, center in enumerate(centers):
            s_x, s_v = golden_section_minimize(
                lambda x, c=center: (x - c) ** 2, 0.0, 10.0
            )
            assert xs[k] == pytest.approx(s_x, abs=1e-6)
            assert values[k] == pytest.approx(s_v, abs=1e-9)

    def test_degenerate_interval_short_circuits(self):
        xs, values = golden_section_minimize_batch(
            lambda x, idx: (x - 1.0) ** 2, [2.0, 0.0], [2.0, 8.0]
        )
        assert xs[0] == pytest.approx(2.0)
        assert values[0] == pytest.approx(1.0)
        assert xs[1] == pytest.approx(1.0, abs=1e-6)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="empty interval"):
            golden_section_minimize_batch(lambda xs, idx: xs, [5.0], [1.0])

    def test_boundary_minimum(self):
        # Monotone decreasing on the interval: the endpoint sweep must
        # surface hi exactly as the scalar version does.
        xs, values = golden_section_minimize_batch(
            lambda x, idx: -x, [0.0], [10.0]
        )
        s_x, s_v = golden_section_minimize(lambda x: -x, 0.0, 10.0)
        assert xs[0] == pytest.approx(s_x, abs=1e-9)
        assert values[0] == pytest.approx(s_v, abs=1e-9)

    def test_per_problem_tol_matches_scalar_bit_for_bit(self):
        # A kinked objective built from IEEE add / multiply / abs only, so
        # numpy and Python round every probe alike; some intervals are
        # degenerate (hi - lo <= tol) and short-circuit to their midpoint.
        rng = np.random.default_rng(7)
        k = 64
        lo = rng.uniform(-50.0, 50.0, k)
        hi = lo + rng.uniform(0.0, 30.0, k)
        tol = 10.0 ** rng.uniform(-12.0, 1.0, k)
        hi[:8] = lo[:8] + tol[:8] * rng.uniform(0.0, 1.0, 8)
        centers = rng.uniform(-60.0, 60.0, k)
        kinks = rng.uniform(-60.0, 60.0, k)

        def batch(xs, idx):
            return 0.3 * (xs - centers[idx]) * (xs - centers[idx]) + np.abs(
                xs - kinks[idx]
            )

        xs, values = golden_section_minimize_batch(batch, lo, hi, tol=tol)
        for i in range(k):
            c, kink = float(centers[i]), float(kinks[i])
            s_x, s_v = golden_section_minimize(
                lambda x: 0.3 * (x - c) * (x - c) + abs(x - kink),
                float(lo[i]),
                float(hi[i]),
                tol=float(tol[i]),
            )
            assert (float(xs[i]), float(values[i])) == (s_x, s_v)

    def test_scalar_tol_still_accepted(self):
        lo, hi = [0.0, 1.0], [4.0, 9.0]

        def family(xs, idx):
            return (xs - 2.5) ** 2

        shared = golden_section_minimize_batch(family, lo, hi, tol=1e-6)
        spread = golden_section_minimize_batch(family, lo, hi, tol=[1e-6, 1e-6])
        assert np.array_equal(shared[0], spread[0])
        assert np.array_equal(shared[1], spread[1])
