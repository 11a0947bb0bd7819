"""Scalar-vs-numpy agreement for the vectorized numeric core.

The scalar solvers are the paper-fidelity reference; the numpy backend
(:mod:`repro.core.vectorized`) must reproduce them to 1e-9 relative on
randomized task sets -- energies, chosen sleep lengths, and per-task
speeds alike.  Every test here is skipped wholesale when numpy is not
importable (the scalar-only CI leg).
"""

from __future__ import annotations

import random

import pytest

from repro.core import vectorized
from repro.core.agreeable import solve_agreeable
from repro.core.blocks import block_energy, block_energy_cache_clear, solve_block
from repro.core.common_release import solve_common_release
from repro.core.solve_config import BACKEND_ENV, SolveConfig, using
from repro.core.transition import solve_common_release_with_overhead
from repro.models import CorePowerModel, MemoryModel, Platform, Task, TaskSet

pytestmark = pytest.mark.skipif(
    not vectorized.HAS_NUMPY, reason="numpy backend unavailable"
)

REL_TOL = 1e-9


def make_platform(
    alpha: float,
    alpha_m: float = 10.0,
    s_up: float = 1000.0,
    xi: float = 0.0,
    xi_m: float = 0.0,
) -> Platform:
    return Platform(
        CorePowerModel(beta=1e-6, lam=3.0, alpha=alpha, s_up=s_up, xi=xi),
        MemoryModel(alpha_m=alpha_m, xi_m=xi_m),
    )


def random_agreeable_tasks(rng: random.Random, n: int) -> TaskSet:
    releases = sorted(rng.uniform(0.0, 60.0) for _ in range(n))
    deadlines = []
    last_d = 0.0
    for r in releases:
        d = max(r + rng.uniform(5.0, 60.0), last_d + rng.uniform(0.1, 5.0))
        deadlines.append(d)
        last_d = d
    return TaskSet(
        Task(r, d, rng.uniform(50.0, 3000.0))
        for r, d in zip(releases, deadlines)
    )


def random_common_release_tasks(rng: random.Random, n: int) -> TaskSet:
    release = rng.uniform(0.0, 20.0)
    return TaskSet(
        Task(release, release + rng.uniform(5.0, 80.0), rng.uniform(50.0, 3000.0))
        for _ in range(n)
    )


def per_backend(solve):
    """Evaluate ``solve()`` under each backend with cold memo caches."""
    results = {}
    for backend in ("scalar", "numpy"):
        block_energy_cache_clear()
        vectorized.block_arrays_cache_clear()
        with using(SolveConfig(backend)):
            results[backend] = solve()
    return results["scalar"], results["numpy"]


def assert_close(scalar: float, numpy: float) -> None:
    assert numpy == pytest.approx(scalar, rel=REL_TOL, abs=1e-9)


class TestBlockEnergyAgreement:
    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_block_energy_random(self, alpha, seed):
        rng = random.Random(1000 + seed)
        platform = make_platform(alpha)
        ts = random_agreeable_tasks(rng, rng.randint(1, 9))
        lo = min(t.release for t in ts)
        hi = max(t.deadline for t in ts)
        probes = [
            (lo + f * (hi - lo) * 0.3, hi - g * (hi - lo) * 0.3)
            for f, g in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.2), (0.2, 1.0)]
        ]
        for start, end in probes:
            s_val, n_val = per_backend(
                lambda: block_energy(ts, platform, start, end)
            )
            assert_close(s_val, n_val)


class TestSolveBlockAgreement:
    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    @pytest.mark.parametrize("method", ["descent", "pairs"])
    @pytest.mark.parametrize("seed", range(4))
    def test_solve_block_random(self, alpha, method, seed):
        rng = random.Random(2000 + seed)
        platform = make_platform(alpha)
        ts = random_agreeable_tasks(rng, rng.randint(1, 7))
        s_sol, n_sol = per_backend(
            lambda: solve_block(ts, platform, method=method)
        )
        # The optimum value must agree; the argmin may differ on a flat
        # stretch of the objective, so cross-check numpy's chosen busy
        # interval by re-pricing it with the scalar reference instead.
        assert_close(s_sol.energy, n_sol.energy)
        block_energy_cache_clear()
        with using(SolveConfig("scalar")):
            repriced = block_energy(ts, platform, n_sol.start, n_sol.end)
        assert repriced == pytest.approx(n_sol.energy, rel=1e-6)


class TestCommonReleaseAgreement:
    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    @pytest.mark.parametrize("seed", range(6))
    def test_solve_common_release_random(self, alpha, seed):
        rng = random.Random(3000 + seed)
        platform = make_platform(alpha)
        ts = random_common_release_tasks(rng, rng.randint(1, 9))
        s_sol, n_sol = per_backend(lambda: solve_common_release(ts, platform))
        assert_close(s_sol.predicted_energy, n_sol.predicted_energy)
        assert n_sol.delta == pytest.approx(s_sol.delta, rel=1e-6, abs=1e-6)
        for name, speed in s_sol.speeds.items():
            assert n_sol.speeds[name] == pytest.approx(speed, rel=REL_TOL)

    @pytest.mark.parametrize(
        "alpha,xi,xi_m",
        [(0.0, 0.0, 12.0), (0.2, 0.7, 12.0), (310.0, 0.0, 40.0)],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_solve_with_overhead_random(self, alpha, xi, xi_m, seed):
        rng = random.Random(4000 + seed)
        s_up = 1900.0 if alpha > 1.0 else 1000.0
        platform = make_platform(
            alpha, alpha_m=40.0, s_up=s_up, xi=xi, xi_m=xi_m
        )
        ts = random_common_release_tasks(rng, rng.randint(1, 9))
        if not ts.is_feasible_at(platform.core.s_up):
            pytest.skip("draw infeasible at s_up")
        s_sol, n_sol = per_backend(
            lambda: solve_common_release_with_overhead(ts, platform)
        )
        assert_close(s_sol.predicted_energy, n_sol.predicted_energy)
        for name, speed in s_sol.speeds.items():
            assert n_sol.speeds[name] == pytest.approx(speed, rel=REL_TOL)


class TestAgreeableDpAgreement:
    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_solve_agreeable_random(self, alpha, seed):
        rng = random.Random(5000 + seed)
        platform = make_platform(alpha)
        ts = random_agreeable_tasks(rng, rng.randint(2, 7))
        s_sol, n_sol = per_backend(lambda: solve_agreeable(ts, platform))
        assert_close(s_sol.predicted_energy, n_sol.predicted_energy)
        assert n_sol.num_blocks == s_sol.num_blocks


class TestBackendSelection:
    def test_env_var_selects_backend(self):
        env = {BACKEND_ENV: "scalar"}
        assert SolveConfig.from_env(env).backend == "scalar"
        env[BACKEND_ENV] = " NumPy "
        assert SolveConfig.from_env(env).backend == "numpy"
        assert SolveConfig.from_env({}).backend == "numpy"

    def test_override_beats_env(self):
        env = {BACKEND_ENV: "scalar"}
        assert SolveConfig.from_env(env, backend="numpy").backend == "numpy"
        outer = vectorized.get_backend()
        with using(SolveConfig.from_env(env)):
            assert vectorized.get_backend() == "scalar"
            with using(SolveConfig("numpy")):
                assert vectorized.use_numpy()
            assert not vectorized.use_numpy()
        assert vectorized.get_backend() == outer

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="numeric must be 'scalar', 'numpy'"):
            SolveConfig("cupy")

    def test_cache_key_depends_on_backend(self):
        from repro.experiments.cache import unit_key
        from repro.models import paper_platform

        platform = paper_platform()
        trace = {"kind": "synthetic", "n": 4}
        scalar = SolveConfig("scalar")
        scalar_key = unit_key(platform, trace, 0, "sdem-on", config=scalar)
        with using(SolveConfig("numpy")):
            numpy_key = unit_key(platform, trace, 0, "sdem-on")
        assert scalar_key != numpy_key
