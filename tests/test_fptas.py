"""ε-approximate solver tier: selection state, keys, wire plumbing, bounds.

Deterministic tests for :mod:`repro.core.fptas`; the randomized
(1+ε)-bound and feasibility sweeps live in
``tests/test_fptas_properties.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import vectorized
from repro.core.agreeable import solve_agreeable
from repro.core.common_release import solve_common_release
from repro.core.fptas import (
    DEFAULT_EPSILON,
    SOLVER_TIERS,
    get_solver_epsilon,
    get_solver_tier,
    solve_agreeable_fptas,
    solve_agreeable_fptas_columns,
    _price_block_discrete,
    solve_common_release_fptas,
)
from repro.core.solve_config import (
    EPSILON_ENV,
    TIER_ENV,
    SolveConfig,
    current,
    using,
)
from repro.core.transition import solve_common_release_with_overhead
from repro.experiments.cache import _solver_component, service_request_key, unit_key
from repro.models import CorePowerModel, MemoryModel, Platform, Task, TaskSet
from repro.models.platform import paper_platform
from repro.schedule import validate_schedule
from repro.service.protocol import (
    E_BAD_REQUEST,
    ProtocolError,
    execute_request,
    request_from_wire,
)
from repro.utils.solvers import reset_solver_counts, solver_call_counts
from repro.workloads.synthetic import agreeable_trace


@pytest.fixture(autouse=True)
def _exact_tier():
    """Every test starts on the exact tier, whatever the environment says."""
    with using(replace(current(), tier="exact", epsilon=DEFAULT_EPSILON)):
        yield


def make_platform(alpha: float = 2.0, alpha_m: float = 10.0, xi_m: float = 0.0):
    return Platform(
        CorePowerModel(beta=1e-6, lam=3.0, alpha=alpha, s_up=1000.0),
        MemoryModel(alpha_m=alpha_m, xi_m=xi_m),
    )


AGREEABLE = TaskSet(
    [
        Task(0.0, 30.0, 4000.0, "a"),
        Task(5.0, 55.0, 9000.0, "b"),
        Task(40.0, 95.0, 2500.0, "c"),
        Task(120.0, 160.0, 6000.0, "d"),
    ]
)

COMMON = TaskSet(
    [
        Task(0.0, 40.0, 8000.0, "a"),
        Task(0.0, 70.0, 15000.0, "b"),
        Task(0.0, 100.0, 5000.0, "c"),
    ]
)


# ---------------------------------------------------------------------------
# Tier selection state
# ---------------------------------------------------------------------------


class TestTierSelection:
    def test_defaults(self):
        assert get_solver_tier() == "exact"
        assert get_solver_epsilon() == DEFAULT_EPSILON

    def test_override_and_clear(self):
        with using(SolveConfig(tier="fptas", epsilon=0.5)):
            assert get_solver_tier() == "fptas"
            assert get_solver_epsilon() == 0.5
        assert get_solver_tier() == "exact"
        assert get_solver_epsilon() == DEFAULT_EPSILON

    def test_env_fallback_and_override_precedence(self):
        env = {TIER_ENV: "fptas", EPSILON_ENV: "0.25"}
        config = SolveConfig.from_env(env)
        assert (config.tier, config.epsilon) == ("fptas", 0.25)
        assert SolveConfig.from_env(env, tier="exact").tier == "exact"
        assert SolveConfig.from_env({}).tier == "exact"
        assert SolveConfig.from_env({}).epsilon == DEFAULT_EPSILON
        with using(config):
            assert get_solver_tier() == "fptas"
            assert get_solver_epsilon() == 0.25

    def test_bad_tier_rejected(self):
        with pytest.raises(ValueError, match="solver must be one of"):
            SolveConfig(tier="annealing")

    @pytest.mark.parametrize("eps", [0.0, -0.1, 2.5, float("nan"), "zero"])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            SolveConfig(tier="fptas", epsilon=eps)

    def test_using_restores(self):
        with using(SolveConfig(tier="fptas", epsilon=0.5)):
            with using(SolveConfig()):
                assert get_solver_tier() == "exact"
            assert get_solver_tier() == "fptas"
            assert get_solver_epsilon() == 0.5
            with pytest.raises(RuntimeError):
                with using(SolveConfig()):
                    raise RuntimeError("solve failed")
            assert get_solver_tier() == "fptas"

    def test_tiers_tuple(self):
        assert SOLVER_TIERS == ("exact", "fptas")


# ---------------------------------------------------------------------------
# Cache keys can never alias across tiers
# ---------------------------------------------------------------------------


class TestCacheKeys:
    def test_solver_cache_component(self):
        assert _solver_component(SolveConfig()) == {"tier": "exact"}
        assert _solver_component(SolveConfig(tier="exact", epsilon=0.25)) == {
            "tier": "exact"
        }
        fptas = SolveConfig(tier="fptas", epsilon=0.25)
        assert _solver_component(fptas) == {"tier": "fptas", "epsilon": 0.25}

    def test_unit_key_partitions_tiers(self):
        platform = make_platform()
        trace = {"kind": "synthetic", "n": 4}
        exact = unit_key(platform, trace, 0, "sdem")
        with using(SolveConfig(tier="fptas", epsilon=0.1)):
            coarse = unit_key(platform, trace, 0, "sdem")
        fine = unit_key(
            platform, trace, 0, "sdem", config=SolveConfig(tier="fptas", epsilon=0.01)
        )
        assert len({exact, coarse, fine}) == 3

    def test_service_key_exact_ignores_epsilon_default(self):
        platform = make_platform()
        config = [(0.0, 40.0, 8000.0, "a")]
        base = service_request_key(platform, config, "section4", SolveConfig("scalar"))
        explicit = service_request_key(
            platform, config, "section4", SolveConfig("scalar", "exact", 0.5)
        )
        assert base == explicit

    def test_service_key_fptas_scoped_by_epsilon(self):
        platform = make_platform()
        config = [(0.0, 40.0, 8000.0, "a")]
        exact = service_request_key(platform, config, "section4", SolveConfig("scalar"))
        coarse = service_request_key(
            platform, config, "section4", SolveConfig("scalar", "fptas", 0.1)
        )
        fine = service_request_key(
            platform, config, "section4", SolveConfig("scalar", "fptas", 0.01)
        )
        assert len({exact, coarse, fine}) == 3


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


def wire_solve(**overrides):
    wire = {
        "v": 1,
        "id": "r1",
        "kind": "solve",
        "tasks": [
            {"name": "a", "release": 0.0, "deadline": 40.0, "workload": 8000.0},
            {"name": "b", "release": 0.0, "deadline": 70.0, "workload": 15000.0},
        ],
    }
    wire.update(overrides)
    return wire


class TestProtocol:
    def test_default_solver_is_exact(self):
        request = request_from_wire(wire_solve())
        assert request.solver == "exact"
        assert request.epsilon is None

    def test_fptas_epsilon_defaults(self):
        request = request_from_wire(wire_solve(solver="fptas"))
        assert request.solver == "fptas"
        assert request.epsilon == DEFAULT_EPSILON

    def test_unknown_solver_rejected(self):
        with pytest.raises(ProtocolError, match="solver") as excinfo:
            request_from_wire(wire_solve(solver="quantum"))
        assert excinfo.value.code == E_BAD_REQUEST

    def test_epsilon_without_fptas_rejected(self):
        with pytest.raises(ProtocolError, match="epsilon"):
            request_from_wire(wire_solve(epsilon=0.1))

    @pytest.mark.parametrize("eps", [0.0, -1.0, 2.5, "tiny"])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(ProtocolError, match="epsilon"):
            request_from_wire(wire_solve(solver="fptas", epsilon=eps))

    def test_exact_result_payload_untouched_by_tier_fields(self):
        result = execute_request(request_from_wire(wire_solve()))
        assert "solver" not in result
        assert "epsilon" not in result

    def test_fptas_result_reports_tier_and_bound(self):
        exact = execute_request(request_from_wire(wire_solve()))
        approx = execute_request(
            request_from_wire(wire_solve(solver="fptas", epsilon=0.1))
        )
        assert approx["solver"] == "fptas"
        assert approx["epsilon"] == 0.1
        exact_total = exact["energy"]["total"]
        assert approx["energy"]["total"] <= 1.1 * exact_total + 1e-9

    def test_fptas_agreeable_scheme(self):
        wire = wire_solve(
            solver="fptas",
            scheme="agreeable",
            tasks=[
                {"name": t.name, "release": t.release,
                 "deadline": t.deadline, "workload": t.workload}
                for t in AGREEABLE
            ],
        )
        result = execute_request(request_from_wire(wire))
        assert result["solver"] == "fptas"
        assert result["num_blocks"] >= 1


# ---------------------------------------------------------------------------
# Bounds and identities on fixed instances
# ---------------------------------------------------------------------------


class TestFixedInstanceBounds:
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_agreeable_bound_and_feasibility(self, eps):
        platform = make_platform()
        exact = solve_agreeable(AGREEABLE, platform)
        approx = solve_agreeable_fptas(AGREEABLE, platform, epsilon=eps)
        assert approx.predicted_energy <= (1.0 + eps) * exact.predicted_energy
        validate_schedule(
            approx.schedule(), AGREEABLE, max_speed=platform.core.s_up
        )

    def test_agreeable_overhead_bound(self):
        platform = make_platform(xi_m=5.0)
        exact = solve_agreeable(
            AGREEABLE, platform, include_transition_overhead=True
        )
        approx = solve_agreeable_fptas(
            AGREEABLE, platform, epsilon=0.1, include_transition_overhead=True
        )
        assert approx.predicted_energy <= 1.1 * exact.predicted_energy

    def test_common_release_bound_and_feasibility(self):
        platform = make_platform()
        exact = solve_common_release(COMMON, platform)
        approx = solve_common_release_fptas(COMMON, platform, epsilon=0.1)
        assert approx.predicted_energy <= 1.1 * exact.predicted_energy
        validate_schedule(
            approx.schedule(), COMMON, max_speed=platform.core.s_up
        )

    def test_common_release_overhead_bound(self):
        platform = make_platform(xi_m=8.0)
        exact = solve_common_release_with_overhead(COMMON, platform)
        approx = solve_common_release_fptas(COMMON, platform, epsilon=0.1)
        assert approx.predicted_energy <= 1.1 * exact.predicted_energy

    def test_tier_epsilon_used_when_omitted(self):
        platform = make_platform()
        with using(SolveConfig(tier="fptas", epsilon=0.5)):
            tiered = solve_agreeable_fptas(AGREEABLE, platform)
        explicit = solve_agreeable_fptas(AGREEABLE, platform, epsilon=0.5)
        assert tiered.predicted_energy == explicit.predicted_energy

    def test_grid_pitch_kept_on_long_spans(self):
        # 10^8 grid points per axis: only the snap's neighborhood is
        # priced, so the pitch must stay put rather than widen to fit a cap.
        step = 1e-6
        s_opt, e_opt = 3.3001234, 77.7005678
        priced = _price_block_discrete(
            lambda s, e: 1.0 + (s - s_opt) ** 2 + (e - e_opt) ** 2,
            0.0,
            100.0,
            step,
        )
        assert priced is not None
        _energy, start, end = priced
        assert s_opt - 2 * step <= start <= s_opt
        assert e_opt <= end <= e_opt + 2 * step

    def test_non_agreeable_rejected(self):
        platform = make_platform()
        crossed = TaskSet([Task(0.0, 90.0, 100.0), Task(5.0, 20.0, 100.0)])
        with pytest.raises(ValueError, match="agreeable"):
            solve_agreeable_fptas(crossed, platform)

    def test_infeasible_rejected(self):
        platform = make_platform()
        hopeless = TaskSet([Task(0.0, 1.0, 1e9, "x")])
        with pytest.raises(ValueError, match="infeasible"):
            solve_agreeable_fptas(hopeless, platform)


# ---------------------------------------------------------------------------
# Columns path: identical to the object path, no Task materialization
# ---------------------------------------------------------------------------


class TestColumnsPath:
    def test_columns_match_object_path_exactly(self):
        platform = make_platform()
        releases, deadlines, workloads = agreeable_trace(
            n=60, max_interarrival=120.0, seed=7
        )
        tasks = TaskSet.presorted(
            tuple(
                Task(r, d, w, f"H{i}")
                for i, (r, d, w) in enumerate(zip(releases, deadlines, workloads))
            )
        )
        for eps in (0.1, 0.01):
            cols = solve_agreeable_fptas_columns(
                releases, deadlines, workloads, platform, epsilon=eps
            )
            objs = solve_agreeable_fptas(tasks, platform, epsilon=eps)
            assert cols["energy"] == objs.predicted_energy
            assert cols["num_blocks"] == objs.num_blocks

    def test_columns_backend_independent(self):
        platform = make_platform()
        releases, deadlines, workloads = agreeable_trace(
            n=40, max_interarrival=120.0, seed=11
        )
        energies = {}
        for backend in ("scalar", "numpy", "jit"):
            if backend == "numpy" and not vectorized.HAS_NUMPY:
                continue
            with using(SolveConfig(backend)):
                result = solve_agreeable_fptas_columns(
                    releases, deadlines, workloads, platform, epsilon=0.1
                )
            energies[backend] = result["energy"]
        assert len(set(energies.values())) == 1

    def test_columns_validates_shape_and_order(self):
        platform = make_platform()
        with pytest.raises(ValueError, match="align"):
            solve_agreeable_fptas_columns([0.0], [1.0, 2.0], [1.0], platform)
        with pytest.raises(ValueError, match="agreeable"):
            solve_agreeable_fptas_columns(
                [0.0, 10.0], [50.0, 20.0], [10.0, 10.0], platform
            )

    def test_empty_columns(self):
        result = solve_agreeable_fptas_columns([], [], [], make_platform())
        assert result["energy"] == 0.0
        assert result["num_blocks"] == 0


# ---------------------------------------------------------------------------
# Batched span pricer: the scalar pricer's floats at a scale that batches
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def batching_trace():
    """n = 2000 tasks: widths 2 to 8 have at least 64 spans each, so the
    numpy backend batches them, while the wider ones keep the scalar
    pricer -- one solve mixes both branches."""
    releases, deadlines, workloads = agreeable_trace(
        n=2000, max_interarrival=120.0, seed=3
    )
    tasks = TaskSet.presorted(
        tuple(
            Task(r, d, w, f"H{i}")
            for i, (r, d, w) in enumerate(zip(releases, deadlines, workloads))
        )
    )
    return releases, deadlines, workloads, tasks


def _identity_platform(name):
    # A short break-even time keeps the overhead-on clusters small enough
    # for the scalar reference to stay quick.
    paper = paper_platform(xi_m=5.0)
    if name == "paper":
        return paper
    return Platform(replace(paper.core, alpha=0.0, lam=2.0), paper.memory)


@pytest.mark.skipif(not vectorized.HAS_NUMPY, reason="numpy backend unavailable")
class TestBatchedPricer:
    @pytest.mark.parametrize("overhead", [False, True])
    @pytest.mark.parametrize("eps", [0.1, 0.02])
    @pytest.mark.parametrize("platform_name", ["paper", "alpha0-lam2"])
    def test_backends_price_identically(
        self, batching_trace, platform_name, eps, overhead
    ):
        releases, deadlines, workloads, tasks = batching_trace
        platform = _identity_platform(platform_name)
        backends = ["scalar", "numpy"]
        if "jit" in vectorized.available_backends():
            backends.append("jit")
        solved = {}
        for backend in backends:
            reset_solver_counts()
            with using(SolveConfig(backend)):
                solution = solve_agreeable_fptas(
                    tasks, platform, epsilon=eps, include_transition_overhead=overhead
                )
            batched = solver_call_counts().get("golden_section_batch", 0)
            assert (batched > 0) == (backend != "scalar")
            solved[backend] = (
                solution.predicted_energy,
                solution.num_blocks,
                [(b.start, b.end, b.energy) for b in solution.blocks],
            )
        for backend in backends[1:]:
            assert solved[backend] == solved["scalar"], backend
        columns = solve_agreeable_fptas_columns(
            releases, deadlines, workloads, platform,
            epsilon=eps, include_transition_overhead=overhead,
        )
        assert (columns["energy"], columns["num_blocks"]) == solved["scalar"][:2]

    def test_small_solves_stay_scalar(self):
        with using(SolveConfig("numpy")):
            releases, deadlines, workloads = agreeable_trace(
                n=32, max_interarrival=20.0, seed=5
            )
            reset_solver_counts()
            result = solve_agreeable_fptas_columns(
                releases, deadlines, workloads, make_platform(), epsilon=0.1
            )
            assert result["max_cluster_size"] > 2
            counts = solver_call_counts()
            assert counts.get("golden_section", 0) > 0
            assert counts.get("golden_section_batch", 0) == 0


# ---------------------------------------------------------------------------
# Huge-n trace generator
# ---------------------------------------------------------------------------


class TestAgreeableTrace:
    def test_deterministic_and_agreeable(self):
        a = agreeable_trace(n=200, max_interarrival=120.0, seed=3)
        b = agreeable_trace(n=200, max_interarrival=120.0, seed=3)
        assert a == b
        releases, deadlines, _ = a
        assert releases == sorted(releases)
        assert deadlines == sorted(deadlines)
        assert all(d >= r for r, d in zip(releases, deadlines))

    def test_backend_bit_identity(self):
        if not vectorized.HAS_NUMPY:
            pytest.skip("numpy backend unavailable")
        with using(SolveConfig("scalar")):
            scalar = agreeable_trace(n=500, max_interarrival=120.0, seed=9)
        with using(SolveConfig("numpy")):
            batched = agreeable_trace(n=500, max_interarrival=120.0, seed=9)
        assert scalar == batched
