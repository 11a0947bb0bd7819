"""The one solve config: resolution, scoping, keys and the service contract.

* a config resolves ``jit`` once, and what it records (cache key, batch
  key, provenance) is the backend that computed the result;
* cache keys of configs that resolve to what was requested are the
  digests of the process-global selection this config replaced;
* interleaved mixed-config requests return, on the inline tier and on a
  2-shard service, the bytes of a serial direct solve under each
  request's config (so no batch sees another batch's config and no cache
  entry aliases across backends, tiers or ε);
* concurrent threads each solve under their own config.
"""

from __future__ import annotations

import asyncio
import pickle
import tempfile
import threading
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SdemOnlinePolicy, kernels, vectorized
from repro.core.fptas import get_solver_tier
from repro.core.solve_config import SolveConfig, current, using
from repro.experiments.cache import ResultCache, service_request_key, unit_key
from repro.models import Task, TaskSet, paper_platform
from repro.service import protocol
from repro.service.batcher import batch_key
from repro.service.server import SolveService
from repro.sim import simulate

#: The backends this host can run, and the tier/ε pairs the mixed tests use.
BACKENDS = vectorized.available_backends()
TIERS = [("exact", None), ("fptas", 0.1), ("fptas", 0.5)]

#: Small instances covering the offline schemes and one online replay.
INSTANCES = [
    [(0.0, 40.0, 8000.0), (0.0, 70.0, 15000.0), (0.0, 100.0, 4000.0)],
    [(0.0, 30.0, 3000.0), (10.0, 45.0, 5000.0), (20.0, 80.0, 6000.0)],
    [(0.0, 50.0, 4000.0), (60.0, 90.0, 3000.0), (30.0, 200.0, 2000.0)],
]


def solve_wire(request_id, instance, backend, tier, epsilon):
    wire = {
        "kind": "solve",
        "id": request_id,
        "numeric": backend,
        "solver": tier,
        "tasks": [
            {"name": f"t{i}", "release": r, "deadline": d, "workload": w}
            for i, (r, d, w) in enumerate(INSTANCES[instance])
        ],
    }
    if epsilon is not None:
        wire["epsilon"] = epsilon
    return wire


def serve(wires, **kwargs):
    """Every wire's response from one service, submitted concurrently."""

    async def body():
        service = SolveService(**kwargs)
        await service.start()
        try:
            return await asyncio.gather(
                *[service.handle_message(dict(w)) for w in wires]
            )
        finally:
            await service.drain()

    return asyncio.run(body())


class TestJitResolvedOnce:
    @pytest.fixture
    def no_jit(self, monkeypatch):
        monkeypatch.setattr(kernels, "available", lambda: False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", kernels.JitUnavailableWarning)
            yield "numpy" if vectorized.HAS_NUMPY else "scalar"

    def test_config_names_the_backend_that_runs(self, no_jit):
        assert SolveConfig("jit").backend == no_jit
        assert SolveConfig("jit") == SolveConfig(no_jit)

    def test_jit_request_keyed_and_reported_as_what_ran(self, no_jit, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        wire = solve_wire("j1", 0, "jit", "exact", None)
        [response] = serve([wire], cache=cache)
        assert response["ok"] is True
        assert response["provenance"]["backend"] == no_jit
        request = protocol.request_from_wire(wire)
        ran = SolveConfig(no_jit)
        key = service_request_key(
            request.platform,
            request.tasks_config(),
            response["result"]["scheme"],
            ran,
        )
        assert cache.get(key) == response["result"]
        twin = protocol.request_from_wire(solve_wire("n1", 0, no_jit, "exact", None))
        for admitted in (request, twin):
            admitted.config = admitted.solve_config(SolveConfig())
        assert batch_key(request) == batch_key(twin)


class TestKeysUnchanged:
    """Digests of the backend/tier selection this config replaced."""

    TRACE = {"kind": "synthetic", "n": 4}
    TASKS = [[0.0, 40.0, 8000.0, "a"]]

    @pytest.fixture(autouse=True)
    def _numpy_config(self, monkeypatch):
        # Keys are pure functions of a config: pin numpy even without it.
        monkeypatch.setattr(vectorized, "HAS_NUMPY", True)

    def test_unit_keys(self):
        platform = paper_platform()
        exact = SolveConfig("numpy")
        fptas = SolveConfig("numpy", "fptas", 0.25)
        assert unit_key(platform, self.TRACE, 0, "sdem-on", config=exact) == (
            "cfb26fb5dfe021395d63b6d883d32328daa8626db0e15c25226c00e90a2285f7"
        )
        assert unit_key(platform, self.TRACE, 0, "sdem-on", config=fptas) == (
            "8e5319ce4d26d24e4a18784c4514be69af350574a42e35f5ef92bdb362b198f1"
        )

    def test_service_request_keys(self):
        platform = paper_platform()
        exact = SolveConfig("numpy")
        fptas = SolveConfig("numpy", "fptas", 0.25)
        assert service_request_key(
            platform, self.TASKS, "common-release", exact
        ) == "b0acc15dcc916b0cd4847427aa03121d1f459e706348919f0e4a4f79805a636f"
        assert service_request_key(
            platform, self.TASKS, "agreeable", fptas
        ) == "6caa7cda37fa6877dba9e474da9c49af17164472bf8328d5fc1a0270fac83103"


class TestValidation:
    def test_epsilon_needs_explicit_fptas(self):
        with pytest.raises(ValueError, match="epsilon only applies"):
            SolveConfig.validate(None, None, 0.1)
        with pytest.raises(ValueError, match="epsilon only applies"):
            SolveConfig.validate(None, "exact", 0.1)
        assert SolveConfig.validate("scalar", "fptas", "0.5") == (
            "scalar",
            "fptas",
            0.5,
        )

    def test_pickle_round_trip(self):
        config = SolveConfig(BACKENDS[-1], "fptas", 0.25)
        assert pickle.loads(pickle.dumps(config)) == config

    @pytest.mark.skipif(not kernels.available(), reason="no compiled provider")
    def test_unpickled_jit_config_loads_the_provider(self):
        """A jit config reaching a process whose provider was never loaded
        (spawned worker) resolves on arrival instead of solving unloaded."""
        payload = pickle.dumps(SolveConfig("jit"))
        tasks = TaskSet(Task(*row) for row in INSTANCES[2])
        platform = paper_platform()
        with using(SolveConfig("jit")):
            want = simulate(SdemOnlinePolicy(platform), tasks, platform)
        kernels.clear()
        config = pickle.loads(payload)
        assert config.backend == "jit"
        assert kernels._provider is not None
        with using(config):
            got = simulate(SdemOnlinePolicy(platform), tasks, platform)
        assert got.breakdown.total == want.breakdown.total

    def test_config_is_frozen(self):
        config = SolveConfig()
        with pytest.raises(AttributeError):
            config.tier = "fptas"  # type: ignore[misc]


mixed_requests = st.lists(
    st.tuples(
        st.integers(0, len(INSTANCES) - 1),
        st.sampled_from(BACKENDS),
        st.sampled_from(TIERS),
    ),
    min_size=4,
    max_size=10,
)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mixed_requests)
def test_mixed_configs_match_serial_direct_solves(draws):
    wires = [
        solve_wire(f"m{i}", instance, backend, tier, epsilon)
        for i, (instance, backend, (tier, epsilon)) in enumerate(draws)
    ]
    expected = []
    for instance, backend, (tier, epsilon) in draws:
        # The tier is request-scoped on the wire; the backend comes from
        # the active config when the request names none.
        request = protocol.request_from_wire(
            solve_wire("direct", instance, None, tier, epsilon)
        )
        with using(SolveConfig(backend, tier, epsilon or 0.1)):
            result = protocol.execute_request(request)
        expected.append(protocol.canonical_result_bytes(result))
    for shards in (0, 2):
        with tempfile.TemporaryDirectory() as root:
            responses = serve(wires, shards=shards, cache=ResultCache(root))
        assert all(r["ok"] for r in responses), shards
        got = [protocol.canonical_result_bytes(r["result"]) for r in responses]
        assert got == expected, shards
        assert [r["provenance"]["backend"] for r in responses] == [
            SolveConfig(backend).backend for _, backend, _ in draws
        ]


def test_threads_each_see_their_own_config():
    """Two threads replaying SDEM-ON at once, under different configs."""
    configs = [
        SolveConfig(BACKENDS[0], "exact"),
        SolveConfig(BACKENDS[-1], "fptas", 0.5),
    ]
    tasks = TaskSet(Task(*row) for row in INSTANCES[2])
    platform = paper_platform()
    barrier = threading.Barrier(len(configs))
    seen = {}
    energies = {}

    def replay():
        return simulate(SdemOnlinePolicy(platform), tasks, platform).breakdown.total

    def solve(index, config):
        with using(config):
            observed = set()
            for _ in range(3):
                barrier.wait(timeout=30)
                observed.add((vectorized.get_backend(), get_solver_tier()))
                energies[index] = replay()
            seen[index] = observed

    outer = current()
    threads = [
        threading.Thread(target=solve, args=(index, config))
        for index, config in enumerate(configs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert current() == outer
    for index, config in enumerate(configs):
        assert seen[index] == {(config.backend, config.tier)}
        with using(config):
            assert energies[index] == replay()
