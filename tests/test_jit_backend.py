"""The compiled (``REPRO_NUMERIC=jit``) numeric backend.

Three layers of coverage:

* cross-backend agreement to 1e-9 relative on randomized task sets for
  every solver the compiled tier accelerates (plus bit-identity between
  the kernels' fused Section-7 solve and the numpy fast path it shadows);
* graceful degradation -- requesting ``jit`` on a host where the cffi
  provider does not import must fall back to numpy/scalar with exactly
  one structured :class:`~repro.core.kernels.JitUnavailableWarning`,
  never a mid-run crash (faked by intercepting the provider import);
* backend-keyed caching -- ``ResultCache`` keys must differ across
  every backend this host can run, so a jit-computed entry is never
  served to a numpy (or scalar) request.

Agreement tests skip wholesale when no compiled provider loads (e.g. a
CI leg without cffi); the degradation and cache-key tests run
everywhere.
"""

from __future__ import annotations

import builtins
import random
import warnings

import pytest

from repro.core import kernels, solve_config, vectorized
from repro.core.blocks import block_energy, block_energy_cache_clear, solve_block
from repro.core.solve_config import SolveConfig, using
from repro.core.transition import solve_common_release_with_overhead
from repro.models import CorePowerModel, MemoryModel, Platform, Task, TaskSet
from repro.utils.solvers import bisect_increasing

REL_TOL = 1e-9

needs_jit = pytest.mark.skipif(
    not kernels.available(), reason="no compiled kernel provider loads"
)


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


def random_common_release_tasks(rng: random.Random, n: int) -> TaskSet:
    release = rng.uniform(0.0, 20.0)
    return TaskSet(
        Task(release, release + rng.uniform(5.0, 80.0), rng.uniform(50.0, 3000.0))
        for _ in range(n)
    )


def random_block_tasks(rng: random.Random, n: int) -> TaskSet:
    """Agreeable staggered-release sets (solve_block's precondition)."""
    releases = sorted(rng.uniform(0.0, 40.0) for _ in range(n))
    tasks, last_d = [], 0.0
    for r in releases:
        d = max(r + rng.uniform(5.0, 70.0), last_d + rng.uniform(0.1, 5.0))
        tasks.append(Task(r, d, rng.uniform(50.0, 3000.0)))
        last_d = d
    return TaskSet(tasks)


def per_backend(solve, backends=("scalar", "numpy", "jit")):
    """Evaluate ``solve()`` under each backend with cold memo caches."""
    results = {}
    for backend in backends:
        block_energy_cache_clear()
        vectorized.block_arrays_cache_clear()
        with using(SolveConfig(backend)):
            results[backend] = solve()
    return results


def assert_close(reference: float, candidate: float) -> None:
    scale = max(1.0, abs(reference))
    assert candidate == pytest.approx(reference, rel=REL_TOL, abs=REL_TOL * scale)


def assert_overhead_agreement(tasks, platform, rel_end) -> None:
    """numpy and jit Section 7 solves: 1e-9 to scalar, bit-identical to
    each other (the C kernel transcribes the Python fused solve statement
    for statement, and past its n limit jit runs that same Python)."""
    out = per_backend(
        lambda: solve_common_release_with_overhead(
            tasks, platform, horizon_end=rel_end
        )
    )
    for backend in ("numpy", "jit"):
        assert_close(out["scalar"].predicted_energy, out[backend].predicted_energy)
        assert_close(out["scalar"].delta, out[backend].delta)
    assert out["jit"].predicted_energy == out["numpy"].predicted_energy
    assert out["jit"].delta == out["numpy"].delta
    assert out["jit"].case_index == out["numpy"].case_index
    assert out["jit"].finish_times == out["numpy"].finish_times
    assert out["jit"].speeds == out["numpy"].speeds


@needs_jit
class TestJitAgreement:
    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    @pytest.mark.parametrize("seed", range(4))
    def test_block_energy_random(self, alpha, seed):
        rng = random.Random(2000 + seed)
        tasks = random_block_tasks(rng, rng.randint(1, 7))
        platform = make_platform(alpha)
        start = tasks.earliest_release - rng.uniform(0.0, 5.0)
        end = tasks.latest_deadline + rng.uniform(0.0, 5.0)
        out = per_backend(lambda: block_energy(tasks, platform, start, end))
        assert_close(out["numpy"], out["jit"])
        # The C kernel transcribes the scalar accumulation loop statement
        # for statement: identical floats, not merely 1e-9-close.  (numpy
        # may differ in the last ulp -- pairwise np.sum reassociates.)
        assert out["jit"] == out["scalar"]

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    @pytest.mark.parametrize("seed", range(4))
    def test_solve_block_random(self, alpha, seed):
        rng = random.Random(3000 + seed)
        tasks = random_block_tasks(rng, rng.randint(1, 6))
        platform = make_platform(alpha)
        out = per_backend(lambda: solve_block(tasks, platform))
        for backend in ("numpy", "jit"):
            assert_close(out["scalar"].energy, out[backend].energy)

    @pytest.mark.parametrize("alpha,xi,xi_m", [(0.05, 5.0, 2.0), (0.0, 5.0, 0.0)])
    @pytest.mark.parametrize("seed", range(5))
    def test_overhead_solve_random(self, alpha, xi, xi_m, seed):
        rng = random.Random(4000 + seed)
        tasks = random_common_release_tasks(rng, rng.randint(1, 8))
        platform = make_platform(alpha, xi=xi, xi_m=xi_m)
        rel_end = tasks.latest_deadline + rng.uniform(5.0, 60.0)
        assert_overhead_agreement(tasks, platform, rel_end)

    @pytest.mark.parametrize("seed", range(3))
    def test_kernel_fused_solve_bit_identical_to_python_fused(self, seed):
        pytest.importorskip("numpy")
        rng = random.Random(5000 + seed)
        tasks = random_common_release_tasks(rng, rng.randint(1, 6))
        platform = make_platform(0.05, xi=5.0, xi_m=2.0)
        rel_end = tasks.latest_deadline + 30.0
        compiled = kernels.overhead_solve_small(tasks, platform, rel_end)
        python = vectorized.overhead_solve_small(tasks, platform, rel_end)
        assert compiled[0] == python[0]
        assert tuple(compiled[1]) == tuple(python[1])
        assert tuple(compiled[2]) == tuple(python[2])
        assert (compiled[3] is None) == (python[3] is None)
        if compiled[3] is not None:
            assert tuple(compiled[3]) == tuple(python[3])

    @pytest.mark.parametrize("alpha,xi,xi_m", [(0.05, 5.0, 2.0), (0.0, 5.0, 0.0)])
    @pytest.mark.parametrize("n", [65, 200])
    @pytest.mark.parametrize("seed", range(2))
    def test_overhead_solve_above_kernel_limit(self, alpha, xi, xi_m, n, seed):
        assert n > kernels.REPRO_MAX_SMALL
        rng = random.Random(4100 + 10 * n + seed)
        tasks = random_common_release_tasks(rng, n)
        platform = make_platform(alpha, xi=xi, xi_m=xi_m)
        rel_end = tasks.latest_deadline + rng.uniform(5.0, 60.0)
        assert_overhead_agreement(tasks, platform, rel_end)

    def test_kernel_serves_only_up_to_its_limit(self, monkeypatch):
        calls = []
        compiled = kernels.overhead_solve_small

        def spy(tasks, platform, rel_end):
            calls.append(len(tasks))
            return compiled(tasks, platform, rel_end)

        monkeypatch.setattr(kernels, "overhead_solve_small", spy)
        rng = random.Random(4300)
        platform = make_platform(0.05, xi=5.0, xi_m=2.0)
        limit = kernels.REPRO_MAX_SMALL
        with using(SolveConfig("jit")):
            for n in (limit, limit + 1):
                solve_common_release_with_overhead(
                    random_common_release_tasks(rng, n), platform
                )
        assert calls == [limit]

    @pytest.mark.parametrize("mode", [0, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_powersum_roots_random_masks(self, mode, seed):
        # Mode 0 (head slope over deadlines) and mode 1 (tail condition
        # over releases) against bisect_increasing on the scalar closure.
        rng = random.Random(6000 + seed)
        n = rng.randint(2, 7)
        values = sorted(rng.uniform(0.0, 60.0) for _ in range(n))
        workloads = [rng.uniform(50.0, 3000.0) for _ in range(n)]
        lam = 3.0
        target = rng.uniform(1e5, 1e8)
        count = 6
        masks, lo, hi, expected = [], [], [], []
        for _ in range(count):
            mask = [rng.randint(0, 1) for _ in range(n)]
            mask[rng.randrange(n)] = 1
            chosen = [v for v, flag in zip(values, mask) if flag]
            # Brackets wide enough that the power sum falls below every
            # target at the far end, so the root is interior, not clamped.
            if mode == 0:
                b = min(chosen) - rng.uniform(0.0, 1.0)
                a = b - rng.uniform(150.0, 250.0)
            else:
                a = max(chosen) + rng.uniform(0.0, 1.0)
                b = a + rng.uniform(150.0, 250.0)

            def closure(x, mask=mask):
                acc = 0.0
                for flag, v, w in zip(mask, values, workloads):
                    if not flag:
                        continue
                    length = v - x if mode == 0 else x - v
                    if length <= 0.0:
                        return float("inf") if mode == 0 else float("-inf")
                    acc += (w / length) ** lam
                return acc - target if mode == 0 else target - acc

            masks.extend(mask)
            lo.append(a)
            hi.append(b)
            expected.append(bisect_increasing(closure, a, b))
        got = kernels.powersum_roots(
            values, workloads, bytes(masks), count, lo, hi, target, lam, mode
        )
        assert len(got) == count
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-9

    def test_warm_up_reports_provider(self):
        assert kernels.warm_up() == kernels.provider_name()
        assert kernels.provider_name() == "cffi"

    def test_available_backends_lists_jit(self):
        assert "jit" in vectorized.available_backends()


class TestJitFallback:
    """Degradation when no compiled provider imports (faked ImportError)."""

    @pytest.fixture()
    def broken_jit(self, monkeypatch):
        """Make the provider import raise ImportError, reset warn latch."""
        kernels.clear()
        real_import = builtins.__import__

        def failing_import(name, *args, **kwargs):
            if name.startswith("repro.core.kernels._"):
                raise ImportError(f"No module named {name!r} (faked)")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", failing_import)
        monkeypatch.setattr(solve_config, "_jit_fallback_warned", False)
        yield
        monkeypatch.setattr(builtins, "__import__", real_import)
        kernels.clear()  # forget the failed resolution for later tests

    def test_fallback_warns_once_and_never_crashes(self, broken_jit):
        assert not kernels.available()
        assert "faked" in (kernels.load_error() or "")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolved = SolveConfig("jit").backend
            # Re-requesting must not warn again (one warning per process).
            SolveConfig("jit")
        expected = "numpy" if vectorized.HAS_NUMPY else "scalar"
        assert resolved == expected
        jit_warnings = [
            w for w in caught
            if issubclass(w.category, kernels.JitUnavailableWarning)
        ]
        assert len(jit_warnings) == 1
        assert "falling back" in str(jit_warnings[0].message)

    def test_fallback_backend_still_solves(self, broken_jit):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = SolveConfig("jit")
        tasks = TaskSet([Task(0.0, 50.0, 3000.0), Task(0.0, 80.0, 4000.0)])
        with using(config):
            solution = solve_common_release_with_overhead(
                tasks, make_platform(0.05, xi=5.0), horizon_end=120.0
            )
        assert solution.predicted_energy > 0.0

    def test_jit_absent_from_available_backends(self, broken_jit):
        assert "jit" not in vectorized.available_backends()


class TestBackendKeyedCache:
    """ResultCache keys must partition by backend (satellite 3)."""

    def _key(self, backend):
        from repro.experiments.cache import unit_key
        from repro.models import paper_platform

        return unit_key(
            paper_platform(), {"kind": "synthetic", "n": 4}, 0, "sdem-on",
            config=SolveConfig(backend),
        )

    def _backends(self):
        names = ["scalar"]
        if vectorized.HAS_NUMPY:
            names.append("numpy")
        if kernels.available():
            names.append("jit")
        return names

    def test_unit_keys_distinct_across_backends(self):
        keys = {b: self._key(b) for b in self._backends()}
        assert len(set(keys.values())) == len(keys)

    def test_jit_entry_never_served_to_numpy_request(self, tmp_path):
        pytest.importorskip("numpy")
        if not kernels.available():
            pytest.skip("no compiled kernel provider loads")
        from repro.experiments.cache import ResultCache
        from repro.models import paper_platform

        cache = ResultCache(root=str(tmp_path))
        platform = paper_platform()
        trace = {"kind": "synthetic", "n": 4}

        jit_key = cache.unit_key(
            platform, trace, 0, "sdem-on", config=SolveConfig("jit")
        )
        cache.put(jit_key, {"energy": 123.0, "backend": "jit"})
        assert cache.get(jit_key) == {"energy": 123.0, "backend": "jit"}

        numpy_key = cache.unit_key(
            platform, trace, 0, "sdem-on", config=SolveConfig("numpy")
        )
        assert numpy_key != jit_key
        assert cache.get(numpy_key) is None

    def test_service_request_key_partitions_by_backend(self):
        from repro.experiments.cache import service_request_key
        from repro.models import paper_platform

        tasks_config = [[0.0, 40.0, 8000.0, "a"]]
        keys = {
            backend: service_request_key(
                paper_platform(), tasks_config, "common-release",
                SolveConfig(backend),
            )
            for backend in self._backends()
        }
        assert len(set(keys.values())) == len(keys)


class TestServiceProtocolJit:
    WIRE = {
        "v": 1,
        "id": "r1",
        "kind": "solve",
        "tasks": [
            {"name": "a", "release": 0.0, "deadline": 40.0, "workload": 8000.0},
        ],
    }

    def test_protocol_accepts_jit_numeric(self):
        from repro.service.protocol import request_from_wire

        request = request_from_wire({**self.WIRE, "numeric": "jit"})
        assert request.numeric == "jit"

    def test_protocol_rejects_unknown_numeric(self):
        from repro.service.protocol import ProtocolError, request_from_wire

        with pytest.raises(ProtocolError, match="jit"):
            request_from_wire({**self.WIRE, "numeric": "cuda"})
