"""Tests for the parallel experiment engine and the result cache.

The load-bearing property is determinism: serial, parallel and
warm-cache runs of the same sweep must produce identical
``SeriesResult.rows()`` output, down to the last bit, because the
engine aggregates work units in seed order regardless of completion
order and the cache round-trips floats exactly.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.cache import (
    CODE_SALT,
    ResultCache,
    default_cache_root,
    platform_fingerprint,
    unit_key,
)
from repro.experiments.config import experiment_platform
from repro.experiments.fig6 import fig6_specs, run_fig6
from repro.experiments.fig7 import fig7_grid_specs
from repro.experiments.parallel import (
    DspstoneTraceSpec,
    PointSpec,
    SyntheticTraceSpec,
    resolve_workers,
    run_series,
    run_unit,
)
from repro.experiments.runner import compare_policies, simulate_unit
from repro.workloads.dspstone import dspstone_trace
from repro.workloads.synthetic import synthetic_tasks
from tests.cache_faults import FAULTS, bare_scalar, copied_from_another_key


@pytest.fixture
def small_specs():
    return fig6_specs("fft", u_values=[2, 4], instances=12)


class TestTraceSpecs:
    def test_dspstone_spec_matches_legacy_lambda(self):
        """The spec reproduces the historical fig6 seed mapping exactly."""
        u = 5
        spec = DspstoneTraceSpec(
            benchmark="fft",
            utilization_factor=float(u),
            n=12,
            streams=8,
            seed_stride=1009,
            seed_offset=u,
        )
        for seed in (0, 1, 7):
            legacy = dspstone_trace(
                "fft",
                utilization_factor=float(u),
                n=12,
                seed=seed * 1009 + u,
                streams=8,
            )
            assert spec(seed) == legacy

    def test_synthetic_spec_matches_legacy_lambda(self):
        """Same for the fig7 mapping ``seed * 7919 + int(x)``."""
        x = 400.0
        spec = SyntheticTraceSpec(
            n=10, max_interarrival=x, seed_stride=7919, seed_offset=int(x)
        )
        for seed in (0, 3):
            legacy = synthetic_tasks(n=10, max_interarrival=x, seed=seed * 7919 + int(x))
            assert spec(seed) == legacy

    def test_specs_pickle(self):
        import pickle

        spec = DspstoneTraceSpec(benchmark="fft", utilization_factor=2.0, n=4)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_trace_config_is_json_serializable(self):
        spec = SyntheticTraceSpec(n=10, max_interarrival=400.0)
        json.dumps(spec.trace_config())


class TestDeterminism:
    def test_serial_parallel_warm_cache_rows_identical(self, small_specs, tmp_path):
        """The issue's acceptance test: three engines, one answer."""
        cache = ResultCache(str(tmp_path / "cache"))
        serial = run_series("slice", small_specs, seeds=3, max_workers=1)
        parallel = run_series("slice", small_specs, seeds=3, max_workers=2)
        cold = run_series("slice", small_specs, seeds=3, max_workers=2, cache=cache)
        warm = run_series("slice", small_specs, seeds=3, max_workers=1, cache=cache)

        assert serial.rows() == parallel.rows() == cold.rows() == warm.rows()
        # The warm run really came from the cache.
        assert all(p.cached_units == 3 for p in warm.points)
        assert all(p.solver_calls == 0 for p in warm.points)

    def test_run_fig6_parallel_matches_serial(self):
        serial = run_fig6("fft", u_values=[3], seeds=2, instances=10, max_workers=1)
        par = run_fig6("fft", u_values=[3], seeds=2, instances=10, max_workers=2)
        assert serial.rows() == par.rows()

    def test_fig7_specs_deterministic_across_workers(self):
        specs = fig7_grid_specs([(4000.0, 40.0)], [400.0], trace_length=8)
        serial = run_series("g", specs, seeds=2, max_workers=1)
        par = run_series("g", specs, seeds=2, max_workers=2)
        assert serial.rows() == par.rows()

    def test_timing_columns_opt_in(self, small_specs):
        series = run_series("slice", small_specs, seeds=1, max_workers=1)
        plain = series.rows()[0]
        timed = series.rows(include_timing=True)[0]
        for column in ("wall_ms", "solver_calls", "cached_units"):
            assert column not in plain
            assert column in timed


class TestEngineEdges:
    def test_unpicklable_factory_raises_clear_error(self):
        platform = experiment_platform()
        spec = PointSpec(
            label="lambda",
            trace_factory=lambda seed: synthetic_tasks(
                n=4, max_interarrival=200.0, seed=seed
            ),
            platform=platform,
        )
        # Enough units to exceed the inline threshold, so the pool (and
        # hence the pickling check) actually engages.
        with pytest.raises(ValueError, match="picklable"):
            run_series("bad", [spec], seeds=12, max_workers=2)

    def test_tiny_unpicklable_run_stays_inline(self):
        platform = experiment_platform()
        spec = PointSpec(
            label="lambda",
            trace_factory=lambda seed: synthetic_tasks(
                n=4, max_interarrival=200.0, seed=seed
            ),
            platform=platform,
        )
        # <= 8 units run in-process even with max_workers=2, so an
        # unpicklable factory is fine.
        series = run_series("tiny", [spec], seeds=2, max_workers=2)
        assert len(series.points) == 1

    def test_lambda_factory_fine_in_process(self):
        platform = experiment_platform()
        spec = PointSpec(
            label="lambda",
            trace_factory=lambda seed: synthetic_tasks(
                n=4, max_interarrival=200.0, seed=seed
            ),
            platform=platform,
        )
        series = run_series("ok", [spec], seeds=2, max_workers=1)
        assert len(series.points) == 1

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_zero_seeds_rejected(self, small_specs):
        with pytest.raises(ValueError, match="seeds"):
            run_series("none", small_specs, seeds=0)

    def test_empty_trace_raises_clear_message(self):
        platform = experiment_platform()
        with pytest.raises(ValueError, match="empty trace"):
            simulate_unit(lambda seed: [], platform, 0, label="U=0")

    def test_compare_policies_empty_trace_message_names_point(self):
        platform = experiment_platform()
        with pytest.raises(ValueError, match="U=0"):
            compare_policies(
                label="U=0",
                trace_factory=lambda seed: [],
                platform=platform,
                seeds=1,
            )


class TestResultCache:
    def test_key_depends_on_every_component(self):
        platform = experiment_platform()
        other = experiment_platform(alpha_m=5000.0)
        config = {"kind": "synthetic", "n": 10}
        base = unit_key(platform, config, 0, "sdem")
        assert base == unit_key(platform, config, 0, "sdem")
        assert base != unit_key(other, config, 0, "sdem")
        assert base != unit_key(platform, {"kind": "synthetic", "n": 11}, 0, "sdem")
        assert base != unit_key(platform, config, 1, "sdem")
        assert base != unit_key(platform, config, 0, "mbkp")
        assert base != unit_key(platform, config, 0, "sdem", salt=CODE_SALT + "x")

    def test_platform_fingerprint_covers_memory_and_cores(self):
        fingerprint = platform_fingerprint(experiment_platform())
        assert {"alpha_m", "xi_m", "num_cores", "beta", "lam"} <= set(fingerprint)

    def test_roundtrip_preserves_float_bits(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        value = {"total": 0.1 + 0.2, "memory": 1e-17}
        cache.put("ab" + "0" * 62, value)
        got = cache.get("ab" + "0" * 62)
        assert got["total"] == value["total"]
        assert got["memory"] == value["memory"]

    def test_missing_and_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = "cd" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, {"total": 1.0})
        path = os.path.join(cache.root, key[:2], key[2:] + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.get(key) is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        for index in range(3):
            cache.put(f"{index:02x}" + "0" * 62, {"total": float(index)})
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert "entries" in stats.render()
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_default_cache_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_root("/somewhere/else") == str(tmp_path / "env")
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_root(str(tmp_path)) == str(tmp_path / ".cache")

    def test_run_unit_all_or_nothing(self, small_specs, tmp_path):
        """A unit only counts as cached when all three policies hit."""
        cache = ResultCache(str(tmp_path / "c"))
        spec = small_specs[0]
        first = run_unit(spec, 0, cache)
        assert not first.from_cache
        # Drop one policy's entry: the unit must re-simulate.
        config = spec.trace_factory.trace_config()
        key = cache.unit_key(spec.platform, config, 0, "mbkp")
        os.unlink(os.path.join(cache.root, key[:2], key[2:] + ".json"))
        partial = run_unit(spec, 0, cache)
        assert not partial.from_cache
        full = run_unit(spec, 0, cache)
        assert full.from_cache
        assert full.totals == first.totals
        assert full.memory == first.memory

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_corrupt_entry_is_recomputed_and_overwritten(
        self, small_specs, tmp_path, fault
    ):
        cache = ResultCache(str(tmp_path / "c"))
        spec = small_specs[0]
        first = run_unit(spec, 0, cache)
        config = spec.trace_factory.trace_config()
        key, donor = (
            cache.unit_key(spec.platform, config, 0, policy)
            for policy in ("mbkp", "sdem")
        )
        FAULTS[fault](cache, key, donor)
        reader = ResultCache(cache.root)
        again = run_unit(spec, 0, reader)
        assert not again.from_cache
        assert reader.corrupt == 1
        assert (again.totals, again.memory) == (first.totals, first.memory)
        healed = run_unit(spec, 0, reader)
        assert healed.from_cache
        assert (healed.totals, healed.memory) == (first.totals, first.memory)
        assert reader.corrupt == 1
        assert reader.stats().corrupt_entries == 0

    def test_stats_count_corrupt_entries_on_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        keys = [f"{index:02x}" + "0" * 62 for index in range(3)]
        for key in keys:
            cache.put(key, {"total": 1.0, "memory": 0.5})
        assert cache.stats().corrupt_entries == 0
        bare_scalar(cache, keys[0], None)
        copied_from_another_key(cache, keys[1], keys[2])
        stats = cache.stats()
        assert (stats.entries, stats.corrupt_entries) == (3, 2)
        assert "(2 corrupt)" in stats.render()
        assert cache.get(keys[0]) is None
        assert cache.stats().corrupt == 1
        assert "1 corrupt" in cache.stats().render()

    def test_cache_pickles_without_counters(self, tmp_path):
        import pickle

        cache = ResultCache(str(tmp_path / "c"))
        cache.misses = 5
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.root == cache.root
        assert clone.misses == 0
