"""Fast-path properties: randomized traces, both backends, pinned seeds.

The batched simulation/accounting fast path must be invisible in the
outputs: trace generation stays bit-identical to the scalar loop,
``simulate_unit`` energies agree to 1e-9 across backends, and rounded
exhibit rows (``SeriesResult.rows()``) are *byte-identical* no matter
which backend produced them.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import vectorized
from repro.core.blocks import block_energy_cache_clear
from repro.core.solve_config import SolveConfig, using
from repro.energy.accounting import SleepPolicy, account_segments
from repro.experiments.runner import SeriesResult, compare_policies
from repro.models import CorePowerModel, MemoryModel, Platform, Task, TaskSet
from repro.sim.engine import simulate_segments
from repro.baselines.mbkp import mbkps
from repro.workloads.dspstone import dspstone_trace
from repro.workloads.synthetic import synthetic_tasks

REL_TOL = 1e-9

needs_numpy = pytest.mark.skipif(
    not vectorized.HAS_NUMPY, reason="numpy backend unavailable"
)


def experiment_platform(num_cores: int = 4) -> Platform:
    return Platform(
        CorePowerModel(beta=1e-6, lam=3.0, alpha=2.0, s_up=1000.0, xi=5.0),
        MemoryModel(alpha_m=10.0, xi_m=8.0),
        num_cores=num_cores,
    )


def per_backend(build):
    """Evaluate ``build()`` under each backend with cold memo caches."""
    results = {}
    for backend in ("scalar", "numpy"):
        block_energy_cache_clear()
        vectorized.block_arrays_cache_clear()
        with using(SolveConfig(backend)):
            results[backend] = build()
    return results["scalar"], results["numpy"]


def fft_factory(seed: int):
    return dspstone_trace(
        "fft", utilization_factor=3.0, n=24, seed=seed, streams=4
    )


def synthetic_factory(seed: int):
    return synthetic_tasks(n=20, max_interarrival=30.0, seed=seed)


@needs_numpy
class TestTraceGenerationBitIdentity:
    """The columnwise trace builds may never change experiment inputs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fft_trace_bit_identical(self, seed):
        scalar, numpy_ = per_backend(lambda: fft_factory(seed))
        assert [
            (t.release, t.deadline, t.workload, t.name) for t in scalar
        ] == [(t.release, t.deadline, t.workload, t.name) for t in numpy_]

    @pytest.mark.parametrize("seed", range(6))
    def test_synthetic_trace_bit_identical(self, seed):
        scalar, numpy_ = per_backend(lambda: synthetic_factory(seed))
        assert [
            (t.release, t.deadline, t.workload, t.name) for t in scalar
        ] == [(t.release, t.deadline, t.workload, t.name) for t in numpy_]

    @pytest.mark.parametrize("streams", [1, 3])
    def test_matmul_trace_stays_scalar_and_identical(self, streams):
        # matmul consumes a data-dependent number of draws and must not
        # be batched; both backends run the same scalar loop.
        build = lambda: dspstone_trace(  # noqa: E731
            "matmul", utilization_factor=4.0, n=18, seed=7, streams=streams
        )
        scalar, numpy_ = per_backend(build)
        assert [(t.release, t.workload) for t in scalar] == [
            (t.release, t.workload) for t in numpy_
        ]


@needs_numpy
class TestSimulateUnitAgreement:
    """Unit energies agree across backends to 1e-9 relative."""

    @pytest.mark.parametrize("factory", [fft_factory, synthetic_factory])
    @pytest.mark.parametrize("seed", range(4))
    def test_unit_totals_agree(self, factory, seed):
        from repro.experiments.runner import simulate_unit

        platform = experiment_platform()
        scalar, numpy_ = per_backend(
            lambda: simulate_unit(factory, platform, seed)
        )
        for s_val, n_val in zip(
            scalar.totals + scalar.memory, numpy_.totals + numpy_.memory
        ):
            assert n_val == pytest.approx(s_val, rel=REL_TOL, abs=1e-9)

    def test_rows_byte_identical_across_backends(self):
        platform = experiment_platform()

        def build():
            series = SeriesResult(name="prop")
            for label, factory in (
                ("fft", fft_factory),
                ("syn", synthetic_factory),
            ):
                series.points.append(
                    compare_policies(label, factory, platform, seeds=3)
                )
            return json.dumps(series.rows(), sort_keys=True)

        scalar_rows, numpy_rows = per_backend(build)
        assert scalar_rows == numpy_rows


class TestSharedSegmentTablePricing:
    """MBKPS/MBKP come from one schedule priced under two policies."""

    @pytest.mark.parametrize("seed", range(3))
    def test_multi_policy_pricing_matches_single_calls(self, seed):
        platform = experiment_platform()
        trace = fft_factory(seed)
        horizon = (
            min(t.release for t in trace),
            max(t.deadline for t in trace),
        )
        run = simulate_segments(mbkps(platform), trace, horizon=horizon)
        both = account_segments(
            run.segments,
            platform,
            horizon=horizon,
            memory_policies=(SleepPolicy.ALWAYS, SleepPolicy.NEVER),
        )
        singles = [
            account_segments(
                run.segments,
                platform,
                horizon=horizon,
                memory_policies=(policy,),
            )[0]
            for policy in (SleepPolicy.ALWAYS, SleepPolicy.NEVER)
        ]
        assert [b.total for b in both] == [s.total for s in singles]
        assert [b.memory_total for b in both] == [
            s.memory_total for s in singles
        ]
        # Same schedule, different pricing: MBKP (never sleeps) pays at
        # least as much memory energy as MBKPS (always sleeps).
        assert both[1].memory_total >= both[0].memory_total - 1e-12


class TestTaskSetPresorted:
    """The replan hot-path constructor must match the checked one."""

    def test_presorted_matches_sorted_constructor(self):
        rng = random.Random(11)
        tasks = [
            Task(5.0, 5.0 + rng.uniform(1.0, 50.0), rng.uniform(10.0, 500.0))
            for _ in range(8)
        ]
        ordered = tuple(
            sorted(tasks, key=lambda t: (t.deadline, t.release, t.workload))
        )
        fast = TaskSet.presorted(ordered)
        checked = TaskSet(tasks)
        assert list(fast) == list(checked)

    def test_presorted_rejects_empty(self):
        with pytest.raises(ValueError):
            TaskSet.presorted(())
