"""The numpy agreeable DP prices blocks in same-length batches, bit for bit.

Under the numpy backend :func:`repro.core.agreeable.solve_agreeable` runs
one batched descent per block length
(:func:`repro.core.blocks.solve_blocks_by_length`) instead of one
:func:`repro.core.blocks.solve_block` call per block.  These tests pin the
batched path to the per-block numpy path with exact float equality (not
the 1e-9 backend-agreement tolerance): every block's start, end, energy and
placements, the chosen partition and ``predicted_energy``.  They also pin
that the scalar and jit backends keep the per-block path and that the
batched path leaves the per-block memo caches empty.  Skipped wholesale
when numpy is not importable (the scalar-only CI leg).
"""

from __future__ import annotations

import random

import pytest

from repro.core import agreeable, kernels, vectorized
from repro.core.agreeable import solve_agreeable
from repro.core.blocks import (
    block_energy_cache_clear,
    block_energy_cache_info,
    solve_block,
    solve_blocks_by_length,
)
from repro.core.solve_config import SolveConfig, using
from repro.models import CorePowerModel, MemoryModel, Platform, Task, TaskSet
from repro.models.platform import paper_platform
from repro.workloads.synthetic import agreeable_trace

pytestmark = pytest.mark.skipif(
    not vectorized.HAS_NUMPY, reason="numpy backend unavailable"
)

PLATFORMS = {
    # Section 5.2 (alpha != 0) on the paper's Cortex-A57 + DRAM platform.
    "paper": paper_platform(),
    # Section 5.1 (alpha = 0), same memory.
    "alpha0": paper_platform(alpha=0.0),
    # A non-integer exponent takes numpy's general power loop.
    "lam2.5": Platform(
        CorePowerModel(beta=1e-6, lam=2.5, alpha=2.0, s_up=1000.0),
        MemoryModel(alpha_m=10.0, xi_m=5.0),
    ),
}


@pytest.fixture(autouse=True)
def _numpy_backend():
    vectorized.block_arrays_cache_clear()
    with using(SolveConfig("numpy")):
        yield
    vectorized.block_arrays_cache_clear()


def paper_tasks(n: int, seed: int) -> TaskSet:
    """A Section 8 agreeable trace: sparse enough to have feasibility gaps."""
    releases, deadlines, workloads = agreeable_trace(
        n=n, max_interarrival=400.0, seed=seed
    )
    return TaskSet(
        Task(r, d, w, f"A{i}")
        for i, (r, d, w) in enumerate(zip(releases, deadlines, workloads))
    )


def dense_tasks(n: int, seed: int) -> TaskSet:
    """Overlapping windows: no gaps, so long blocks survive pruning."""
    rng = random.Random(seed)
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


def bits(solution):
    """A block solution as exact float bit patterns."""
    return (
        solution.start.hex(),
        solution.end.hex(),
        solution.energy.hex(),
        tuple(
            (p.name, p.start.hex(), p.end.hex(), p.speed.hex())
            for p in solution.placements
        ),
        tuple(solution.tasks),
    )


def per_block(tasks, platform, spans):
    """The per-block numpy engine, as the DP ran before batching."""
    return {(p, q): solve_block(tasks.subset(p, q), platform) for p, q in spans}


def all_spans(n: int):
    return [(p, q) for p in range(n) for q in range(p + 1, n + 1)]


def assert_same_solution(batched, reference):
    assert batched.predicted_energy.hex() == reference.predicted_energy.hex()
    assert [(b.tasks[0].name, len(b.tasks)) for b in batched.blocks] == [
        (b.tasks[0].name, len(b.tasks)) for b in reference.blocks
    ]
    assert [bits(b) for b in batched.blocks] == [bits(b) for b in reference.blocks]


@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize(
    "n, overhead",
    # n = 32 with the overhead prices 528 spans one at a time on the
    # reference side; test_n32_every_length_bit_identical covers it.
    [(1, False), (1, True), (2, False), (2, True), (9, False), (9, True),
     (32, False)],
)
def test_dp_matches_per_block_dp(platform_name, n, overhead, monkeypatch):
    """Every priced block, the partition and the energy, against the same
    DP run on per-block ``solve_block`` calls."""
    platform = PLATFORMS[platform_name]
    tasks = paper_tasks(n, 100 + n)
    priced = {}

    def spy(engine):
        def price(tasks_, platform_, spans):
            priced[engine] = engine(tasks_, platform_, spans)
            return priced[engine]

        return price

    monkeypatch.setattr(
        agreeable, "solve_blocks_by_length", spy(solve_blocks_by_length)
    )
    batched = solve_agreeable(tasks, platform, include_transition_overhead=overhead)
    block_energy_cache_clear()
    monkeypatch.setattr(agreeable, "solve_blocks_by_length", spy(per_block))
    reference = solve_agreeable(tasks, platform, include_transition_overhead=overhead)

    spans = sorted(priced[per_block])
    if overhead:
        assert spans == all_spans(n)  # no gap pruning: every length 1..n
    assert sorted(priced[solve_blocks_by_length]) == spans
    for span in spans:
        assert bits(priced[solve_blocks_by_length][span]) == bits(
            priced[per_block][span]
        ), span
    assert_same_solution(batched, reference)


@pytest.mark.parametrize("platform_name", ["paper", "alpha0"])
def test_n32_every_length_bit_identical(platform_name, monkeypatch):
    """n = 32 with the transition overhead prices all 528 spans in 32
    length groups.  One row of every group, every chosen block and the DP
    energy are checked against per-block solves."""
    platform = PLATFORMS[platform_name]
    n = 32
    tasks = paper_tasks(n, 132)
    priced = {}

    def spy(tasks_, platform_, spans):
        priced.update(solve_blocks_by_length(tasks_, platform_, spans))
        return priced

    monkeypatch.setattr(agreeable, "solve_blocks_by_length", spy)
    solution = solve_agreeable(tasks, platform, include_transition_overhead=True)
    block_energy_cache_clear()
    assert sorted(priced) == all_spans(n)
    for m in range(1, n + 1):
        p = (7 * m) % (n - m + 1)
        reference = solve_block(tasks.subset(p, p + m), platform)
        assert bits(priced[(p, p + m)]) == bits(reference), (p, m)

    expected = 0.0
    first = 0
    for block in solution.blocks:
        stop = first + len(block.tasks)
        reference = solve_block(tasks.subset(first, stop), platform)
        assert bits(block) == bits(reference)
        expected = expected + reference.energy + solution.block_overhead
        first = stop
    assert first == n
    assert solution.predicted_energy.hex() == expected.hex()


def test_all_blocks_one_length(monkeypatch):
    """Every task isolated by a feasibility gap: with gap pruning only the
    singletons survive, so the whole DP is one group of G = n rows."""
    platform = PLATFORMS["paper"]
    tasks = TaskSet(
        Task(100.0 * k, 100.0 * k + 20.0 + k, 3000.0 + 500.0 * k, f"G{k}")
        for k in range(12)
    )
    priced = []

    def batched_spy(tasks_, platform_, spans):
        priced.append(list(spans))
        return solve_blocks_by_length(tasks_, platform_, spans)

    monkeypatch.setattr(agreeable, "solve_blocks_by_length", batched_spy)
    batched = solve_agreeable(tasks, platform)
    assert priced == [[(k, k + 1) for k in range(12)]]
    assert batched.num_blocks == 12
    block_energy_cache_clear()
    monkeypatch.setattr(agreeable, "solve_blocks_by_length", per_block)
    assert_same_solution(batched, solve_agreeable(tasks, platform))


def test_batched_dp_leaves_memo_caches_empty():
    block_energy_cache_clear()
    vectorized.block_arrays_cache_clear()
    tasks = dense_tasks(9, 3)
    solve_agreeable(tasks, PLATFORMS["paper"], include_transition_overhead=True)
    # Only the parent's arrays: no per-subset arrays, no per-block solutions.
    assert vectorized.block_arrays_cache_size() == 1
    info = block_energy_cache_info()
    assert info["solution_entries"] == 0
    assert info["solution_misses"] == 0


@pytest.mark.parametrize(
    "backend",
    [
        "scalar",
        pytest.param(
            "jit",
            marks=pytest.mark.skipif(
                not kernels.available(), reason="no compiled kernel provider loads"
            ),
        ),
    ],
)
def test_other_backends_keep_the_per_block_path(backend, monkeypatch):
    block_energy_cache_clear()
    block_calls = []
    kernel_calls = []
    original_block = agreeable.solve_block
    original_kernel = kernels.solve_block_descent

    def block_spy(tasks_, platform_, **kwargs):
        block_calls.append(len(tasks_))
        return original_block(tasks_, platform_, **kwargs)

    def kernel_spy(*args, **kwargs):
        kernel_calls.append(1)
        return original_kernel(*args, **kwargs)

    def no_batching(*args, **kwargs):
        raise AssertionError("only the numpy backend batches blocks")

    monkeypatch.setattr(agreeable, "solve_block", block_spy)
    monkeypatch.setattr(kernels, "solve_block_descent", kernel_spy)
    monkeypatch.setattr(agreeable, "solve_blocks_by_length", no_batching)
    n = 6
    with using(SolveConfig(backend)):
        solve_agreeable(
            dense_tasks(n, 5), PLATFORMS["paper"], include_transition_overhead=True
        )
    assert len(block_calls) == n * (n + 1) // 2
    assert len(kernel_calls) == (len(block_calls) if backend == "jit" else 0)


def test_pairs_method_keeps_the_per_block_path(monkeypatch):
    def no_batching(*args, **kwargs):
        raise AssertionError("method='pairs' prices blocks one at a time")

    monkeypatch.setattr(agreeable, "solve_blocks_by_length", no_batching)
    solution = solve_agreeable(
        dense_tasks(4, 9), PLATFORMS["alpha0"], block_method="pairs"
    )
    assert solution.num_blocks >= 1
