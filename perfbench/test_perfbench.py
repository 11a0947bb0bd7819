"""Tests for the benchmark's own helpers (no program run needed).

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
from layers import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- percentiles --------------------------------------------------------------


def test_nearest_rank_picks_ceil_rank():
    values = list(range(1, 101))  # 1..100
    assert measure.nearest_rank(values, 0.5) == 50
    assert measure.nearest_rank(values, 0.99) == 99
    assert measure.nearest_rank(values, 1.0) == 100
    assert measure.nearest_rank([7.0], 0.99) == 7.0
    assert measure.nearest_rank([3, 1, 2], 0.5) == 2


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        measure.nearest_rank([1.0], 0.0)


def test_p99_needs_a_thousand_samples_for_ten_beyond():
    assert measure.samples_beyond(1000, 0.99) == 10
    assert measure.samples_beyond(999, 0.99) == 9
    assert measure.tail_quantile(1000) == pytest.approx(0.99)
    assert measure.tail_quantile(5000) == pytest.approx(0.99)


@pytest.mark.parametrize("n", [100, 128, 200, 512, 999])
def test_tail_quantile_keeps_ten_samples_beyond(n):
    q = measure.tail_quantile(n)
    assert 0.9 <= q < 0.99
    assert measure.samples_beyond(n, q) >= 10
    # One rank higher would leave fewer than ten beyond.
    assert measure.samples_beyond(n, q + 1.0 / n) < 10


def test_tail_falls_back_to_median_without_a_resolvable_tail():
    assert measure.tail_quantile(12) == 0.5
    assert measure.tail_quantile(99) == 0.5  # p90 would leave 9 beyond
    q, value = measure.tail([5.0, 1.0, 3.0])
    assert (q, value) == (0.5, 3.0)
    assert measure.tail([1.0, 2.0, 3.0, 4.0]) == (0.5, 2.5)


def test_segmented_takes_medians_over_slices():
    # Three slices; one holds a stall that only moves its own percentile.
    values = [1.0] * 100 + [2.0] * 95 + [500.0] * 5 + [3.0] * 100
    p50, p99 = measure.segmented(values, 3, 0.99)
    assert p50 == 2.0
    assert p99 == 3.0
    with pytest.raises(ValueError):
        measure.segmented([1.0], 2, 0.5)


def test_segment_rates_count_completions_per_second():
    done = [i * 0.01 for i in range(101)]  # 100 per second
    assert measure.segment_rates(done, 4) == pytest.approx([100.0] * 4)
    # A slow second half shows in its own segment only.
    done = [i * 0.01 for i in range(51)] + [0.5 + i * 0.02 for i in range(1, 51)]
    first, second = measure.segment_rates(done, 2)
    assert first == pytest.approx(100.0) and second == pytest.approx(50.0)
    with pytest.raises(ValueError):
        measure.segment_rates([0.0, 1.0], 2)


# -- max-rate selection ---------------------------------------------------------


def _point(rate, tail_ms, failed=0, valid=True, growing=False):
    return {"rate": rate, "tail_ms": tail_ms, "failed": failed, "valid": valid,
            "backlog_growing": growing}


def test_max_rate_is_last_passing_rung():
    points = [_point(1000, 20), _point(1200, 30), _point(1440, 60), _point(1728, 40)]
    # The pass at 1728 sits above a failing rung and does not count.
    assert measure.select_max_rate(points, 50.0) == 1200


def test_max_rate_ignores_probe_order():
    points = [_point(1440, 45), _point(1000, 20), _point(1512, 70), _point(1200, 30)]
    assert measure.select_max_rate(points, 50.0) == 1440


def test_growing_backlog_failure_or_invalid_point_stops_the_ladder():
    base = [_point(1000, 20)]
    assert measure.select_max_rate(base + [_point(1200, 30, growing=True)], 50.0) == 1000
    assert measure.select_max_rate(base + [_point(1200, 30, failed=1)], 50.0) == 1000
    assert measure.select_max_rate(base + [_point(1200, 30, valid=False)], 50.0) == 1000
    assert measure.select_max_rate([_point(1000, 80)], 50.0) is None


def test_backlog_growth_detection():
    steady = [15.0 + (i % 7) for i in range(400)]
    growing = [15.0 + 0.5 * i for i in range(400)]
    assert not measure.backlog_growing(steady, 50.0)
    assert measure.backlog_growing(growing, 50.0)


def test_ladder_is_geometric_and_bounded():
    rates = measure.ladder(1000.0, 2000.0, 0.2)
    assert rates == [1000.0, 1200.0, 1440.0, 1728.0]
    assert all(b / a == pytest.approx(1.2, rel=1e-3) for a, b in zip(rates, rates[1:]))


# -- layers ---------------------------------------------------------------------


def test_residual_is_wall_minus_layers():
    assert measure.layer_residual(10.0, {"a": 3.0, "b": 4.5}) == pytest.approx(2.5)
    assert measure.layer_residual(1.0, {}) == 1.0


class _Module:
    @staticmethod
    def inner(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Module.inner(x) * 2


def test_tracer_records_self_time_and_restores():
    original_inner, original_outer = _Module.inner, _Module.outer
    tracer = Tracer()
    tracer.wrap(_Module, "inner", "inner_s")
    tracer.wrap(_Module, "outer", "outer_s")
    assert _Module.outer(1) == 4
    assert tracer.calls == {"inner_s": 1, "outer_s": 1}
    total = tracer.span("top", lambda: _Module.outer(2))
    assert total == 6
    tracer.restore()
    assert _Module.inner is original_inner and _Module.outer is original_outer
    # Self times are disjoint, so they never exceed the traced wall.
    assert all(v >= 0.0 for v in tracer.seconds.values())


def test_tracer_layers_sum_to_wall_within_residual():
    import time

    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def parent():
        time.sleep(0.01)
        tracer.span("leaf", leaf)

    start = time.perf_counter()
    tracer.span("parent", parent)
    wall = time.perf_counter() - start
    residual = measure.layer_residual(wall, dict(tracer.seconds))
    assert tracer.seconds["parent"] >= 0.01 and tracer.seconds["leaf"] >= 0.01
    assert tracer.seconds["parent"] < 0.01 + 0.009  # leaf time excluded
    assert 0.0 <= residual < 0.005


# -- output contract -------------------------------------------------------------


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_metrics_are_checked_by_name_unit_and_value():
    declared = {"a_s": "s", "b": "count"}
    good = {"a_s": {"value": 1.5, "unit": "s"}, "b": {"value": 3, "unit": "count"}}
    assert measure.check_metrics(good, declared) == []
    problems = measure.check_metrics(
        {"a_s": {"value": math.nan, "unit": "ms"}, "c": {"value": 1, "unit": "s"}},
        declared,
    )
    assert any("missing metric b" in p for p in problems)
    assert any("undeclared metric c" in p for p in problems)
    assert any("unit" in p for p in problems)
    assert any("finite" in p for p in problems)


def test_every_workload_declares_its_layers():
    import wl_agreeable
    import wl_serve
    import wl_sweep

    bench = _bench()
    per_layer = {m["name"] for m in bench["per_layer"]}
    covered = set()
    for module in (wl_sweep, wl_agreeable, wl_serve):
        assert set(module.LAYERS) <= per_layer
        covered |= set(module.LAYERS)
    assert covered == per_layer
    names = [w["name"] for w in bench["workloads"]]
    assert names == ["sweep", "agreeable", "serve"]
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])
