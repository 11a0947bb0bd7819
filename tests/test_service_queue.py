"""Admission queue tests: lanes, shedding, deadlines, saturation properties.

The hypothesis property test at the bottom is the satellite-4 guarantee:
under arbitrary interleavings of offers and pops the queue never exceeds
its capacity, and a rejected request is never partially executed -- it
produces no cache write and no worker dispatch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import Task, TaskSet
from repro.service.protocol import (
    E_QUEUE_FULL,
    E_SHEDDING,
    LANE_INTERACTIVE,
    LANE_SWEEP,
    SolveRequest,
)
from repro.service.queue import AdmissionQueue


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def make_request(request_id, lane=LANE_INTERACTIVE, timeout_ms=None):
    tasks = TaskSet([Task(0.0, 50.0, 1000.0, "t")])
    return SolveRequest(id=str(request_id), tasks=tasks, lane=lane, timeout_ms=timeout_ms)


class TestAdmission:
    def test_admit_until_capacity_then_queue_full(self):
        queue = AdmissionQueue(capacity=3, shed_threshold=1.0)
        for i in range(3):
            assert queue.offer(make_request(i)).admitted
        result = queue.offer(make_request("overflow"))
        assert not result.admitted
        assert result.code == E_QUEUE_FULL
        assert result.retry_after_ms is not None
        assert queue.depth == 3

    def test_sweep_shed_in_degraded_mode_interactive_still_admitted(self):
        queue = AdmissionQueue(capacity=10, shed_threshold=0.5)
        for i in range(5):
            assert queue.offer(make_request(i)).admitted
        assert queue.degraded
        shed = queue.offer(make_request("bulk", lane=LANE_SWEEP))
        assert not shed.admitted
        assert shed.code == E_SHEDDING
        assert queue.offer(make_request("urgent")).admitted

    def test_degraded_clears_after_pop(self):
        queue = AdmissionQueue(capacity=4, shed_threshold=0.5)
        for i in range(2):
            queue.offer(make_request(i))
        assert queue.degraded
        queue.pop_batch(4)
        assert not queue.degraded
        assert queue.offer(make_request("s", lane=LANE_SWEEP)).admitted

    def test_retry_after_scales_with_occupancy(self):
        queue = AdmissionQueue(
            capacity=2, shed_threshold=0.5, base_retry_after_ms=100.0
        )
        queue.offer(make_request(0))
        low = queue.offer(make_request("s1", lane=LANE_SWEEP)).retry_after_ms
        queue.offer(make_request(1))
        high = queue.offer(make_request("s2", lane=LANE_SWEEP)).retry_after_ms
        assert high > low >= 100.0

    def test_on_enqueue_fires_only_on_admission(self):
        queue = AdmissionQueue(capacity=1)
        wakes = []
        queue.on_enqueue = wakes.append
        queue.offer(make_request(0))
        queue.offer(make_request(1))  # rejected
        assert wakes == [0]  # the one shard of an unrouted queue


class TestDispatch:
    def test_interactive_pops_before_sweep_fifo_within_lane(self):
        queue = AdmissionQueue(capacity=10, shed_threshold=1.0)
        queue.offer(make_request("s1", lane=LANE_SWEEP))
        queue.offer(make_request("i1"))
        queue.offer(make_request("s2", lane=LANE_SWEEP))
        queue.offer(make_request("i2"))
        ready, expired, cancelled = queue.pop_batch(10)
        assert [e.request.id for e in ready] == ["i1", "i2", "s1", "s2"]
        assert expired == [] and cancelled == []

    def test_pop_respects_max_items(self):
        queue = AdmissionQueue(capacity=10)
        for i in range(5):
            queue.offer(make_request(i))
        ready, _, _ = queue.pop_batch(2)
        assert len(ready) == 2
        assert queue.depth == 3

    def test_expired_entries_drain_eagerly(self):
        clock = FakeClock()
        queue = AdmissionQueue(capacity=10, clock=clock)
        queue.offer(make_request("fast", timeout_ms=100.0))
        queue.offer(make_request("slow"))
        clock.now = 1.0  # one second later: 100ms deadline long gone
        ready, expired, _ = queue.pop_batch(1)
        assert [e.request.id for e in ready] == ["slow"]
        assert [e.request.id for e in expired] == ["fast"]
        assert queue.depth == 0

    def test_cancel_marks_pending_entry(self):
        queue = AdmissionQueue(capacity=10)
        queue.offer(make_request("victim"))
        assert queue.cancel("victim")
        assert not queue.cancel("victim")  # already cancelled
        assert not queue.cancel("missing")
        ready, _, cancelled = queue.pop_batch(10)
        assert ready == []
        assert [e.request.id for e in cancelled] == ["victim"]

    def test_drain_empties_both_lanes(self):
        queue = AdmissionQueue(capacity=10, shed_threshold=1.0)
        queue.offer(make_request("i"))
        queue.offer(make_request("s", lane=LANE_SWEEP))
        remaining = queue.drain()
        assert {e.request.id for e in remaining} == {"i", "s"}
        assert queue.depth == 0


class TestValidation:
    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionQueue(capacity=0)

    def test_bad_shed_threshold_rejected(self):
        with pytest.raises(ValueError, match="shed_threshold"):
            AdmissionQueue(capacity=4, shed_threshold=1.5)


# ---------------------------------------------------------------------------
# Satellite 4: saturation property
# ---------------------------------------------------------------------------

op_strategy = st.one_of(
    st.tuples(
        st.just("offer"),
        st.sampled_from([LANE_INTERACTIVE, LANE_SWEEP]),
    ),
    st.tuples(
        st.just("pop"),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=8),
    shards=st.integers(min_value=1, max_value=3),
    shed_threshold=st.floats(min_value=0.1, max_value=1.0),
    ops=st.lists(op_strategy, max_size=60),
)
def test_queue_never_exceeds_capacity_and_rejections_are_traceless(
    capacity, shards, shed_threshold, ops
):
    """The bounded queue never holds more than ``capacity`` entries, and a
    rejected request is never partially executed: it never reaches the
    dispatch side (so no worker ever sees it and no cache write can happen
    on its behalf).  Holds for the inline tier's one-shard queue and for
    routed multi-shard queues alike."""
    shards = min(shards, capacity)  # every shard needs a seat
    queue = AdmissionQueue(
        capacity=capacity,
        shards=shards,
        router=None if shards == 1 else (lambda r: int(r.id[1:]) % shards),
        shed_threshold=shed_threshold,
    )
    admitted, rejected = set(), set()
    dispatched = []  # stand-in for the worker pool: everything popped
    serial = 0
    for op in ops:
        if op[0] == "offer":
            _, lane = op
            request = make_request(f"r{serial}", lane=lane)
            serial += 1
            result = queue.offer(request)
            if result.admitted:
                assert result.entry is not None
                admitted.add(request.id)
            else:
                assert result.code in (E_QUEUE_FULL, E_SHEDDING)
                assert result.retry_after_ms is not None
                rejected.add(request.id)
        else:
            _, max_items, shard = op
            ready, expired, cancelled = queue.pop_batch(max_items, shard % shards)
            assert len(ready) <= max_items
            dispatched.extend(e.request.id for e in ready + expired + cancelled)
        assert queue.depth <= capacity
    dispatched.extend(e.request.id for e in queue.drain())
    assert queue.depth_peak <= capacity
    # Everything on the dispatch side was admitted exactly once ...
    assert len(dispatched) == len(set(dispatched))
    assert set(dispatched) <= admitted
    # ... and no rejected request ever crossed over.
    assert rejected.isdisjoint(dispatched)


# ---------------------------------------------------------------------------
# Sustained open-loop overload, driven by the repro.replay arrival generator
# ---------------------------------------------------------------------------

from repro.replay import poisson_jobs  # noqa: E402


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rate=st.floats(min_value=200.0, max_value=5000.0),
    capacity=st.integers(min_value=2, max_value=16),
    shed_threshold=st.floats(min_value=0.2, max_value=1.0),
    drain_every=st.integers(min_value=4, max_value=12),
    drain_count=st.integers(min_value=0, max_value=3),
)
def test_open_loop_overload_invariants(
    seed, rate, capacity, shed_threshold, drain_every, drain_count
):
    """Sustained open-loop overload preserves the three queue invariants.

    A seeded Poisson arrival stream (the streaming replayer's generator)
    offers far faster than the dispatcher drains, so the queue lives at
    or near saturation for the whole run.  Throughout:

    1. strict priority -- a sweep entry is only ever dispatched when the
       interactive lane is empty at pop time;
    2. backpressure monotonicity -- ``retry_after_ms`` is non-decreasing
       in the queue occupancy observed at rejection time;
    3. the capacity bound is never exceeded, and only sweep-lane
       arrivals are shed (interactive is admitted until truly full).
    """
    jobs = list(poisson_jobs(n=60, rate_jobs_s=rate, seed=seed))
    queue = AdmissionQueue(capacity=capacity, shed_threshold=shed_threshold)
    rejections = []  # (depth at offer, retry_after_ms)
    for index, job in enumerate(jobs):
        # Deterministic mixed lanes, derived from the seeded stream.
        lane = LANE_SWEEP if job.workload_kc < 3500.0 else LANE_INTERACTIVE
        depth_before = queue.depth
        result = queue.offer(make_request(job.name, lane=lane))
        if result.admitted:
            assert depth_before < queue.capacity
        else:
            assert result.retry_after_ms is not None
            rejections.append((depth_before, result.retry_after_ms))
            if result.code == E_SHEDDING:
                assert lane == LANE_SWEEP
                assert depth_before >= queue.shed_at[0]
            else:
                assert result.code == E_QUEUE_FULL
                assert depth_before >= queue.capacity
        assert queue.depth <= capacity
        if index % drain_every == drain_every - 1 and drain_count:
            ready, _expired, _cancelled = queue.pop_batch(drain_count)
            if any(e.lane == LANE_SWEEP for e in ready):
                # pop_batch drains interactive first: a dispatched sweep
                # entry proves the interactive lane was emptied.
                assert queue.lane_depths()[LANE_INTERACTIVE] == 0
            for first, second in zip(ready, ready[1:]):
                assert not (
                    first.lane == LANE_SWEEP and second.lane == LANE_INTERACTIVE
                ), "sweep dispatched ahead of a queued interactive entry"
    assert queue.depth_peak <= capacity
    # Monotone backpressure: sort observed rejections by occupancy; the
    # suggested backoff must never decrease as the queue fills.
    rejections.sort(key=lambda pair: pair[0])
    for (d1, r1), (d2, r2) in zip(rejections, rejections[1:]):
        assert r1 <= r2 or d1 == d2
