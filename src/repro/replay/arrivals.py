"""Seeded open-loop arrival processes for the streaming replayer.

Three modes, all emitting the same :class:`Job` shape (arrival instant,
absolute deadline, workload) in non-decreasing arrival order:

``poisson``
    Memoryless arrivals at a constant offered rate: inter-arrival times
    are exponential with mean ``1000 / rate_jobs_s`` ms.  The natural
    "sporadic jobs from many independent users" null model.

``mmpp``
    A two-state Markov-modulated Poisson process: a *base* state at the
    offered rate and a *burst* state at ``burst_factor`` times it, with
    exponentially distributed dwell times in each state.  Same long-run
    mean rate as ``poisson`` when dwell times are equal, but bursty --
    the shape that stresses admission control and tail latency.

``trace``
    Replay recorded releases: any task list (a file the CLI loaded, a
    Section 8.1.2 synthetic trace) becomes an arrival stream verbatim.

Every generated quantity flows through one explicit ``random.Random(seed)``
instance (DET002), so a (mode, rate, n, seed) tuple pins the byte-exact
job stream: the replayer's reproducibility contract starts here.

Per-job deadline spans and workloads reuse the paper's Section 8.1.2
ranges (span uniform in [10, 120] ms, workload uniform in [2000, 5000]
kilocycles) unless overridden, so streaming jobs are statistically the
same individuals as the closed-loop synthetic sweeps -- only the arrival
law changes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.models.task import Task
from repro.units import JOBS_PER_S, MS, unit
from repro.workloads.synthetic import SPAN_RANGE_MS, WORKLOAD_RANGE_KC

__all__ = [
    "ARRIVAL_MODES",
    "ArrivalSpec",
    "Job",
    "mean_interarrival_ms",
    "mmpp_jobs",
    "offered_rate_jobs_s",
    "poisson_jobs",
    "span_rate_jobs_s",
    "trace_jobs",
]

#: ``repro replay --mode`` / ``ArrivalSpec.mode`` choices.
ARRIVAL_MODES = ("poisson", "mmpp", "trace")

#: Virtual time is in ms repo-wide; offered rates are quoted in jobs/s.
_MS_PER_S = 1000.0


@dataclass(frozen=True)
class Job:
    """One sporadic job: an arrival instant, a deadline and work to do."""

    name: str
    arrival_ms: float
    deadline_ms: float
    workload_kc: float

    @property
    def span_ms(self) -> float:
        """The relative deadline (feasible-region length)."""
        return self.deadline_ms - self.arrival_ms

    def task(self) -> Task:
        """The job as a :class:`~repro.models.task.Task` released on arrival."""
        return Task(self.arrival_ms, self.deadline_ms, self.workload_kc, self.name)


def _job(
    index: int,
    arrival: float,
    rng: random.Random,
    span_range: Tuple[float, float],
    workload_range: Tuple[float, float],
) -> Job:
    span = rng.uniform(*span_range)
    workload = rng.uniform(*workload_range)
    return Job(f"J{index}", arrival, arrival + span, workload)


def _check_common(n: int, rate_jobs_s: float) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rate_jobs_s <= 0.0:
        raise ValueError(f"rate_jobs_s must be positive, got {rate_jobs_s}")


def poisson_jobs(
    *,
    n: int,
    rate_jobs_s: float,
    seed: int,
    span_range: Tuple[float, float] = SPAN_RANGE_MS,
    workload_range: Tuple[float, float] = WORKLOAD_RANGE_KC,
) -> Iterator[Job]:
    """``n`` Poisson arrivals at ``rate_jobs_s`` (lazy, arrival-ordered)."""
    _check_common(n, rate_jobs_s)
    rng = random.Random(seed)
    mean_gap_ms = _MS_PER_S / rate_jobs_s
    t = 0.0
    for index in range(n):
        if index > 0:
            t += rng.expovariate(1.0) * mean_gap_ms
        yield _job(index, t, rng, span_range, workload_range)


def mmpp_jobs(
    *,
    n: int,
    rate_jobs_s: float,
    seed: int,
    burst_factor: float = 8.0,
    mean_dwell_ms: float = 2000.0,
    span_range: Tuple[float, float] = SPAN_RANGE_MS,
    workload_range: Tuple[float, float] = WORKLOAD_RANGE_KC,
) -> Iterator[Job]:
    """``n`` arrivals from a two-state MMPP (base rate / burst rate).

    State dwell times are exponential with mean ``mean_dwell_ms``; the
    burst state multiplies the base rate by ``burst_factor``.  The
    competing-exponentials construction is exact: when the candidate
    inter-arrival crosses the next state switch, time advances to the
    switch and the gap is redrawn from the new state's rate --
    memorylessness makes the redraw distribution-correct.
    """
    _check_common(n, rate_jobs_s)
    if burst_factor < 1.0:
        raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
    if mean_dwell_ms <= 0.0:
        raise ValueError(f"mean_dwell_ms must be positive, got {mean_dwell_ms}")
    rng = random.Random(seed)
    rates = (rate_jobs_s / _MS_PER_S, burst_factor * rate_jobs_s / _MS_PER_S)
    state = 0
    t = 0.0
    switch_at = rng.expovariate(1.0) * mean_dwell_ms
    emitted = 0
    while emitted < n:
        if emitted == 0:
            arrival = t
        else:
            while True:
                gap = rng.expovariate(rates[state])
                if t + gap <= switch_at:
                    arrival = t + gap
                    break
                t = switch_at
                state = 1 - state
                switch_at = t + rng.expovariate(1.0) * mean_dwell_ms
        t = arrival
        yield _job(emitted, arrival, rng, span_range, workload_range)
        emitted += 1


def trace_jobs(tasks: Iterable[Task]) -> Iterator[Job]:
    """Replay recorded tasks as an arrival stream (release-ordered)."""
    ordered = sorted(tasks, key=lambda t: (t.release, t.deadline, t.name))
    if not ordered:
        raise ValueError("cannot replay an empty trace")
    for index, task in enumerate(ordered):
        name = task.name or f"J{index}"
        yield Job(name, task.release, task.deadline, task.workload)


@unit(JOBS_PER_S)
def span_rate_jobs_s(instants_ms: Sequence[float]) -> float:
    """Events per second over their own span, for ordered instants (ms)."""
    if len(instants_ms) < 2:
        return 0.0
    span_ms = instants_ms[-1] - instants_ms[0]
    if span_ms <= 0.0:
        return math.inf
    return (len(instants_ms) - 1) / (span_ms / _MS_PER_S)


@unit(JOBS_PER_S)
def offered_rate_jobs_s(jobs: Sequence[Job]) -> float:
    """Realized offered rate of a job stream: count over arrival span."""
    return span_rate_jobs_s([job.arrival_ms for job in jobs])


@unit(MS)
def mean_interarrival_ms(jobs: Sequence[Job]) -> float:
    """Mean gap between consecutive arrivals."""
    if len(jobs) < 2:
        return 0.0
    return (jobs[-1].arrival_ms - jobs[0].arrival_ms) / (len(jobs) - 1)


@dataclass(frozen=True)
class ArrivalSpec:
    """A picklable recipe for one arrival stream (CLI / bench currency).

    ``trace`` mode carries its tasks inline (``trace_tasks``); the seeded
    modes carry only parameters, so the spec -- not a materialized job
    list -- is what cache keys, bench slices and reports record.
    """

    mode: str = "poisson"
    n: int = 1000
    rate_jobs_s: float = 50.0
    seed: int = 1
    burst_factor: float = 8.0
    mean_dwell_ms: float = 2000.0
    span_range: Tuple[float, float] = SPAN_RANGE_MS
    workload_range: Tuple[float, float] = WORKLOAD_RANGE_KC
    trace_tasks: Optional[Tuple[Task, ...]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ARRIVAL_MODES:
            raise ValueError(
                f"unknown arrival mode {self.mode!r}; valid: {', '.join(ARRIVAL_MODES)}"
            )
        if self.mode == "trace" and self.trace_tasks is None:
            raise ValueError("trace mode needs trace_tasks")

    def jobs(self) -> List[Job]:
        """Materialize the stream (deterministic for a given spec)."""
        if self.mode == "poisson":
            return list(
                poisson_jobs(
                    n=self.n,
                    rate_jobs_s=self.rate_jobs_s,
                    seed=self.seed,
                    span_range=self.span_range,
                    workload_range=self.workload_range,
                )
            )
        if self.mode == "mmpp":
            return list(
                mmpp_jobs(
                    n=self.n,
                    rate_jobs_s=self.rate_jobs_s,
                    seed=self.seed,
                    burst_factor=self.burst_factor,
                    mean_dwell_ms=self.mean_dwell_ms,
                    span_range=self.span_range,
                    workload_range=self.workload_range,
                )
            )
        assert self.trace_tasks is not None
        return list(trace_jobs(self.trace_tasks))

    def at_rate(self, rate_jobs_s: float) -> "ArrivalSpec":
        """The same spec at a different offered rate (SLO ramp steps)."""
        if self.mode == "trace":
            raise ValueError("trace mode replays recorded arrivals; no rate knob")
        return ArrivalSpec(
            mode=self.mode,
            n=self.n,
            rate_jobs_s=rate_jobs_s,
            seed=self.seed,
            burst_factor=self.burst_factor,
            mean_dwell_ms=self.mean_dwell_ms,
            span_range=self.span_range,
            workload_range=self.workload_range,
        )

    def describe(self) -> dict:
        """JSON-ready spec summary for reports and the bench trajectory."""
        out: dict = {"mode": self.mode, "n": self.n}
        if self.mode == "trace":
            assert self.trace_tasks is not None
            out["trace_len"] = len(self.trace_tasks)
            return out
        out.update(
            {
                "rate_jobs_s": self.rate_jobs_s,
                "seed": self.seed,
                "span_range_ms": list(self.span_range),
                "workload_range_kc": list(self.workload_range),
            }
        )
        if self.mode == "mmpp":
            out["burst_factor"] = self.burst_factor
            out["mean_dwell_ms"] = self.mean_dwell_ms
        return out
