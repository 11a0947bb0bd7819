"""Measurement helpers shared by the perfbench workloads.

Everything here but :func:`stamp` is plain Python with no dependency on
``repro``, so the helpers can be unit-tested without the program under test.
"""

from __future__ import annotations

import json
import math
import os
import platform as host_platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
#: The tail percentile reported when the sample count supports it.
TAIL_CAP = 0.99
#: Below this quantile a sample resolves no tail worth the name.
TAIL_FLOOR = 0.9


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` position."""
    return n - max(1, math.ceil(q * n - 1e-9))


def tail_quantile(n: int) -> float:
    """The highest quantile <= ``TAIL_CAP`` with ``TAIL_BEYOND`` samples above it.

    When ``n`` is too small for even ``TAIL_FLOOR`` to qualify, the median
    is returned: the sample then resolves no tail at all.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    q = min(TAIL_CAP, (n - TAIL_BEYOND) / n)
    while q >= TAIL_FLOOR and samples_beyond(n, q) < TAIL_BEYOND:
        q -= 1.0 / n
    return q if q >= TAIL_FLOOR else 0.5


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(quantile, value)`` of the reportable tail of ``values``; the
    median itself when the sample resolves no tail."""
    q = tail_quantile(len(values))
    return q, median(values) if q == 0.5 else nearest_rank(values, q)


def segmented(values: Sequence[float], segments: int, q: float) -> Tuple[float, float]:
    """Medians over ``segments`` consecutive slices of ``values``:
    ``(median of slice medians, median of slice q-percentiles)``."""
    if segments < 1 or len(values) < segments:
        raise ValueError("need at least one value per segment")
    size = len(values) / segments
    slices = [values[round(i * size):round((i + 1) * size)] for i in range(segments)]
    return (
        median([median(s) for s in slices]),
        median([nearest_rank(s, q) for s in slices]),
    )


def segment_rates(done_times: Sequence[float], segments: int) -> List[float]:
    """Completions per second over ``segments`` consecutive slices of the
    sorted completion times (the first completion opens the clock)."""
    times = sorted(done_times)
    if segments < 1 or len(times) < 2 * segments:
        raise ValueError("need at least two completions per segment")
    edges = [round(i * (len(times) - 1) / segments) for i in range(segments + 1)]
    return [
        (edges[i + 1] - edges[i]) / (times[edges[i + 1]] - times[edges[i]])
        for i in range(segments)
    ]


# ---------------------------------------------------------------------------
# Open-loop rate ladder
# ---------------------------------------------------------------------------


def backlog_growing(latencies_by_due: Sequence[float], slo_ms: float) -> bool:
    """True when latency climbs across a rate point instead of settling.

    ``latencies_by_due`` are the point's latencies in due-time order.  A
    stable queue gives the first and last quarter of the requests the
    same median; a queue that grows without bound adds its growth to
    every later request.  Growth above half the latency limit counts.
    """
    k = len(latencies_by_due) // 4
    if k == 0:
        return False
    early = median(latencies_by_due[:k])
    late = median(latencies_by_due[-k:])
    return late - early > 0.5 * slo_ms


def point_passes(point: Dict[str, object], slo_ms: float) -> bool:
    """A rate point meets the limit: tail within it, no failures, no growth."""
    return (
        bool(point["valid"])
        and int(point["failed"]) == 0
        and not bool(point["backlog_growing"])
        and float(point["tail_ms"]) <= slo_ms
    )


def select_max_rate(points: Iterable[Dict[str, object]], slo_ms: float) -> Optional[float]:
    """Highest rate of an ascending ladder whose points up to it all pass.

    The ladder stops counting at the first point that fails or is invalid
    (the generator fell behind), so a lucky pass above a failing rung does
    not raise the result.  ``None`` when even the lowest rung fails.
    """
    best: Optional[float] = None
    for point in sorted(points, key=lambda p: float(p["rate"])):
        if not point_passes(point, slo_ms):
            break
        best = float(point["rate"])
    return best


def ladder(low: float, high: float, step: float) -> List[float]:
    """Geometric rates from ``low`` up to ``high`` with relative ``step``."""
    if low <= 0.0 or high < low or step <= 0.0:
        raise ValueError("need 0 < low <= high and step > 0")
    rates = [low]
    while rates[-1] * (1.0 + step) <= high * (1.0 + 1e-9):
        rates.append(round(rates[-1] * (1.0 + step), 1))
    return rates


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def layer_residual(wall_s: float, layer_seconds: Dict[str, float]) -> float:
    """Wall time that no traced layer accounts for."""
    return wall_s - sum(layer_seconds.values())


# ---------------------------------------------------------------------------
# Set-up and memory
# ---------------------------------------------------------------------------


def repro_env(root: str, work: str) -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` on the path
    and every cache the program writes kept inside ``work``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = os.path.join(work, "cache")
    env["REPRO_KERNEL_CACHE"] = os.path.join(work, "kernels")
    env.pop("REPRO_NUMERIC", None)
    env.pop("REPRO_SOLVER_TIER", None)
    env.pop("REPRO_SOLVER_EPSILON", None)
    return env


def time_import(env: Dict[str, str], code: str, reps: int) -> List[float]:
    """Wall seconds for ``reps`` fresh interpreters to run ``code``."""
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        walls.append(time.perf_counter() - start)
    return walls


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                out.extend(int(x) for x in handle.read().split())
        except OSError:
            continue
    return out


def _hwm_kb(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def process_tree(root: int) -> List[int]:
    """``root`` and every descendant process (Linux ``/proc``)."""
    seen, stack = [], [root]
    while stack:
        pid = stack.pop()
        seen.append(pid)
        stack.extend(_children(pid))
    return seen


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (an exited, unreaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def reap(pids: Iterable[int], timeout_s: float = 30.0) -> None:
    """Wait for processes that are not our children to exit; kill stragglers."""
    deadline = time.monotonic() + timeout_s
    pending = [pid for pid in pids if _alive(pid)]
    while pending and time.monotonic() < deadline:
        time.sleep(0.05)
        pending = [pid for pid in pending if _alive(pid)]
    for pid in pending:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


class PeakRss:
    """Peak resident memory of a process tree, live processes summed.

    A background thread sums the ``VmHWM`` (each process's own high-water
    mark) of every live process in the tree and keeps the largest sum, so
    pool workers count while they run and drop out after they exit.
    """

    def __init__(self, root: int, interval_s: float = 0.1):
        self.root = root
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        total = sum(kb for kb in map(_hwm_kb, process_tree(self.root)) if kb is not None)
        self.peak_kb = max(self.peak_kb, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "PeakRss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def mb(self) -> float:
        return self.peak_kb / 1024.0


# ---------------------------------------------------------------------------
# Result assembly and self-check
# ---------------------------------------------------------------------------


def stamp(seed: int, shards: int) -> Dict[str, object]:
    """What makes two runs comparable: host, interpreter, libraries, backend."""
    from repro.core import vectorized

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "backend": vectorized.get_backend(),
        "cpu_count": os.cpu_count(),
        "python": host_platform.python_version(),
        "numpy": numpy_version,
        "shards": shards,
        "seed": seed,
    }


def declared_metrics(bench: Dict[str, object], trace: bool) -> Dict[str, str]:
    """``{name: unit}`` that a run with ``trace`` must emit."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def check_metrics(
    metrics: Dict[str, Dict[str, object]], declared: Dict[str, str]
) -> List[str]:
    """Problems with ``metrics`` against the declared ``{name: unit}``."""
    problems = []
    for name in sorted(set(declared) - set(metrics)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(metrics) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name, entry in metrics.items():
        if name not in declared:
            continue
        if set(entry) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(entry)}")
        if entry.get("unit") != declared[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r} != {declared[name]!r}")
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, object]]
) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
        sort_keys=False,
    )
