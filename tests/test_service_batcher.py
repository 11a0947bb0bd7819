"""Batching tests: coalescing, backend pinning, cache reuse, error isolation.

``TestRunBatch`` drives one dispatch through the inline tier: the
service's batch path on its in-process executor.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core import vectorized
from repro.core.solve_config import SolveConfig, current
from repro.experiments.cache import ResultCache, service_request_key
from repro.models import Task, TaskSet, paper_platform
from repro.service import protocol
from repro.service.batcher import InlineExecutor, batch_key, form_batches
from repro.service.protocol import SolveRequest, canonical_result_bytes
from repro.service.queue import QueueEntry
from repro.service.server import SolveService
from tests.cache_faults import FAULTS

def make_entry(request_id, *, tasks=None, platform=None, numeric=None, scheme="auto"):
    tasks = tasks if tasks is not None else TaskSet(
        [Task(0.0, 40.0, 8000.0, "a"), Task(0.0, 70.0, 15000.0, "b")]
    )
    request = SolveRequest(
        id=str(request_id),
        tasks=tasks,
        platform=platform if platform is not None else paper_platform(),
        scheme=scheme,
        numeric=numeric,
    )
    # What admission does: resolve over the config a service built here
    # would serve requests naming no backend with.
    request.config = request.solve_config(current())
    return QueueEntry(request=request, enqueued_at=time.monotonic())


def run_batch(service, entries):
    """Dispatch ``entries`` as one batch; ``[(entry, response), ...]``."""

    async def dispatch():
        loop = asyncio.get_running_loop()
        for entry in entries:
            entry.context = loop.create_future()
        await service._run_pop(0, entries)
        return [(entry, entry.context.result()) for entry in entries]

    return asyncio.run(dispatch())


@pytest.fixture
def service(tmp_path):
    instance = SolveService(cache=ResultCache(str(tmp_path / "cache")))
    yield instance
    asyncio.run(instance.drain())


class TestFormBatches:
    def test_compatible_requests_coalesce(self):
        entries = [make_entry(i) for i in range(4)]
        batches = form_batches(entries, 8)
        assert len(batches) == 1
        assert [e.request.id for e in batches[0]] == ["0", "1", "2", "3"]

    def test_different_platforms_split(self):
        other = paper_platform(alpha_m=2000.0)
        entries = [make_entry(0), make_entry(1, platform=other), make_entry(2)]
        batches = form_batches(entries, 8)
        assert [[e.request.id for e in b] for b in batches] == [["0", "2"], ["1"]]

    def test_different_backends_split(self, monkeypatch):
        # Keys are pure functions of a config; resolve numpy even without it.
        monkeypatch.setattr(vectorized, "HAS_NUMPY", True)
        entries = [
            make_entry(0, numeric="scalar"),
            make_entry(1, numeric="numpy"),
            make_entry(2, numeric="scalar"),
        ]
        assert batch_key(entries[0].request) != batch_key(entries[1].request)
        batches = form_batches(entries, 8)
        assert [[e.request.id for e in b] for b in batches] == [["0", "2"], ["1"]]

    def test_oversized_group_splits_within_bound(self):
        entries = [make_entry(i) for i in range(10)]
        batches = form_batches(entries, 4)
        assert all(1 <= len(b) <= 4 for b in batches)
        flattened = [e.request.id for b in batches for e in b]
        assert flattened == [str(i) for i in range(10)]  # order preserved
        # An even 50-item group splits into two batches of 25, not 32 + 18.
        fifty = form_batches([make_entry(i) for i in range(50)], 32)
        assert [len(b) for b in fifty] == [25, 25]

    def test_bad_max_batch_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            form_batches([], 0)


class TestRunBatch:
    def test_responses_pair_with_entries(self, service):
        entries = [make_entry(i) for i in range(3)]
        results = run_batch(service, entries)
        assert [entry.request.id for entry, _ in results] == ["0", "1", "2"]
        for _, response in results:
            assert response["ok"] is True
            assert response["provenance"]["batch_size"] == 3

    def test_cache_hit_is_byte_identical_to_fresh_solve(self, service):
        [(_, first)] = run_batch(service, [make_entry("x")])
        [(_, second)] = run_batch(service, [make_entry("y")])  # same tasks/platform
        assert first["provenance"]["cache"] == "miss"
        assert second["provenance"]["cache"] == "hit"
        assert canonical_result_bytes(first["result"]) == canonical_result_bytes(
            second["result"]
        )

    def test_cache_key_separates_scheme_and_backend(self, monkeypatch):
        # Keys are pure functions of a config; build a numpy one even on a
        # host without numpy.
        monkeypatch.setattr(vectorized, "HAS_NUMPY", True)
        platform = paper_platform()
        config = [[0.0, 40.0, 8000.0, "a"]]
        scalar, numpy = SolveConfig("scalar"), SolveConfig("numpy")
        keys = {
            service_request_key(platform, config, "common-release", scalar),
            service_request_key(platform, config, "agreeable", scalar),
            service_request_key(platform, config, "common-release", numpy),
        }
        assert len(keys) == 3

    def test_no_cache_mode_reports_off(self):
        service = SolveService(cache=None)
        try:
            [(_, response)] = run_batch(service, [make_entry("x")])
        finally:
            asyncio.run(service.drain())
        assert response["provenance"]["cache"] == "off"

    def test_infeasible_request_fails_alone(self, service):
        sporadic = TaskSet(
            [
                Task(0.0, 50.0, 4000.0, "x"),
                Task(60.0, 90.0, 3000.0, "y"),
                Task(30.0, 200.0, 2000.0, "z"),
            ]
        )
        entries = [
            make_entry("good"),
            make_entry("bad", tasks=sporadic, scheme="common-release"),
        ]
        results = {
            entry.request.id: resp for entry, resp in run_batch(service, entries)
        }
        assert results["good"]["ok"] is True
        assert results["bad"]["ok"] is False
        assert results["bad"]["error"]["code"] == protocol.E_INFEASIBLE

    def test_batch_matches_direct_execute(self, service):
        entry = make_entry("x")
        [(_, response)] = run_batch(service, [entry])
        direct = protocol.execute_request(entry.request)
        assert canonical_result_bytes(response["result"]) == canonical_result_bytes(
            direct
        )

    @pytest.mark.skipif(not vectorized.HAS_NUMPY, reason="needs numpy")
    def test_backend_pinned_and_restored(self, service):
        before = vectorized.get_backend()
        pinned = "numpy" if before == "scalar" else "scalar"
        [(_, response)] = run_batch(service, [make_entry("x", numeric=pinned)])
        assert response["provenance"]["backend"] == pinned
        assert vectorized.get_backend() == before

    def test_numpy_unavailable_rejected_cleanly(self, service, monkeypatch):
        monkeypatch.setattr(vectorized, "HAS_NUMPY", False)
        wire = {
            "kind": "solve",
            "id": "x",
            "numeric": "numpy",
            "tasks": [{"release": 0.0, "deadline": 40.0, "workload": 8000.0}],
        }
        # Rejected at admission, where the request's config is resolved.
        response = asyncio.run(service.handle_message(wire))
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.E_BAD_REQUEST
        assert "numpy" in response["error"]["message"]

    def test_metrics_recorded(self, service):
        run_batch(service, [make_entry(i) for i in range(2)])
        snapshot = service.metrics.snapshot()
        assert snapshot["repro_batches_total"]["value"] == 1
        assert snapshot["repro_batch_size"]["max"] == 2
        assert snapshot["repro_batched_requests_total"]["value"] == 2
        assert snapshot["repro_responses_total"]["value"] == 2

    def test_empty_batch_is_noop(self):
        executor = InlineExecutor()
        try:
            assert executor.submit([]).result(timeout=10) == []
        finally:
            executor.shutdown()


class TestCorruptCacheEntries:
    """Every damaged entry is a counted miss: recomputed, then overwritten."""

    @staticmethod
    def _key(service, entry, response):
        request = entry.request
        return service_request_key(
            request.platform,
            request.tasks_config(),
            response["result"]["scheme"],
            request.config,
        )

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_damaged_entry_is_recomputed(self, service, fault):
        donor_tasks = TaskSet([Task(0.0, 30.0, 3000.0, "d")])
        [(donor_entry, donor)] = run_batch(
            service, [make_entry("d", tasks=donor_tasks)]
        )
        [(entry, first)] = run_batch(service, [make_entry("x")])
        cache = service.executors[0].cache
        key = self._key(service, entry, first)
        FAULTS[fault](cache, key, self._key(service, donor_entry, donor))
        [(_, again)] = run_batch(service, [make_entry("y")])
        assert again["ok"] is True
        assert again["provenance"]["cache"] == "miss"
        assert canonical_result_bytes(again["result"]) == canonical_result_bytes(
            first["result"]
        )
        assert service.metrics.counter("repro_cache_corrupt_total").value == 1
        [(_, healed)] = run_batch(service, [make_entry("z")])
        assert healed["provenance"]["cache"] == "hit"
        assert cache.get(key) == first["result"]
        assert service.metrics.counter("repro_cache_corrupt_total").value == 1
