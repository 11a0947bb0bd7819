"""Wire-protocol tests: parsing, scheme resolution, execution, envelopes."""

from __future__ import annotations

import json

import pytest

from repro.core import vectorized
from repro.core.solve_config import SolveConfig, using
from repro.models import paper_platform
from repro.serialization import SCHEMA_VERSION
from repro.service.protocol import (
    E_BAD_REQUEST,
    E_INFEASIBLE,
    E_UNKNOWN_SCHEME,
    E_UNSUPPORTED_VERSION,
    ProtocolError,
    canonical_result_bytes,
    decode_line,
    encode_line,
    energy_from_wire,
    error_response,
    execute_request,
    ok_response,
    platform_from_wire,
    platform_to_wire,
    request_from_wire,
    resolve_scheme,
)


COMMON_RELEASE_TASKS = [
    {"name": "a", "release": 0.0, "deadline": 40.0, "workload": 8000.0},
    {"name": "b", "release": 0.0, "deadline": 70.0, "workload": 15000.0},
]

SPORADIC_TASKS = [
    {"name": "x", "release": 0.0, "deadline": 50.0, "workload": 4000.0},
    {"name": "y", "release": 60.0, "deadline": 90.0, "workload": 3000.0},
    {"name": "z", "release": 30.0, "deadline": 200.0, "workload": 2000.0},
]


def wire_solve(**overrides):
    wire = {
        "v": 1,
        "id": "r1",
        "kind": "solve",
        "tasks": COMMON_RELEASE_TASKS,
    }
    wire.update(overrides)
    return wire


class TestRequestParsing:
    def test_minimal_request(self):
        request = request_from_wire(wire_solve())
        assert request.id == "r1"
        assert request.scheme == "auto"
        assert request.lane == "interactive"
        assert len(request.tasks) == 2

    def test_unknown_fields_ignored(self):
        request = request_from_wire(
            wire_solve(shiny_new_field=123, platform={"alpha_m": 2000.0, "bogus": 1})
        )
        assert request.platform.memory.alpha_m == 2000.0

    def test_newer_version_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            request_from_wire(wire_solve(v=99))
        assert excinfo.value.code == E_UNSUPPORTED_VERSION

    def test_missing_id_rejected(self):
        wire = wire_solve()
        del wire["id"]
        with pytest.raises(ProtocolError) as excinfo:
            request_from_wire(wire)
        assert excinfo.value.code == E_BAD_REQUEST
        assert "id" in excinfo.value.message

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            request_from_wire(wire_solve(scheme="quantum"))
        assert excinfo.value.code == E_UNKNOWN_SCHEME
        assert "quantum" in excinfo.value.message

    def test_bad_lane_rejected(self):
        with pytest.raises(ProtocolError, match="lane"):
            request_from_wire(wire_solve(lane="fast"))

    def test_bad_numeric_rejected(self):
        with pytest.raises(ProtocolError, match="numeric"):
            request_from_wire(wire_solve(numeric="fortran"))

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ProtocolError, match="timeout_ms"):
            request_from_wire(wire_solve(timeout_ms=0))

    def test_bad_tasks_reported_actionably(self):
        with pytest.raises(ProtocolError, match="missing fields"):
            request_from_wire(wire_solve(tasks=[{"release": 0.0, "deadline": 5.0}]))

    def test_tasks_config_includes_names(self):
        request = request_from_wire(wire_solve())
        config = request.tasks_config()
        assert ["a", "b"] == [row[3] for row in config]


class TestPlatformWire:
    def test_roundtrip(self):
        platform = paper_platform(alpha_m=2000.0, xi_m=25.0, num_cores=4)
        assert platform_from_wire(platform_to_wire(platform)) == platform

    def test_defaults_fill_missing(self):
        platform = platform_from_wire({"alpha_m": 1000.0})
        assert platform.memory.alpha_m == 1000.0
        assert platform.core.alpha == paper_platform().core.alpha

    def test_none_means_paper_default(self):
        assert platform_from_wire(None) == paper_platform()

    def test_invalid_number_reported(self):
        with pytest.raises(ProtocolError, match="alpha_m"):
            platform_from_wire({"alpha_m": "lots"})


class TestSchemeResolution:
    def test_auto_common_release_without_overheads(self):
        request = request_from_wire(
            wire_solve(platform={"xi": 0.0, "xi_m": 0.0})
        )
        assert resolve_scheme(request) == "common-release"

    def test_auto_common_release_with_overheads(self):
        request = request_from_wire(wire_solve())  # paper default xi_m = 40
        assert resolve_scheme(request) == "common-release-overhead"

    def test_auto_falls_back_to_online(self):
        request = request_from_wire(wire_solve(tasks=SPORADIC_TASKS))
        assert resolve_scheme(request) == "sdem-on"

    def test_explicit_offline_scheme_checked(self):
        with pytest.raises(ProtocolError) as excinfo:
            resolve_scheme(
                request_from_wire(
                    wire_solve(tasks=SPORADIC_TASKS, scheme="common-release")
                )
            )
        assert excinfo.value.code == E_INFEASIBLE


class TestExecution:
    def test_offline_result_shape(self):
        request = request_from_wire(wire_solve())
        result = execute_request(request)
        assert result["scheme"] == "common-release-overhead"
        assert result["schedule"]["schema"] == SCHEMA_VERSION
        assert result["energy"]["total"] > 0.0
        assert "delta" in result

    def test_online_result_shape(self):
        request = request_from_wire(wire_solve(tasks=SPORADIC_TASKS, scheme="mbkps"))
        result = execute_request(request)
        assert result["scheme"] == "mbkps"
        assert result["peak_concurrency"] >= 1
        assert result["energy"]["total"] > 0.0

    def test_result_survives_json_roundtrip_byte_identically(self):
        request = request_from_wire(wire_solve())
        result = execute_request(request)
        rebuilt = json.loads(json.dumps(result))
        assert canonical_result_bytes(rebuilt) == canonical_result_bytes(result)

    def test_energy_wire_roundtrip(self):
        request = request_from_wire(wire_solve())
        result = execute_request(request)
        breakdown = energy_from_wire(result["energy"])
        assert breakdown.total == pytest.approx(result["energy"]["total"])

    @pytest.mark.skipif(not vectorized.HAS_NUMPY, reason="needs numpy")
    def test_backends_agree_on_energy(self):
        request = request_from_wire(wire_solve())
        with using(SolveConfig("scalar")):
            scalar = execute_request(request)
        with using(SolveConfig("numpy")):
            numpy = execute_request(request)
        assert scalar["energy"]["total"] == pytest.approx(
            numpy["energy"]["total"], rel=1e-9
        )


class TestEnvelopes:
    def test_ok_response_separates_provenance(self):
        response = ok_response(
            "r1", {"scheme": "agreeable"}, provenance={"cache": "hit"}
        )
        assert response["ok"] is True
        assert "cache" not in response["result"]

    def test_error_response_carries_retry_after(self):
        response = error_response("r1", "QUEUE_FULL", "full", 250.0)
        assert response["error"]["retry_after_ms"] == 250.0

    def test_line_framing_roundtrip(self):
        obj = error_response(None, "BAD_REQUEST", "nope")
        assert decode_line(encode_line(obj).strip()) == obj

    def test_garbage_line_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_line(b"{not json")
