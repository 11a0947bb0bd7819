"""Versioned JSON wire format for the solve service.

One request / response per line (JSON-lines).  The protocol is layered on
:mod:`repro.serialization` -- task lists and schedules cross the wire in
exactly the formats the CLI already reads and writes, including the
``schema`` version field and its unknown-field-ignored forward-compat
rule.

A solve request names a platform, a task set, a scheme and (optionally) a
numeric backend, a priority lane and a deadline::

    {"v": 1, "id": "r1", "kind": "solve", "scheme": "auto",
     "lane": "interactive", "numeric": "numpy",
     "platform": {"alpha_m": 4000.0, "xi_m": 40.0, "num_cores": 8},
     "tasks": [{"name": "a", "release": 0, "deadline": 50, "workload": 2000}],
     "timeout_ms": 5000}

A successful response carries the deterministic solver output under
``result`` (scheme, schedule, itemized energy) plus server-side ``timing``
and ``provenance`` (cache hit/miss, backend, batch size) as siblings, so
:func:`canonical_result_bytes` over ``result`` is byte-identical between a
served request and a direct in-process :func:`execute_request` call::

    {"v": 1, "id": "r1", "ok": true, "result": {...},
     "timing": {"queue_ms": 0.4, "solve_ms": 1.9},
     "provenance": {"backend": "numpy", "cache": "miss", "batch_size": 3}}

Failures use the shared error envelope (also emitted by the CLI's
``--json-errors`` flag)::

    {"v": 1, "id": "r1", "ok": false,
     "error": {"code": "QUEUE_FULL", "message": "...", "retry_after_ms": 250}}

Other request kinds: ``ping``, ``metrics``, ``cancel`` (``{"target": id}``)
and ``drain``.  See docs/SERVICE.md for the full specification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import __version__
from repro.baselines import AvrPolicy, RaceToIdlePolicy, mbkp, mbkps
from repro.core import (
    SdemOnlinePolicy,
    solve_agreeable,
    solve_common_release,
    solve_common_release_with_overhead,
)
from repro.core.fptas import solve_agreeable_fptas, solve_common_release_fptas
from repro.core.solve_config import DEFAULT_EPSILON, SolveConfig, current, using
from repro.energy import EnergyBreakdown, account
from repro.models.memory import MemoryModel
from repro.models.platform import Platform, paper_platform
from repro.models.power import CorePowerModel
from repro.models.task import Task, TaskSet
from repro.serialization import schedule_to_payload, tasks_from_payload
from repro.sim import simulate

__all__ = [
    "PROTOCOL_VERSION",
    "OFFLINE_SCHEMES",
    "ONLINE_SCHEMES",
    "SCHEMES",
    "LANES",
    "LANE_INTERACTIVE",
    "LANE_SWEEP",
    "E_BAD_REQUEST",
    "E_UNSUPPORTED_VERSION",
    "E_UNKNOWN_SCHEME",
    "E_INFEASIBLE",
    "E_QUEUE_FULL",
    "E_SHEDDING",
    "E_DRAINING",
    "E_DEADLINE_EXCEEDED",
    "E_CANCELLED",
    "E_INTERNAL",
    "ProtocolError",
    "SolveRequest",
    "platform_to_wire",
    "platform_from_wire",
    "request_from_wire",
    "resolve_scheme",
    "execute_request",
    "energy_to_wire",
    "energy_from_wire",
    "canonical_result_bytes",
    "error_envelope",
    "ok_response",
    "error_response",
    "encode_line",
    "decode_line",
]

#: Wire protocol major version; bumped on incompatible changes.  Servers
#: reject requests whose ``v`` is higher than what they speak; fields they
#: do not recognise are ignored (same forward-compat rule as the
#: serialization schema).
PROTOCOL_VERSION = 1

OFFLINE_SCHEMES = ("auto", "common-release", "common-release-overhead", "agreeable")
ONLINE_SCHEMES = ("sdem-on", "mbkp", "mbkps", "avr", "race")
SCHEMES = OFFLINE_SCHEMES + ONLINE_SCHEMES

LANE_INTERACTIVE = "interactive"
LANE_SWEEP = "sweep"
LANES = (LANE_INTERACTIVE, LANE_SWEEP)

# Error codes of the shared envelope (docs/SERVICE.md lists semantics).
E_BAD_REQUEST = "BAD_REQUEST"
E_UNSUPPORTED_VERSION = "UNSUPPORTED_VERSION"
E_UNKNOWN_SCHEME = "UNKNOWN_SCHEME"
E_INFEASIBLE = "INFEASIBLE"
E_QUEUE_FULL = "QUEUE_FULL"
E_SHEDDING = "SHEDDING"
E_DRAINING = "DRAINING"
E_DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
E_CANCELLED = "CANCELLED"
E_INTERNAL = "INTERNAL"


class ProtocolError(Exception):
    """A request that cannot be served, with its wire error code."""

    def __init__(self, code: str, message: str, retry_after_ms: Optional[float] = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after_ms = retry_after_ms

    def envelope(self) -> Dict[str, object]:
        return error_envelope(self.code, self.message, self.retry_after_ms)


# ---------------------------------------------------------------------------
# Platform wire format
# ---------------------------------------------------------------------------

_PLATFORM_DEFAULTS = paper_platform()


def platform_to_wire(platform: Platform) -> Dict[str, object]:
    """Every parameter of ``platform`` as a flat JSON object."""
    core, memory = platform.core, platform.memory
    return {
        "beta": core.beta,
        "lam": core.lam,
        "alpha": core.alpha,
        "s_up": core.s_up,
        "s_min": core.s_min,
        "xi": core.xi,
        "alpha_m": memory.alpha_m,
        "xi_m": memory.xi_m,
        "num_cores": platform.num_cores,
    }


def platform_from_wire(wire: Optional[Dict[str, object]]) -> Platform:
    """Build a platform from a (possibly partial) wire object.

    Missing fields take the paper's Table 4 star defaults; unknown fields
    are ignored (forward compat).  ``None`` means the default platform.
    """
    if wire is None:
        return _PLATFORM_DEFAULTS
    if not isinstance(wire, dict):
        raise ProtocolError(E_BAD_REQUEST, "platform must be a JSON object")
    defaults = platform_to_wire(_PLATFORM_DEFAULTS)

    def pick(name: str) -> float:
        value = wire.get(name, defaults[name])
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ProtocolError(
                E_BAD_REQUEST, f"platform.{name} must be a number, got {value!r}"
            ) from None

    num_cores = wire.get("num_cores", defaults["num_cores"])
    if num_cores is not None:
        try:
            num_cores = int(num_cores)
        except (TypeError, ValueError):
            raise ProtocolError(
                E_BAD_REQUEST,
                f"platform.num_cores must be an integer or null, got {num_cores!r}",
            ) from None
    try:
        core = CorePowerModel(
            beta=pick("beta"),
            lam=pick("lam"),
            alpha=pick("alpha"),
            s_up=pick("s_up"),
            s_min=pick("s_min"),
            xi=pick("xi"),
        )
        memory = MemoryModel(alpha_m=pick("alpha_m"), xi_m=pick("xi_m"))
        return Platform(core=core, memory=memory, num_cores=num_cores)
    except ValueError as exc:
        raise ProtocolError(E_BAD_REQUEST, f"invalid platform: {exc}") from exc


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass
class SolveRequest:
    """A parsed, validated solve request."""

    id: str
    tasks: TaskSet
    platform: Platform = field(default_factory=lambda: _PLATFORM_DEFAULTS)
    scheme: str = "auto"
    lane: str = LANE_INTERACTIVE
    numeric: Optional[str] = None
    timeout_ms: Optional[float] = None
    solver: str = "exact"
    epsilon: Optional[float] = None
    #: The resolved config, set once when the service admits the request
    #: (``solve_config`` over the server's config); batching, cache keys,
    #: provenance and the solve all read it.
    config: Optional[SolveConfig] = None

    def tasks_config(self) -> List[List[object]]:
        """Canonical (deadline-sorted) task description for cache keys.

        Names are part of the key: they appear verbatim in the response
        schedule, so two numerically identical sets with different names
        must not share a cache entry.
        """
        return [[t.release, t.deadline, t.workload, t.name] for t in self.tasks]

    def solve_config(self, default: SolveConfig) -> SolveConfig:
        """The config this request solves under.

        Its own ``numeric``/``solver``/``epsilon``, with ``default``'s
        backend when it names none.  Raises :data:`E_BAD_REQUEST` when the
        backend cannot run on this host (numpy requested but not installed).
        """
        try:
            return SolveConfig(
                self.numeric if self.numeric is not None else default.backend,
                self.solver,
                self.epsilon if self.epsilon is not None else DEFAULT_EPSILON,
            )
        except ValueError as exc:
            raise ProtocolError(E_BAD_REQUEST, str(exc)) from exc


def request_from_wire(wire: Dict[str, object]) -> SolveRequest:
    """Validate a decoded ``solve`` request object.

    Raises :class:`ProtocolError` with an actionable message on any
    malformed field; unknown fields are ignored.
    """
    if not isinstance(wire, dict):
        raise ProtocolError(E_BAD_REQUEST, "request must be a JSON object")
    version = wire.get("v", PROTOCOL_VERSION)
    if not isinstance(version, int) or version < 1:
        raise ProtocolError(E_BAD_REQUEST, f"v must be a positive integer, got {version!r}")
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            E_UNSUPPORTED_VERSION,
            f"request speaks protocol v{version}; this server speaks v{PROTOCOL_VERSION}",
        )
    request_id = wire.get("id")
    if not isinstance(request_id, (str, int)) or (
        isinstance(request_id, str) and not request_id
    ):
        raise ProtocolError(E_BAD_REQUEST, "id must be a non-empty string or an integer")
    scheme = wire.get("scheme", "auto")
    if scheme not in SCHEMES:
        raise ProtocolError(
            E_UNKNOWN_SCHEME,
            f"unknown scheme {scheme!r}; valid: {', '.join(SCHEMES)}",
        )
    lane = wire.get("lane", LANE_INTERACTIVE)
    if lane not in LANES:
        raise ProtocolError(
            E_BAD_REQUEST, f"unknown lane {lane!r}; valid: {', '.join(LANES)}"
        )
    try:
        numeric, solver, epsilon = SolveConfig.validate(
            wire.get("numeric"), wire.get("solver"), wire.get("epsilon")
        )
    except ValueError as exc:
        raise ProtocolError(E_BAD_REQUEST, str(exc)) from None
    solver = solver or "exact"
    if solver == "fptas" and epsilon is None:
        epsilon = DEFAULT_EPSILON
    timeout_ms = wire.get("timeout_ms")
    if timeout_ms is not None:
        try:
            timeout_ms = float(timeout_ms)
        except (TypeError, ValueError):
            raise ProtocolError(
                E_BAD_REQUEST, f"timeout_ms must be a number, got {timeout_ms!r}"
            ) from None
        if timeout_ms <= 0.0:
            raise ProtocolError(E_BAD_REQUEST, "timeout_ms must be positive")
    try:
        task_list = tasks_from_payload(wire)
    except ValueError as exc:
        raise ProtocolError(E_BAD_REQUEST, f"invalid tasks: {exc}") from exc
    try:
        tasks = TaskSet(task_list)
    except ValueError as exc:
        raise ProtocolError(E_BAD_REQUEST, f"invalid task set: {exc}") from exc
    return SolveRequest(
        id=str(request_id),
        tasks=tasks,
        platform=platform_from_wire(wire.get("platform")),
        scheme=str(scheme),
        lane=str(lane),
        numeric=numeric,
        timeout_ms=timeout_ms,
        solver=solver,
        epsilon=epsilon,
    )


# ---------------------------------------------------------------------------
# Execution (the single solver dispatch the server and direct callers share)
# ---------------------------------------------------------------------------


def resolve_scheme(request: SolveRequest) -> str:
    """Resolve ``auto`` to the concrete scheme the solver stack will run.

    Mirrors the ``repro solve`` CLI: overhead-aware common release when the
    platform has transition overheads, plain Section 4 otherwise; Section 5
    for agreeable sets; SDEM-ON simulation for anything else.  Explicit
    offline schemes raise :data:`E_INFEASIBLE` when the task set does not
    satisfy their structural precondition.
    """
    tasks, platform = request.tasks, request.platform
    overheads = platform.memory.xi_m > 0.0 or platform.core.xi > 0.0
    if request.scheme == "auto":
        if tasks.has_common_release():
            return "common-release-overhead" if overheads else "common-release"
        if tasks.is_agreeable():
            return "agreeable"
        return "sdem-on"
    if request.scheme in ("common-release", "common-release-overhead"):
        if not tasks.has_common_release():
            raise ProtocolError(
                E_INFEASIBLE,
                f"scheme {request.scheme!r} needs a common release time; "
                "use scheme 'agreeable' or an online scheme for this set",
            )
    elif request.scheme == "agreeable":
        if not tasks.is_agreeable():
            raise ProtocolError(
                E_INFEASIBLE,
                "scheme 'agreeable' needs agreeable deadlines (sorting by "
                "release also sorts by deadline); use an online scheme",
            )
    return request.scheme


_ONLINE_POLICY_FACTORIES = {
    "sdem-on": lambda platform: SdemOnlinePolicy(platform),
    "mbkp": lambda platform: mbkp(platform),
    "mbkps": lambda platform: mbkps(platform),
    "avr": lambda platform: AvrPolicy(platform),
    "race": lambda platform: RaceToIdlePolicy(platform),
}


def energy_to_wire(breakdown: EnergyBreakdown) -> Dict[str, float]:
    """The itemized breakdown plus its derived totals."""
    return {
        "core_dynamic": breakdown.core_dynamic,
        "core_static_active": breakdown.core_static_active,
        "core_idle": breakdown.core_idle,
        "memory_active": breakdown.memory_active,
        "memory_idle": breakdown.memory_idle,
        "memory_sleep_time": breakdown.memory_sleep_time,
        "memory_busy_time": breakdown.memory_busy_time,
        "total": breakdown.total,
    }


def energy_from_wire(wire: Dict[str, object]) -> EnergyBreakdown:
    """Rebuild a breakdown from its wire form (derived totals ignored)."""
    return EnergyBreakdown(
        core_dynamic=float(wire["core_dynamic"]),
        core_static_active=float(wire["core_static_active"]),
        core_idle=float(wire["core_idle"]),
        memory_active=float(wire["memory_active"]),
        memory_idle=float(wire["memory_idle"]),
        memory_sleep_time=float(wire["memory_sleep_time"]),
        memory_busy_time=float(wire["memory_busy_time"]),
    )


def execute_request(request: SolveRequest) -> Dict[str, object]:
    """Run the solver stack for one request and return the ``result`` payload.

    This is the deterministic part of a response: the resolved scheme, the
    schedule (in the serialization schema), the itemized energy and the
    scheme-specific extras.  The solve runs under the request's admitted
    ``config``, else :meth:`SolveRequest.solve_config` over the active
    config (a direct library call).  Offline schemes dispatch to the fptas
    solvers directly, online schemes pick the tier up inside every replan.
    Exact-tier payloads are byte-identical to the pre-tier protocol; fptas
    payloads additionally carry ``solver`` and ``epsilon``.
    """
    config = request.config or request.solve_config(current())
    tasks, platform = request.tasks, request.platform
    scheme = resolve_scheme(request)
    use_fptas = config.tier == "fptas"
    horizon = (tasks.earliest_release, tasks.latest_deadline)
    result: Dict[str, object] = {"scheme": scheme}
    with using(config):
        if scheme in _ONLINE_POLICY_FACTORIES:
            policy = _ONLINE_POLICY_FACTORIES[scheme](platform)
            sim = simulate(policy, tasks, platform, horizon=horizon)
            schedule = sim.schedule
            result["energy"] = energy_to_wire(sim.breakdown)
            result["peak_concurrency"] = sim.peak_concurrency
        else:
            overheads = platform.memory.xi_m > 0.0 or platform.core.xi > 0.0
            if scheme in ("common-release", "common-release-overhead"):
                if use_fptas:
                    solution = solve_common_release_fptas(tasks, platform)
                elif scheme == "common-release":
                    solution = solve_common_release(tasks, platform)
                else:
                    solution = solve_common_release_with_overhead(
                        tasks, platform
                    )
                result["delta"] = solution.delta
                result["predicted_energy"] = solution.predicted_energy
            else:  # agreeable
                if use_fptas:
                    solution = solve_agreeable_fptas(
                        tasks, platform, include_transition_overhead=overheads
                    )
                else:
                    solution = solve_agreeable(
                        tasks, platform, include_transition_overhead=overheads
                    )
                result["num_blocks"] = solution.num_blocks
                result["predicted_energy"] = solution.predicted_energy
            schedule = solution.schedule()
            breakdown = account(schedule, platform, horizon=horizon)
            result["energy"] = energy_to_wire(breakdown)
    result["schedule"] = schedule_to_payload(schedule)
    result["horizon"] = [horizon[0], horizon[1]]
    if use_fptas:
        result["solver"] = "fptas"
        result["epsilon"] = config.epsilon
    return result


def canonical_result_bytes(result: Dict[str, object]) -> bytes:
    """Canonical encoding of a ``result`` payload for byte-identity checks.

    Key-sorted, compact JSON; floats use shortest-repr so values that
    round-trip through the wire or the result cache compare equal.
    """
    return json.dumps(result, sort_keys=True, separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# Responses and framing
# ---------------------------------------------------------------------------


def error_envelope(
    code: str,
    message: str,
    retry_after_ms: Optional[float] = None,
    *,
    shard: Optional[int] = None,
) -> Dict[str, object]:
    """The shared error object (service responses and CLI ``--json-errors``).

    ``shard`` names the shard that rejected the request on a sharded
    server (backpressure is per-shard there, so "which shard shed" is the
    actionable half of a SHEDDING/QUEUE_FULL diagnosis); single-shard
    servers omit the key, keeping their envelopes byte-stable.
    """
    envelope: Dict[str, object] = {"code": code, "message": message}
    if retry_after_ms is not None:
        envelope["retry_after_ms"] = retry_after_ms
    if shard is not None:
        envelope["shard"] = shard
    return envelope


def ok_response(
    request_id: str,
    result: Dict[str, object],
    *,
    timing: Optional[Dict[str, float]] = None,
    provenance: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """A success response; ``timing``/``provenance`` ride outside ``result``
    so the deterministic payload stays byte-comparable."""
    response: Dict[str, object] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "result": result,
    }
    if timing is not None:
        response["timing"] = timing
    if provenance is not None:
        response["provenance"] = provenance
    return response


def error_response(
    request_id: Optional[str],
    code: str,
    message: str,
    retry_after_ms: Optional[float] = None,
    *,
    shard: Optional[int] = None,
) -> Dict[str, object]:
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": error_envelope(code, message, retry_after_ms, shard=shard),
    }


def ping_response(request_id: str) -> Dict[str, object]:
    return ok_response(
        request_id, {"pong": True, "protocol": PROTOCOL_VERSION, "repro": __version__}
    )


def encode_line(obj: Dict[str, object]) -> bytes:
    """One wire frame: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, object]:
    """Decode one frame; raises :class:`ProtocolError` on garbage."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(E_BAD_REQUEST, f"undecodable frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(E_BAD_REQUEST, "frame must be a JSON object")
    return obj
