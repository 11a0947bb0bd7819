"""Content-addressed on-disk cache for experiment work units.

One cache entry = one policy's priced simulation of one work unit (one
seed of one parameter point).  The key is a SHA-256 over the canonical
JSON of everything that determines the result:

* the platform fingerprint (every core/memory parameter + core count);
* the trace-factory configuration (kind + generation parameters + the
  seed mapping -- see ``trace_config`` on the specs in
  :mod:`repro.experiments.parallel`);
* the seed index;
* the policy name;
* the solve config's numeric backend and solver tier
  (:class:`repro.core.solve_config.SolveConfig`) -- backends agree to
  1e-9, not to the last ulp, so cached raw energies never cross the
  backend boundary, and exact and fptas results never alias;
* a code-version salt (:data:`CODE_SALT`), bumped whenever the numeric
  semantics of the simulator or policies change, which invalidates every
  stale entry at once.

Entries are tiny JSON files sharded by the first two hex digits of the
key, written atomically (temp file + ``os.replace``) so concurrent
worker processes never observe torn entries.  Values round-trip floats
exactly (``json`` uses shortest-repr), so warm-cache reruns reproduce
byte-identical CSV rows.

Each file is an envelope ``{format, key, sha256, value}``, and
:meth:`ResultCache.get` serves only what it can verify: the format
(:data:`ENTRY_FORMAT`), the stored key against the requested one, the
SHA-256 of the value's canonical bytes, and the value's shape for its
reader.  Anything else -- text that is not JSON, a bare value written
before the envelope existed, an edited float, an entry copied under
another key's path -- is a *corrupt* miss: the caller recomputes and
overwrites it, and the cache counts it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.solve_config import SolveConfig, current
from repro.models.platform import Platform

__all__ = [
    "CODE_SALT",
    "ENTRY_FORMAT",
    "CacheStats",
    "ResultCache",
    "default_cache_root",
    "platform_fingerprint",
    "service_request_key",
    "unit_key",
]

#: Bump when simulator/policy numerics change: every key changes, so stale
#: results can never be served after a semantic code change.
#: v2: the batched fast path re-associates numpy-backend float sums
#: (~1e-15 relative vs v1); scalar-backend outputs are unchanged, but the
#: salt is shared so both backends' caches roll together.
#: v3: the fptas tier's block descent also searches both diagonals and
#: keeps its grid pitch at δ·L_min, which lowers fptas energies; exact
#: outputs are unchanged.
#: v4: numpy/jit Section 7 solves above 64 tasks run the fused Python solve
#: instead of the numpy prefix scan; libm ``pow`` and numpy ``**`` differ
#: in the last bit, so a few such energies move by 1 ulp.
CODE_SALT = "sdem-experiments-v4"

#: The on-disk envelope version.  Files without it (every entry written
#: before the envelope) fail verification once and are then overwritten.
ENTRY_FORMAT = "repro-cache-entry/1"

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_root(out_dir: Optional[str] = None) -> str:
    """The default cache directory.

    ``$REPRO_CACHE_DIR`` wins when set; otherwise the cache nests inside
    the experiment output directory (or the CWD) as ``.cache`` so that CSVs
    and the cells that produced them travel together.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(out_dir if out_dir else os.getcwd(), ".cache")


def platform_fingerprint(platform: Platform) -> Dict[str, object]:
    """Every parameter that affects a priced simulation on ``platform``."""
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


def _solver_component(config: SolveConfig) -> Dict[str, object]:
    """The tier part of a key: exact is bare, fptas also carries its ε."""
    if config.tier == "fptas":
        return {"tier": "fptas", "epsilon": config.epsilon}
    return {"tier": "exact"}


def _digest(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _verified(entry: object, key: str) -> bool:
    """Whether ``entry`` is an intact envelope stored under ``key``."""
    return (
        isinstance(entry, dict)
        and entry.get("format") == ENTRY_FORMAT
        and entry.get("key") == key
        and "value" in entry
        and entry.get("sha256") == _digest(entry["value"])
    )


def unit_key(
    platform: Platform,
    trace_config: Dict[str, object],
    seed: int,
    policy: str,
    *,
    config: Optional[SolveConfig] = None,
    salt: str = CODE_SALT,
) -> str:
    """SHA-256 hex key for one (platform, trace, seed, policy) cell.

    ``config`` (default: the active one) is part of the key.  Its backend:
    the scalar and numpy cores agree to 1e-9 but not necessarily to the
    last ulp, so a warm run must never serve raw energies computed by the
    other backend -- engine determinism (identical rows across cache
    states) is asserted per backend.  Its solver tier (and ε when
    approximate) for the same reason, only stronger: exact and fptas
    results differ by design, so they must never alias.
    """
    if config is None:
        config = current()
    return _digest(
        {
            "platform": platform_fingerprint(platform),
            "trace": trace_config,
            "seed": seed,
            "policy": policy,
            "numeric": config.backend,
            "solver": _solver_component(config),
            "salt": salt,
        }
    )


def service_request_key(
    platform: Platform,
    tasks_config: object,
    scheme: str,
    config: SolveConfig,
    *,
    salt: str = CODE_SALT,
) -> str:
    """SHA-256 key for one solve-service request solved under ``config``.

    Same construction as :func:`unit_key`, except that the tier component
    joins the payload only on the fptas tier, so every exact key is
    unchanged from before the tier existed.  ``tasks_config`` must be the
    canonical JSON-able task description *including names* (names appear
    verbatim in the cached schedule payload), and ``scheme`` the resolved
    scheme -- never ``auto`` -- so explicit and auto-resolved requests
    share entries.
    """
    payload: Dict[str, object] = {
        "kind": "service-solve",
        "platform": platform_fingerprint(platform),
        "tasks": tasks_config,
        "scheme": scheme,
        "numeric": config.backend,
        "salt": salt,
    }
    if config.tier != "exact":
        payload["solver"] = _solver_component(config)
    return _digest(payload)


@dataclass(frozen=True)
class CacheStats:
    """Disk-level cache statistics plus this process's hit/miss tally."""

    root: str
    entries: int
    total_bytes: int
    hits: int
    misses: int
    #: Entries on disk whose envelope fails verification.
    corrupt_entries: int = 0
    #: Misses this process counted because an entry failed its check.
    corrupt: int = 0

    def render(self) -> str:
        return (
            f"cache root: {self.root}\n"
            f"entries:    {self.entries} ({self.corrupt_entries} corrupt)\n"
            f"size:       {self.total_bytes / 1024.0:.1f} KiB\n"
            f"session:    {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.corrupt} corrupt"
        )


class ResultCache:
    """File-per-entry result cache rooted at ``root``.

    Instances are picklable and cheap; worker processes of the parallel
    engine each carry a copy and read/write the shared directory directly.
    Hit/miss/corrupt counters are therefore per-process -- the
    authoritative view is :meth:`stats`, which counts entries on disk.
    """

    def __init__(self, root: Optional[str] = None):
        self.root = root if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        #: Misses caused by an entry that failed verification.
        self.corrupt = 0

    # -- keying ---------------------------------------------------------------

    def unit_key(
        self,
        platform: Platform,
        trace_config: Dict[str, object],
        seed: int,
        policy: str,
        *,
        config: Optional[SolveConfig] = None,
    ) -> str:
        return unit_key(platform, trace_config, seed, policy, config=config)

    # -- storage --------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key[2:] + ".json")

    def get(
        self, key: str, shape: Optional[Callable[[object], bool]] = None
    ) -> Optional[Dict[str, object]]:
        """The verified value stored under ``key``, or ``None`` on a miss.

        ``shape`` is the reader's check of the value itself.  An entry that
        exists but fails the envelope check or ``shape`` is a miss that
        also counts in :attr:`corrupt`; the caller's :meth:`put` of the
        recomputed value overwrites it.
        """
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError):  # not JSON, not UTF-8, unreadable
            entry = None
        if _verified(entry, key) and (shape is None or shape(entry["value"])):
            self.hits += 1
            return entry["value"]
        self.misses += 1
        self.corrupt += 1
        return None

    def put(self, key: str, value: Dict[str, object]) -> None:
        """Atomically persist ``value`` under ``key``, in its envelope."""
        entry = {
            "format": ENTRY_FORMAT,
            "key": key,
            "sha256": _digest(value),
            "value": value,
        }
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance ----------------------------------------------------------

    def _entry_paths(self):
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    yield os.path.join(shard_dir, name)

    def stats(self) -> CacheStats:
        """Entries on disk (each one's envelope verified) and this session."""
        entries = 0
        total_bytes = 0
        corrupt_entries = 0
        for path in self._entry_paths():
            shard_dir, name = os.path.split(path)
            key = os.path.basename(shard_dir) + name[: -len(".json")]
            try:
                total_bytes += os.path.getsize(path)
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
            except FileNotFoundError:
                continue
            except (ValueError, OSError):
                entry = None
            entries += 1
            corrupt_entries += not _verified(entry, key)
        return CacheStats(
            root=self.root,
            entries=entries,
            total_bytes=total_bytes,
            hits=self.hits,
            misses=self.misses,
            corrupt_entries=corrupt_entries,
            corrupt=self.corrupt,
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        return removed

    # -- pickling (worker processes share only the root path) -----------------

    def __getstate__(self):
        return {"root": self.root}

    def __setstate__(self, state):
        self.__init__(state["root"])
