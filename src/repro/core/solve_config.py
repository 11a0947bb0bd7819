"""The solve configuration: numeric backend, solver tier and ε.

Every SDEM solve runs under exactly three settings:

* the numeric backend -- ``scalar`` (the plain-Python reference),
  ``numpy`` (the batched core of :mod:`repro.core.vectorized`) or ``jit``
  (the compiled kernels of :mod:`repro.core.kernels` on the numpy paths);
* the solver tier -- ``exact`` (the paper's Section 5/7 DPs) or ``fptas``
  (the ε-approximate tier of :mod:`repro.core.fptas`);
* ε, the fptas energy tolerance.

:class:`SolveConfig` holds all three, frozen, validated and *resolved* at
construction: a ``jit`` request on a host with no usable compiled
provider becomes ``numpy`` (or ``scalar``) right there, with one
:class:`~repro.core.kernels.JitUnavailableWarning` per process.  A config
therefore always names the backend that computes under it, and the cache
keys, batch keys and service provenance derived from it cannot disagree
with how a result was computed.

Each boundary builds one config -- the CLI from ``--numeric`` /
``--solver`` / ``--epsilon``, the service from a request's wire fields
plus the server default, library callers with :meth:`SolveConfig.from_env`
-- and the entry point that owns a solve scopes it with :func:`using`.
Solvers read the active config through :func:`current`, a ``ContextVar``
read, so concurrent threads and asyncio tasks each see their own.  Outside
every :func:`using` scope the active config is the environment's
(``REPRO_NUMERIC``, ``REPRO_SOLVER_TIER``, ``REPRO_SOLVER_EPSILON``),
read once per process.
"""

from __future__ import annotations

import functools
import os
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Tuple

__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "DEFAULT_EPSILON",
    "EPSILON_ENV",
    "SOLVER_TIERS",
    "SolveConfig",
    "TIER_ENV",
    "check_epsilon",
    "current",
    "using",
]

BACKENDS = ("scalar", "numpy", "jit")
SOLVER_TIERS = ("exact", "fptas")
DEFAULT_EPSILON = 0.1

#: Environment variables selecting the config outside any :func:`using`.
BACKEND_ENV = "REPRO_NUMERIC"
TIER_ENV = "REPRO_SOLVER_TIER"
EPSILON_ENV = "REPRO_SOLVER_EPSILON"

_jit_fallback_warned = False


def _check_backend(name: object) -> str:
    if name not in BACKENDS:
        raise ValueError(f"numeric must be 'scalar', 'numpy' or 'jit', got {name!r}")
    return str(name)


def _check_tier(name: object) -> str:
    if name not in SOLVER_TIERS:
        raise ValueError(
            f"solver must be one of {', '.join(SOLVER_TIERS)}, got {name!r}"
        )
    return str(name)


def check_epsilon(value: object) -> float:
    """Parse and range-check an ε; the bound proof needs ``epsilon <= 2``."""
    try:
        eps = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(f"epsilon must be a number, got {value!r}") from None
    if not 0.0 < eps <= 2.0:  # also rejects nan
        raise ValueError(f"epsilon must be in (0, 2], got {eps!r}")
    return eps


def _resolve_backend(name: Optional[str]) -> str:
    """The backend that will actually run for a requested ``name``."""
    from repro.core import kernels, vectorized

    if name is None:
        return "numpy" if vectorized.HAS_NUMPY else "scalar"
    if name == "numpy" and not vectorized.HAS_NUMPY:
        raise ValueError(
            "numeric backend 'numpy' requested but numpy is not installed"
        )
    if name == "jit" and not kernels.available():
        global _jit_fallback_warned
        fallback = "numpy" if vectorized.HAS_NUMPY else "scalar"
        if not _jit_fallback_warned:
            _jit_fallback_warned = True
            warnings.warn(
                "numeric backend 'jit' requested but no compiled kernel "
                f"provider is usable ({kernels.load_error()}); falling back "
                f"to '{fallback}'",
                kernels.JitUnavailableWarning,
                stacklevel=4,
            )
        return fallback
    return name


@dataclass(frozen=True)
class SolveConfig:
    """Numeric backend, solver tier and ε of a solve, resolved for this host.

    ``backend=None`` picks numpy when it imports, else scalar.  ε is kept
    on the exact tier too (an fptas solver called without an explicit ε
    uses it) but only fptas cache keys carry it.
    """

    backend: Optional[str] = None
    tier: str = "exact"
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        requested = None if self.backend is None else _check_backend(self.backend)
        object.__setattr__(self, "backend", _resolve_backend(requested))
        object.__setattr__(self, "tier", _check_tier(self.tier))
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))

    def __reduce__(self):
        # Unpickle through the constructor, so a config sent to another
        # process (a pool payload, a spawned worker) is resolved there:
        # a jit config loads that process's compiled provider, or falls
        # back if it has none.
        return (SolveConfig, (self.backend, self.tier, self.epsilon))

    @staticmethod
    def validate(
        backend: Optional[object], tier: Optional[object], epsilon: Optional[object]
    ) -> Tuple[Optional[str], Optional[str], Optional[float]]:
        """Check the fields a request or command line names (``None`` = unset).

        The one validator behind the wire fields and the CLI flags.  An ε
        is accepted only next to an explicit ``fptas`` tier.  Raises
        :class:`ValueError` with the message the caller reports.
        """
        if backend is not None:
            backend = _check_backend(backend)
        if tier is not None:
            tier = _check_tier(tier)
        if epsilon is not None:
            if tier != "fptas":
                raise ValueError("epsilon only applies to solver 'fptas'")
            epsilon = check_epsilon(epsilon)
        return backend, tier, epsilon  # type: ignore[return-value]

    @classmethod
    def from_env(
        cls,
        env: Mapping[str, str],
        *,
        backend: Optional[str] = None,
        tier: Optional[str] = None,
        epsilon: Optional[object] = None,
    ) -> "SolveConfig":
        """The config ``env`` selects; a given keyword beats its variable."""
        if backend is None:
            backend = env.get(BACKEND_ENV, "").strip().lower() or None
        if tier is None:
            tier = env.get(TIER_ENV, "").strip().lower() or "exact"
        if epsilon is None:
            epsilon = env.get(EPSILON_ENV) or DEFAULT_EPSILON
        return cls(backend, tier, epsilon)  # type: ignore[arg-type]


@functools.lru_cache(maxsize=1)
def _env_config() -> SolveConfig:
    return SolveConfig.from_env(os.environ)


_ACTIVE: ContextVar[Optional[SolveConfig]] = ContextVar(
    "repro_solve_config", default=None
)


def current() -> SolveConfig:
    """The active config: the innermost :func:`using` scope, else the env's."""
    return _ACTIVE.get() or _env_config()


@contextmanager
def using(config: SolveConfig) -> Iterator[SolveConfig]:
    """Run the enclosed solves under ``config``, restoring the outer one."""
    token = _ACTIVE.set(config)
    try:
        yield config
    finally:
        _ACTIVE.reset(token)
