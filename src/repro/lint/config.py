"""Project-level configuration for ``repro check``: ``[tool.repro-lint]``.

The backend-purity rules (BCK001/BCK002) enforce that numpy is imported
only inside a sanctioned list of modules.  That list used to be baked
into :mod:`repro.lint.rules_backend`; it is now read from the analysis
root's ``pyproject.toml``::

    [tool.repro-lint]
    sanctioned-numpy-modules = [
        "repro.core.vectorized",
        "repro.utils.solvers",
    ]

so a downstream checkout can sanction an extra accelerator module (or
tighten the list) without patching the rule source.  With no
``pyproject.toml``, no ``[tool.repro-lint]`` table, or no key, the
defaults above apply unchanged.

Parsing uses :mod:`tomllib` on Python 3.11+.  The 3.10 CI leg has no
TOML parser baked in, so a minimal fallback reads just the
``[tool.repro-lint]`` table (string and list-of-string values); both
parsers reject the same malformed shapes via :class:`ConfigError`,
which subclasses ``ValueError`` so the CLI maps it to exit code 2 like
every other usage error.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - exercised on the 3.10 CI leg
    tomllib = None  # type: ignore[assignment]

__all__ = [
    "ConfigError",
    "DEFAULT_SANCTIONED_JIT_MODULES",
    "DEFAULT_SANCTIONED_NUMPY_MODULES",
    "DEFAULT_SHARD_STATE_MODULES",
    "DEFAULT_UNIT_TAGGED_MODULES",
    "LintConfig",
    "load_config",
]

#: The baked-in sanctioned list (see rules_backend for the rationale).
DEFAULT_SANCTIONED_NUMPY_MODULES: Tuple[str, ...] = (
    "repro.core.vectorized",
    "repro.utils.solvers",
)

#: Packages allowed to import the jit toolchains (numba/cffi).  Unlike the
#: numpy list this is prefix-scoped: ``repro.core.kernels`` sanctions the
#: package and every submodule under it (the provider lives in
#: ``_cffi_provider``).
DEFAULT_SANCTIONED_JIT_MODULES: Tuple[str, ...] = (
    "repro.core.kernels",
)

#: Modules whose quantity-valued helpers (ε, grid pitches, ladders,
#: energies) UNT002 requires to carry ``@unit(...)`` tags.  The
#: ε-approximate tier is the default: its correctness argument is a
#: chain of unit-bearing bounds, so untagged discretization quantities
#: there are presumed mistakes, not style.
DEFAULT_UNIT_TAGGED_MODULES: Tuple[str, ...] = (
    "repro.core.fptas",
)

#: Modules that run inside (or route onto) the sharded worker tier, where
#: CON005 flags module-level mutable state: each shard is a separate
#: process, so a module-global dict/list/set silently forks into N
#: divergent copies.  Prefix-scoped like the jit list.
DEFAULT_SHARD_STATE_MODULES: Tuple[str, ...] = (
    "repro.service.shard",
    "repro.service.ring",
)

_TABLE_HEADER = "[tool.repro-lint]"
_KNOWN_KEYS = (
    "sanctioned-numpy-modules",
    "sanctioned-jit-modules",
    "unit-tagged-modules",
    "shard-state-modules",
)

_KEY_VALUE = re.compile(r"^([A-Za-z0-9_-]+)\s*=\s*(.*)$", re.DOTALL)
_QUOTED = re.compile(r"^(?:\"([^\"]*)\"|'([^']*)')$")


class ConfigError(ValueError):
    """Malformed ``[tool.repro-lint]`` table (CLI exit code 2)."""


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration for one analysis run."""

    sanctioned_numpy_modules: Tuple[str, ...] = DEFAULT_SANCTIONED_NUMPY_MODULES
    sanctioned_jit_modules: Tuple[str, ...] = DEFAULT_SANCTIONED_JIT_MODULES
    unit_tagged_modules: Tuple[str, ...] = DEFAULT_UNIT_TAGGED_MODULES
    shard_state_modules: Tuple[str, ...] = DEFAULT_SHARD_STATE_MODULES


def load_config(root: str) -> LintConfig:
    """Read ``<root>/pyproject.toml``; absent file/table means defaults.

    Raises :class:`ConfigError` for an unparseable file, unknown keys in
    the table, or values of the wrong shape.
    """
    path = os.path.join(root, "pyproject.toml")
    if not os.path.isfile(path):
        return LintConfig()
    table = _read_table(path)
    if table is None:
        return LintConfig()
    return _validate(table, path)


def _read_table(path: str) -> Optional[Dict[str, object]]:
    """The raw ``[tool.repro-lint]`` table, or ``None`` when absent."""
    if tomllib is not None:
        with open(path, "rb") as handle:
            try:
                document = tomllib.load(handle)
            except tomllib.TOMLDecodeError as exc:
                raise ConfigError(f"{path}: not valid TOML: {exc}") from exc
        tool = document.get("tool")
        if not isinstance(tool, dict):
            return None
        table = tool.get("repro-lint")
        if table is None:
            return None
        if not isinstance(table, dict):
            raise ConfigError(f"{path}: [tool.repro-lint] must be a table")
        return dict(table)
    return _fallback_table(path)


def _fallback_table(path: str) -> Optional[Dict[str, object]]:
    """Python 3.10 fallback: extract just the ``[tool.repro-lint]`` table.

    Supports the subset this project documents -- bare keys bound to a
    quoted string or a (possibly multi-line) list of quoted strings --
    and raises :class:`ConfigError` on anything else inside the table so
    3.10 and 3.11+ runs reject the same inputs.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    seen = False
    in_table = False
    body: List[str] = []
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("["):
            in_table = stripped == _TABLE_HEADER
            seen = seen or in_table
            continue
        if in_table:
            body.append(line)
    if not seen:
        return None
    table: Dict[str, object] = {}
    for key, raw in _logical_pairs(body, path):
        table[key] = _parse_value(raw, key, path)
    return table


def _logical_pairs(
    body: List[str], path: str
) -> Iterator[Tuple[str, str]]:
    """Yield ``(key, raw value)`` pairs, joining multi-line list values."""
    pending: Optional[Tuple[str, List[str]]] = None
    for line in body:
        stripped = line.strip()
        if pending is not None:
            pending[1].append(line)
            if _brackets_balanced("\n".join(pending[1])):
                yield pending[0], "\n".join(pending[1]).strip()
                pending = None
            continue
        if not stripped or stripped.startswith("#"):
            continue
        match = _KEY_VALUE.match(stripped)
        if match is None:
            raise ConfigError(
                f"{path}: cannot parse [tool.repro-lint] line {stripped!r}"
            )
        key, value = match.group(1), match.group(2).strip()
        if value.startswith("[") and not _brackets_balanced(value):
            pending = (key, [value])
            continue
        yield key, value
    if pending is not None:
        raise ConfigError(
            f"{path}: unterminated list for [tool.repro-lint] "
            f"key {pending[0]!r}"
        )


def _brackets_balanced(text: str) -> bool:
    return text.count("[") <= text.count("]")


def _parse_value(raw: str, key: str, path: str) -> object:
    """Parse the fallback subset: a quoted string or a list of them."""
    raw = raw.strip()
    quoted = _QUOTED.match(raw)
    if quoted is not None:
        value = quoted.group(1)
        return value if value is not None else quoted.group(2)
    if raw.startswith("[") and raw.endswith("]"):
        items: List[object] = []
        for item in raw[1:-1].split(","):
            item = item.strip()
            if not item or item.startswith("#"):
                continue
            entry = _QUOTED.match(item)
            if entry is None:
                # Preserve the non-string entry so validation reports the
                # same shape error tomllib-based runs do.
                items.append(None)
                continue
            value = entry.group(1)
            items.append(value if value is not None else entry.group(2))
        return items
    # Scalars outside the subset (ints, booleans, ...) are preserved
    # opaquely; validation rejects them where a list is required.
    return raw


def _validate(table: Dict[str, object], path: str) -> LintConfig:
    unknown = sorted(set(table) - set(_KNOWN_KEYS))
    if unknown:
        raise ConfigError(
            f"{path}: unknown [tool.repro-lint] key(s): "
            f"{', '.join(unknown)}; known keys: {', '.join(_KNOWN_KEYS)}"
        )
    numpy_modules = DEFAULT_SANCTIONED_NUMPY_MODULES
    jit_modules = DEFAULT_SANCTIONED_JIT_MODULES
    unit_tagged = DEFAULT_UNIT_TAGGED_MODULES
    shard_state = DEFAULT_SHARD_STATE_MODULES
    if "sanctioned-numpy-modules" in table:
        numpy_modules = _string_tuple(
            table["sanctioned-numpy-modules"], "sanctioned-numpy-modules", path
        )
    if "sanctioned-jit-modules" in table:
        jit_modules = _string_tuple(
            table["sanctioned-jit-modules"], "sanctioned-jit-modules", path
        )
    if "unit-tagged-modules" in table:
        unit_tagged = _string_tuple(
            table["unit-tagged-modules"], "unit-tagged-modules", path
        )
    if "shard-state-modules" in table:
        shard_state = _string_tuple(
            table["shard-state-modules"], "shard-state-modules", path
        )
    return LintConfig(
        sanctioned_numpy_modules=numpy_modules,
        sanctioned_jit_modules=jit_modules,
        unit_tagged_modules=unit_tagged,
        shard_state_modules=shard_state,
    )


def _string_tuple(value: object, key: str, path: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) and item for item in value
    ):
        raise ConfigError(
            f"{path}: [tool.repro-lint] {key} must be a list of "
            "non-empty strings"
        )
    return tuple(value)
