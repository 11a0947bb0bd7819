"""Backend-purity rules (BCK0xx): the scalar/numpy dual core stays dual.

The numeric core (PR 2) runs CI in two legs: one without numpy installed
(the scalar reference) and one with it.  That only works while

* numpy is imported in exactly the sanctioned modules, guarded by
  ``try/except ImportError`` so the scalar leg still imports cleanly
  (``BCK001``/``BCK002``).  The sanctioned list defaults to
  :data:`repro.lint.config.DEFAULT_SANCTIONED_NUMPY_MODULES` and can be
  overridden per checkout via ``[tool.repro-lint]
  sanctioned-numpy-modules`` in ``pyproject.toml``;
* every other module reaches ndarray work through the dispatcher in
  :mod:`repro.core.vectorized` rather than importing numpy itself
  (``BCK002``);
* the ``REPRO_NUMERIC`` environment variable is *read* only by the
  sanctioned accessor :mod:`repro.core.solve_config`, so the flag > env >
  auto precedence cannot fork (``BCK003``).  Writes are allowed;
* the jit toolchains (numba/cffi, PR 6) are imported only inside
  ``repro.core.kernels`` -- every other module reaches compiled code
  through the dispatcher, so a checkout without either toolchain
  degrades instead of crashing (``BCK004``).  The sanctioned list is
  prefix-scoped (the kernels *package* including its provider
  submodules) and configurable via ``[tool.repro-lint]
  sanctioned-jit-modules``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.config import (
    DEFAULT_SANCTIONED_JIT_MODULES,
    DEFAULT_SANCTIONED_NUMPY_MODULES,
)
from repro.lint.engine import (
    Finding,
    Project,
    Rule,
    SourceModule,
    dotted_call_name,
    parent_chain,
    register,
)

__all__ = [
    "NumpyImportGuardRule",
    "NumpyImportScopeRule",
    "BackendEnvReadRule",
    "JitImportScopeRule",
]

#: Modules allowed to import numpy directly.  ``core.vectorized`` is the
#: dispatcher itself; ``utils.solvers`` hosts the batched primitives the
#: dispatcher calls into (splitting them out would create an import cycle).
#: This is the *default*; each run rescopes from ``project.config``
#: ([tool.repro-lint] sanctioned-numpy-modules in pyproject.toml).
SANCTIONED_NUMPY_MODULES = DEFAULT_SANCTIONED_NUMPY_MODULES

#: Packages allowed to import the jit toolchains (numba/cffi).  Prefix
#: semantics: an entry sanctions the named module *and* everything under
#: it, because the kernels package keeps its provider in a submodule.
#: Rescoped per run from ``[tool.repro-lint] sanctioned-jit-modules``.
SANCTIONED_JIT_MODULES = DEFAULT_SANCTIONED_JIT_MODULES

#: Toolchain packages BCK004 confines to the sanctioned jit modules.
JIT_TOOLCHAIN_PACKAGES = ("numba", "cffi")

#: The one module allowed to read the backend environment variable.
BACKEND_ACCESSOR_MODULE = "repro.core.solve_config"

_BACKEND_ENV = "REPRO_NUMERIC"


def _is_numpy_import(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(
            item.name == "numpy" or item.name.startswith("numpy.")
            for item in node.names
        )
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module == "numpy" or module.startswith("numpy.")
    return False


def _jit_import_target(node: ast.AST) -> Optional[str]:
    """The toolchain package a node imports (``numba``/``cffi``), if any."""
    if isinstance(node, ast.Import):
        for item in node.names:
            for pkg in JIT_TOOLCHAIN_PACKAGES:
                if item.name == pkg or item.name.startswith(pkg + "."):
                    return pkg
        return None
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level:  # relative import: never a toolchain package
            return None
        for pkg in JIT_TOOLCHAIN_PACKAGES:
            if module == pkg or module.startswith(pkg + "."):
                return pkg
    return None


def _guarded_by_import_error(node: ast.AST) -> bool:
    """True when the import sits in a ``try`` with an ImportError handler."""
    for ancestor in parent_chain(node):
        if isinstance(ancestor, ast.Try):
            for handler in ancestor.handlers:
                if _handler_catches_import_error(handler):
                    return True
    return False


def _handler_catches_import_error(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    if kind is None:
        return True
    names: list[ast.expr] = list(kind.elts) if isinstance(kind, ast.Tuple) else [kind]
    for name in names:
        if isinstance(name, ast.Name) and name.id in (
            "ImportError",
            "ModuleNotFoundError",
        ):
            return True
    return False


@register
class NumpyImportGuardRule(Rule):
    id = "BCK001"
    family = "backend"
    description = (
        "numpy import in a sanctioned module must be guarded by "
        "try/except ImportError so the scalar CI leg still imports"
    )
    hint = (
        "wrap in try/except ImportError and fall back to None "
        "(see repro.core.vectorized)"
    )
    packages = SANCTIONED_NUMPY_MODULES

    def run(self, project: Project) -> Iterator[Finding]:
        # Rescope to the configured sanctioned list before walking.
        self.packages = project.config.sanctioned_numpy_modules
        yield from super().run(project)

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if _is_numpy_import(node) and not _guarded_by_import_error(node):
                yield self.finding(
                    module,
                    node,
                    "unguarded numpy import would break the numpy-less "
                    "(scalar backend) CI leg",
                )


@register
class NumpyImportScopeRule(Rule):
    id = "BCK002"
    family = "backend"
    description = (
        "numpy imported outside the sanctioned modules; ndarray work "
        "must go through the repro.core.vectorized dispatcher"
    )
    hint = (
        "call the batched primitive you need via repro.core.vectorized "
        "(or add one there) instead of importing numpy locally"
    )

    #: Per-run sanctioned list (rescoped from project.config in run()).
    _sanctioned: tuple[str, ...] = SANCTIONED_NUMPY_MODULES

    def run(self, project: Project) -> Iterator[Finding]:
        self._sanctioned = project.config.sanctioned_numpy_modules
        yield from super().run(project)

    def applies_to(self, module: SourceModule) -> bool:
        if not super().applies_to(module):
            return False
        return module.name not in self._sanctioned

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if _is_numpy_import(node):
                yield self.finding(
                    module,
                    node,
                    f"numpy import in {module.name}; only "
                    f"{', '.join(self._sanctioned)} may import it",
                )


@register
class BackendEnvReadRule(Rule):
    id = "BCK003"
    family = "backend"
    description = (
        "REPRO_NUMERIC read outside repro.core.solve_config; "
        "the flag > env > auto precedence must have one owner"
    )
    hint = "call repro.core.vectorized.get_backend() (writes are fine)"

    def applies_to(self, module: SourceModule) -> bool:
        if not super().applies_to(module):
            return False
        return module.name != BACKEND_ACCESSOR_MODULE

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Subscript):
                if (
                    isinstance(node.ctx, ast.Load)
                    and self._is_environ(node.value, module)
                    and self._is_backend_key(node.slice, module)
                ):
                    yield self._flag(module, node)
            elif isinstance(node, ast.Call):
                name = dotted_call_name(node.func, module.aliases)
                key: Optional[ast.AST] = None
                if name in ("os.getenv",) and node.args:
                    key = node.args[0]
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("get", "setdefault", "pop")
                    and self._is_environ(node.func.value, module)
                    and node.args
                ):
                    key = node.args[0]
                if key is not None and self._is_backend_key(key, module):
                    yield self._flag(module, node)

    @staticmethod
    def _is_environ(node: ast.AST, module: SourceModule) -> bool:
        name = dotted_call_name(node, module.aliases)
        return name in ("os.environ", "environ")

    @staticmethod
    def _is_backend_key(node: ast.AST, module: SourceModule) -> bool:
        if isinstance(node, ast.Constant):
            return node.value == _BACKEND_ENV
        name = dotted_call_name(node, module.aliases)
        if name is None:
            return False
        return name.split(".")[-1] == "BACKEND_ENV"

    def _flag(self, module: SourceModule, node: ast.AST) -> Finding:
        return self.finding(
            module,
            node,
            "REPRO_NUMERIC must be read through "
            "repro.core.solve_config, not the raw environment",
        )


@register
class JitImportScopeRule(Rule):
    id = "BCK004"
    family = "backend"
    description = (
        "numba/cffi imported outside the sanctioned jit modules; compiled "
        "kernels must stay inside repro.core.kernels so checkouts without "
        "a jit toolchain degrade instead of crashing"
    )
    hint = (
        "call the compiled kernel you need via repro.core.kernels "
        "(or add one there) instead of importing numba/cffi locally"
    )

    #: Per-run sanctioned prefixes (rescoped from project.config in run()).
    _sanctioned: tuple[str, ...] = SANCTIONED_JIT_MODULES

    def run(self, project: Project) -> Iterator[Finding]:
        self._sanctioned = project.config.sanctioned_jit_modules
        yield from super().run(project)

    def applies_to(self, module: SourceModule) -> bool:
        if not super().applies_to(module):
            return False
        # Prefix semantics: sanctioning a package sanctions its submodules
        # (the providers live under repro.core.kernels).
        return not any(
            module.name == root or module.name.startswith(root + ".")
            for root in self._sanctioned
        )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            pkg = _jit_import_target(node)
            if pkg is not None:
                yield self.finding(
                    module,
                    node,
                    f"{pkg} import in {module.name}; only "
                    f"{', '.join(self._sanctioned)} (and submodules) may "
                    "import the jit toolchains",
                )
