"""Unit-consistency rule (UNT001): energy/power/time quantities stay typed.

Every quantity in this codebase is a bare ``float``: energies in uJ,
powers in mW, times in ms, frequencies in MHz, work in kilocycles.  The
paper's equations mix them constantly (``E = P * t``), and the one
mistake the type system cannot catch is *adding* or *comparing* across
dimensions -- ``uJ + mW`` is meaningless but runs fine.

:mod:`repro.units` provides a zero-cost ``@unit("uJ")`` decorator that
stamps producer functions with their unit tag.  This rule reads those
stamps *syntactically* (no imports of product code are executed):

1. a project-wide pass collects ``function name -> unit tag`` from every
   ``@unit(...)`` decorator (string literal or a ``repro.units`` constant
   such as ``UJ``);
2. inside :mod:`repro.energy` and :mod:`repro.core` functions, local
   variables assigned from tagged calls inherit the tag's dimension
   vector, ``*``/``/`` combine vectors (so ``mW * ms`` correctly derives
   an energy), and ``+``/``-``/comparisons between *different known*
   dimensions are flagged.

Anything un-inferable stays unknown and is never flagged -- the rule
reports only provable dimension mixes, accepting misses over noise.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from repro.lint.engine import (
    Finding,
    Project,
    Rule,
    SourceModule,
    SEVERITY_WARNING,
    dotted_call_name,
    register,
)
from repro.units import DIMENSIONS, SCALAR

__all__ = ["UnitMixRule", "UnitTagCoverageRule", "collect_unit_registry"]

_Dim = Tuple[Fraction, Fraction, Fraction]

#: Local names of the tag constants exported by :mod:`repro.units`,
#: resolved without importing the decorated modules.
_TAG_CONSTANTS: Dict[str, str] = {
    "UJ": "uJ",
    "MW": "mW",
    "MS": "ms",
    "MHZ": "MHz",
    "KC": "kc",
    "SCALAR": SCALAR,
}

_AMBIGUOUS = "<ambiguous>"


def _tag_for_dim(dim: _Dim) -> str:
    for tag, candidate in DIMENSIONS.items():
        if candidate == dim:
            return tag
    energy, work, time = dim
    return f"<energy^{energy} work^{work} time^{time}>"


def _decorator_tag(node: ast.expr, module: SourceModule) -> Optional[str]:
    """The unit tag named by an ``@unit(...)`` decorator, else ``None``."""
    if not isinstance(node, ast.Call) or len(node.args) != 1:
        return None
    name = dotted_call_name(node.func, module.aliases)
    if name is None or name.split(".")[-1] != "unit":
        return None
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value if arg.value in DIMENSIONS else None
    dotted = dotted_call_name(arg, module.aliases)
    if dotted is not None:
        return _TAG_CONSTANTS.get(dotted.split(".")[-1])
    return None


def collect_unit_registry(project: Project) -> Dict[str, str]:
    """Map function name -> unit tag from every ``@unit`` decorator.

    Keyed by the *bare* function name because call sites use attribute
    access (``power.dynamic_power(...)``, ``self.block_energy(...)``)
    whose receiver the linter cannot type.  A name decorated with two
    different tags anywhere in the project becomes ambiguous and is
    dropped from inference.
    """
    registry: Dict[str, str] = {}
    for module in project.modules:
        if module.tree is None:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                tag = _decorator_tag(decorator, module)
                if tag is None:
                    continue
                previous = registry.get(node.name)
                if previous is not None and previous != tag:
                    registry[node.name] = _AMBIGUOUS
                else:
                    registry[node.name] = tag
    return {name: tag for name, tag in registry.items() if tag != _AMBIGUOUS}


@register
class UnitMixRule(Rule):
    id = "UNT001"
    family = "units"
    severity = SEVERITY_WARNING
    description = (
        "arithmetic or comparison mixes physical dimensions (e.g. an "
        "energy in uJ added to a power in mW) without conversion"
    )
    hint = (
        "convert explicitly (mW * ms -> uJ) or tag the producer with "
        "@unit(...) from repro.units if the inference is wrong"
    )
    packages = ("repro.energy", "repro.core")

    def run(self, project: Project) -> Iterator[Finding]:
        registry = collect_unit_registry(project)
        if not registry:
            return
        for module in project.modules:
            if module.tree is None or not self.applies_to(module):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(module, node, registry)

    def _check_function(
        self,
        module: SourceModule,
        func: ast.AST,
        registry: Dict[str, str],
    ) -> Iterator[Finding]:
        env = self._infer_locals(func, module, registry)
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                left = self._dim(node.left, env, module, registry)
                right = self._dim(node.right, env, module, registry)
                if left is not None and right is not None and left != right:
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    yield self.finding(
                        module,
                        node,
                        f"dimension mix: {_tag_for_dim(left)} {op} "
                        f"{_tag_for_dim(right)}",
                    )
            elif isinstance(node, ast.Compare):
                sides = [node.left] + list(node.comparators)
                dims = [self._dim(s, env, module, registry) for s in sides]
                for a, b in zip(dims, dims[1:]):
                    if a is not None and b is not None and a != b:
                        yield self.finding(
                            module,
                            node,
                            f"dimension mix in comparison: "
                            f"{_tag_for_dim(a)} vs {_tag_for_dim(b)}",
                        )
                        break

    def _infer_locals(
        self,
        func: ast.AST,
        module: SourceModule,
        registry: Dict[str, str],
    ) -> Dict[str, _Dim]:
        """One forward pass over simple ``name = expr`` assignments.

        A name assigned two different dimensions anywhere in the function
        is demoted to unknown rather than trusted.
        """
        env: Dict[str, _Dim] = {}
        conflicted: set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            dim = self._dim(node.value, env, module, registry)
            if dim is None:
                continue
            if target.id in env and env[target.id] != dim:
                conflicted.add(target.id)
            env[target.id] = dim
        for name in conflicted:
            env.pop(name, None)
        return env

    def _dim(
        self,
        node: ast.AST,
        env: Dict[str, _Dim],
        module: SourceModule,
        registry: Dict[str, str],
    ) -> Optional[_Dim]:
        """Dimension vector of an expression, or ``None`` when unknown.

        Bare numeric constants are deliberately *unknown*, not scalar:
        ``energy + 0.0`` style sentinels and literal offsets must never
        be flagged.
        """
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Call):
            name = dotted_call_name(node.func, module.aliases)
            if name is None:
                return None
            tag = registry.get(name.split(".")[-1])
            return DIMENSIONS.get(tag) if tag is not None else None
        if isinstance(node, ast.UnaryOp):
            return self._dim(node.operand, env, module, registry)
        if isinstance(node, ast.BinOp):
            left = self._dim(node.left, env, module, registry)
            right = self._dim(node.right, env, module, registry)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                # Mixes are reported separately; the result keeps the
                # left dimension when either side is known.
                return left if left is not None else right
            if isinstance(node.op, ast.Mult):
                if left is None or right is None:
                    return None
                return (left[0] + right[0], left[1] + right[1], left[2] + right[2])
            if isinstance(node.op, ast.Div):
                if left is None or right is None:
                    return None
                return (left[0] - right[0], left[1] - right[1], left[2] - right[2])
            return None
        return None


#: Function-name segments that denote a discretization/approximation
#: quantity: tolerances (epsilon/delta), grid geometry (step, grid,
#: ladder) and the energies they bound.  Matched on whole ``_``-separated
#: name segments so ``solve_agreeable_fptas`` or ``grid_search`` helpers
#: that *return structures* are not conscripted.
_QUANTITY_SEGMENTS = re.compile(
    r"(?:^|_)(?:energy|epsilon|delta|step|grid|ladder)(?:_|$)"
)

#: The numeric-backend env var and its sanctioned accessor (the module
#: UNT002 never applies to, so no self-flagging is possible).
_NUMERIC_ENV = "REPRO_NUMERIC"
_NUMERIC_ACCESSOR_MODULE = "repro.core.solve_config"


@register
class UnitTagCoverageRule(Rule):
    id = "UNT002"
    family = "units"
    severity = SEVERITY_WARNING
    description = (
        "quantity-valued helper in a unit-tagged module (ε, grid pitch, "
        "ladder, energy) lacks an @unit(...) tag, or the module reads "
        "REPRO_NUMERIC outside the sanctioned accessor"
    )
    hint = (
        "tag the function with @unit(...) from repro.units (SCALAR for "
        "dimensionless ε), and read the backend only through "
        "repro.core.vectorized.get_backend(); scope via [tool.repro-lint] "
        "unit-tagged-modules"
    )
    #: Rescoped per run from ``[tool.repro-lint] unit-tagged-modules``.
    packages = ("repro.core.fptas",)

    def run(self, project: Project) -> Iterator[Finding]:
        self.packages = tuple(
            name
            for name in project.config.unit_tagged_modules
            if name != _NUMERIC_ACCESSOR_MODULE
        )
        yield from super().run(project)

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_tagged(module, node)
            else:
                yield from self._check_env_read(module, node)

    def _check_tagged(
        self, module: SourceModule, func: ast.AST
    ) -> Iterator[Finding]:
        name = func.name
        if not _QUANTITY_SEGMENTS.search(name):
            return
        for decorator in func.decorator_list:
            if _decorator_tag(decorator, module) is not None:
                return
        yield self.finding(
            module,
            func,
            f"quantity-valued function {name!r} has no @unit(...) tag; "
            "discretization quantities in unit-tagged modules must "
            "declare their dimension",
        )

    def _check_env_read(
        self, module: SourceModule, node: ast.AST
    ) -> Iterator[Finding]:
        key: Optional[ast.AST] = None
        if isinstance(node, ast.Subscript):
            if isinstance(node.ctx, ast.Load) and self._is_environ(
                node.value, module
            ):
                key = node.slice
        elif isinstance(node, ast.Call):
            name = dotted_call_name(node.func, module.aliases)
            if name == "os.getenv" and node.args:
                key = node.args[0]
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "setdefault", "pop")
                and self._is_environ(node.func.value, module)
                and node.args
            ):
                key = node.args[0]
        if key is not None and self._is_numeric_key(key, module):
            yield self.finding(
                module,
                node,
                "unit-tagged module reads REPRO_NUMERIC directly; use "
                "repro.core.vectorized.get_backend() so tier pricing "
                "stays backend-pure",
            )

    @staticmethod
    def _is_environ(node: ast.AST, module: SourceModule) -> bool:
        name = dotted_call_name(node, module.aliases)
        return name in ("os.environ", "environ")

    @staticmethod
    def _is_numeric_key(node: ast.AST, module: SourceModule) -> bool:
        if isinstance(node, ast.Constant):
            return node.value == _NUMERIC_ENV
        name = dotted_call_name(node, module.aliases)
        if name is None:
            return False
        return name.split(".")[-1] == "BACKEND_ENV"
