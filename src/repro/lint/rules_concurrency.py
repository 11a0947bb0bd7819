"""Concurrency rules (CON0xx): the solve service's locking discipline.

``repro.service`` mixes three execution domains -- the asyncio event
loop, the in-process solve thread and the admission queue shared between
them.  The rules pin the discipline that keeps it deadlock- and
race-free:

* ``CON001`` -- every function must acquire locks in one global order;
  a cycle in the observed acquired-while-holding graph is a latent
  deadlock between two call paths;
* ``CON002`` -- a *threading* lock held across ``await`` blocks the
  whole event loop and everyone queued on the lock; use an
  ``asyncio.Lock`` with ``async with`` instead;
* ``CON003`` -- the metrics instruments publish to scraping threads, so
  their underscore state may only be mutated under ``self._lock``;
* ``CON004`` -- ``except Exception: pass`` swallows tracebacks that the
  service's error envelope (or at minimum a metric) should carry;
* ``CON005`` -- the shard-tier modules (PR 10) run one copy per worker
  *process*, so a module- or class-level mutable container there is not
  shared state at all: it silently forks into N divergent copies.  The
  only sanctioned cross-shard channels are the on-disk ``ResultCache``
  and the parent-side ``MetricsRegistry``; anything else needs an
  explicit allow-pragma arguing why per-process divergence is fine.

Lock identity is syntactic: a ``with`` context expression whose final
name segment looks lock-ish (``lock``, ``cond``, ``mutex``, ``sem``).
That is deliberately conservative -- the rules exist to catch the
concrete mistakes this repo can make, not to model Python's runtime.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.config import DEFAULT_SHARD_STATE_MODULES
from repro.lint.engine import (
    Finding,
    Project,
    Rule,
    SourceModule,
    parent_chain,
    register,
)

__all__ = [
    "LockOrderRule",
    "LockAcrossAwaitRule",
    "MetricsStateLockRule",
    "ShardSharedStateRule",
    "SwallowedExceptionRule",
    "lock_label",
]

_LOCKISH = re.compile(r"(^|_)(lock|cond|condition|mutex|sem|semaphore)$", re.I)


def lock_label(node: ast.AST, module: SourceModule) -> Optional[str]:
    """A stable label for a lock-ish ``with`` context expression.

    ``self._lock`` inside class ``AdmissionQueue`` labels as
    ``repro.service.queue.AdmissionQueue._lock``; a module-global
    ``_cache_lock`` in ``repro.service.shard`` as
    ``repro.service.shard._cache_lock``.
    Non-lock-ish expressions return ``None``.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    if not _LOCKISH.search(parts[-1]):
        return None
    if parts[0] == "self":
        owner = _enclosing_class(node)
        scope = f"{module.name}.{owner}" if owner else module.name
        return ".".join([scope] + parts[1:])
    return ".".join([module.name] + parts)


def _enclosing_class(node: ast.AST) -> Optional[str]:
    for ancestor in parent_chain(node):
        if isinstance(ancestor, ast.ClassDef):
            return ancestor.name
    return None


def _with_lock_labels(stmt: ast.stmt, module: SourceModule) -> List[str]:
    if not isinstance(stmt, ast.With):
        return []
    labels: List[str] = []
    for item in stmt.items:
        label = lock_label(item.context_expr, module)
        if label is not None:
            labels.append(label)
    return labels


@register
class LockOrderRule(Rule):
    id = "CON001"
    family = "concurrency"
    description = (
        "inconsistent lock-acquisition order: two call paths acquire the "
        "same locks in opposite orders (latent deadlock)"
    )
    hint = (
        "pick one global order (document it where the locks are created) "
        "and re-nest the with-blocks to follow it everywhere"
    )
    packages = ("repro.service",)

    def run(self, project: Project) -> Iterator[Finding]:
        # Edge (a, b): somewhere, b is acquired while a is held.
        edges: Dict[Tuple[str, str], Tuple[SourceModule, ast.AST]] = {}
        for module in project.modules:
            if module.tree is None or not self.applies_to(module):
                continue
            for node in ast.walk(module.tree):
                inner = _with_lock_labels(node, module) if isinstance(node, ast.stmt) else []
                if not inner:
                    continue
                held: List[str] = []
                for ancestor in parent_chain(node):
                    if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        break
                    if isinstance(ancestor, ast.stmt):
                        held.extend(_with_lock_labels(ancestor, module))
                # Multi-item `with a, b:` acquires left to right.
                for index, later in enumerate(inner):
                    for earlier in held + inner[:index]:
                        if earlier != later:
                            edges.setdefault((earlier, later), (module, node))
        for (a, b), (module, node) in sorted(edges.items()):
            if (b, a) in edges:
                yield self.finding(
                    module,
                    node,
                    f"lock order cycle: {b} is acquired while holding {a}, "
                    f"but elsewhere {a} is acquired while holding {b}",
                )


@register
class LockAcrossAwaitRule(Rule):
    id = "CON002"
    family = "concurrency"
    description = (
        "threading lock held across await: blocks the event loop and "
        "every coroutine queued on the lock"
    )
    hint = "use asyncio.Lock with 'async with', or release before awaiting"
    packages = ("repro.service",)

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.With):
                continue
            labels = _with_lock_labels(node, module)
            if not labels:
                continue
            if not self._inside_async_function(node):
                continue
            for await_node in self._awaits_in_body(node):
                yield self.finding(
                    module,
                    await_node,
                    f"await while holding {labels[0]} (a synchronous lock)",
                )

    @staticmethod
    def _inside_async_function(node: ast.AST) -> bool:
        for ancestor in parent_chain(node):
            if isinstance(ancestor, ast.AsyncFunctionDef):
                return True
            if isinstance(ancestor, ast.FunctionDef):
                return False
        return False

    @classmethod
    def _awaits_in_body(cls, with_node: ast.With) -> Iterator[ast.Await]:
        # Recurse manually so nested function bodies (their awaits run
        # later, not under the lock) are pruned from the walk.
        def visit(node: ast.AST) -> Iterator[ast.Await]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(child, ast.Await):
                    yield child
                yield from visit(child)

        for stmt in with_node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from visit(stmt)


@register
class MetricsStateLockRule(Rule):
    id = "CON003"
    family = "concurrency"
    description = (
        "metrics instrument state mutated outside its lock; counters are "
        "read from scraping threads concurrently with solver threads"
    )
    hint = "wrap the mutation in 'with self._lock:' like the other methods"
    packages = ("repro.service.metrics",)

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not self._has_own_lock(cls):
                continue
            for func in cls.body:
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if func.name == "__init__":
                    continue
                yield from self._check_method(module, cls, func)

    @staticmethod
    def _has_own_lock(cls: ast.ClassDef) -> bool:
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "_lock"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return True
        return False

    def _check_method(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        func: ast.AST,
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            target_attr: Optional[str] = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    attr = self._self_private_attr(target)
                    if attr is not None:
                        target_attr = attr
                        break
            elif isinstance(node, ast.Call):
                # Mutating method calls on private containers
                # (self._recent.append(...), self._metrics.clear(), ...).
                func_node = node.func
                if (
                    isinstance(func_node, ast.Attribute)
                    and func_node.attr
                    in ("append", "appendleft", "clear", "pop", "popleft", "update")
                ):
                    target_attr = self._self_private_attr(func_node.value)
            if target_attr is None or target_attr == "_lock":
                continue
            if not self._under_self_lock(node):
                yield self.finding(
                    module,
                    node,
                    f"{cls.name}.{target_attr} mutated outside "
                    f"'with self._lock' in {getattr(func, 'name', '?')}()",
                )

    @staticmethod
    def _self_private_attr(node: ast.AST) -> Optional[str]:
        # self._attr or self._attr[...] in a store/mutate position.
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    @staticmethod
    def _under_self_lock(node: ast.AST) -> bool:
        for ancestor in parent_chain(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Attribute)
                        and expr.attr == "_lock"
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == "self"
                    ):
                        return True
        return False


@register
class SwallowedExceptionRule(Rule):
    id = "CON004"
    family = "concurrency"
    description = (
        "broad except handler silently swallows the exception: no "
        "re-raise, no logging, no error response, no metric"
    )
    hint = (
        "narrow the exception type, or handle it observably (re-raise, "
        "return an error envelope, bump a metric)"
    )
    include_tests = True

    _BROAD = ("Exception", "BaseException")

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            if self._is_silent(node):
                yield self.finding(
                    module,
                    node,
                    "broad except handler swallows the exception silently",
                )

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        kind = handler.type
        if kind is None:
            return True
        elts = kind.elts if isinstance(kind, ast.Tuple) else [kind]
        return any(
            isinstance(e, ast.Name) and e.id in self._BROAD for e in elts
        )

    @staticmethod
    def _is_silent(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Raise, ast.Call, ast.Return, ast.Assign, ast.AugAssign, ast.Yield)):
                    return False
        return True


@register
class ShardSharedStateRule(Rule):
    id = "CON005"
    family = "concurrency"
    description = (
        "mutable module/class-level container in a shard-tier module: "
        "each worker process gets its own divergent copy, so it cannot "
        "carry cross-shard state"
    )
    hint = (
        "route shared state through the on-disk ResultCache or the "
        "parent-side MetricsRegistry; for deliberate per-process memos "
        "add '# repro-lint: allow[CON005] <why divergence is fine>'"
    )
    #: Rescoped per run from ``[tool.repro-lint] shard-state-modules``.
    packages = DEFAULT_SHARD_STATE_MODULES

    #: Constructor calls sanctioned at module scope: handles to the two
    #: legitimate cross-shard channels (disk cache, parent metrics).
    _SANCTIONED_CALLS = ("ResultCache", "MetricsRegistry", "service_metrics")

    #: Calls that build a mutable container even without a literal.
    _MUTABLE_CALLS = (
        "dict", "list", "set", "defaultdict", "deque", "Counter",
        "OrderedDict",
    )

    def run(self, project: Project) -> Iterator[Finding]:
        self.packages = project.config.shard_state_modules
        yield from super().run(project)

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            if self._inside_function(node):
                continue
            value = node.value
            if value is None or not self._is_mutable_container(value):
                continue
            name = self._target_name(node)
            if name.startswith("__") and name.endswith("__"):
                # __all__ and friends: write-once interpreter protocol
                # names, never mutated as shared state.
                continue
            scope = _enclosing_class(node)
            where = f"{module.name}.{scope}" if scope else module.name
            yield self.finding(
                module,
                node,
                f"{where}.{name} binds a mutable container at "
                f"{'class' if scope else 'module'} scope; shard workers "
                "each fork a private copy, so mutations never cross shards",
            )

    @staticmethod
    def _inside_function(node: ast.AST) -> bool:
        for ancestor in parent_chain(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return True
        return False

    @classmethod
    def _is_mutable_container(cls, value: ast.AST) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return True
        if isinstance(value, (ast.DictComp, ast.ListComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            callee = value.func
            name = callee.id if isinstance(callee, ast.Name) else (
                callee.attr if isinstance(callee, ast.Attribute) else None
            )
            if name in cls._SANCTIONED_CALLS:
                return False
            return name in cls._MUTABLE_CALLS
        return False

    @staticmethod
    def _target_name(node: ast.AST) -> str:
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                return target.id
            if isinstance(target, ast.Attribute):
                return target.attr
        return "<target>"
