"""Layer timing from outside the program: wrap module-level names.

The program's layers call each other through names bound in their
modules (``repro.experiments.runner.simulate_segments`` and so on).
:class:`Tracer` swaps such a name for a wrapper that records the call's
wall time, then restores the original.  Spans nest: a layer's seconds are
its *self* time, the part of its calls not covered by a traced callee, so
the layers of one traced region add up to its wall time minus the
untraced glue (reported as the residual).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Per-layer self time and call counts for wrapped module attributes."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.seconds[name] += elapsed - frame[0]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][0] += elapsed

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        name_of: Optional[Callable[..., str]] = None,
    ) -> None:
        """Replace ``module.attr`` with a traced wrapper until :meth:`restore`.

        ``name_of(*args, **kwargs)`` picks the span name per call when one
        callee serves two layers.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name_of(*args, **kwargs) if name_of is not None else name
            return self.span(span_name, original, *args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
