"""Span tracing around the package's layer boundaries, from outside the package.

A :class:`Tracer` replaces functions at the module attributes their callers
look them up by (for example ``treebed.embedding.nearest_in_level``, the name
``embed_color`` calls) with wrappers that record one span each: layer name,
start and end in nanoseconds, and the index of the enclosing span. Wrappers
are installed only for the duration of one traced call and the originals are
restored afterwards. A target that no longer exists is skipped, so its layer
reports zero calls instead of failing the run.

Spans of one call are folded into per-layer totals when the call ends; a
layer's self time is its span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in the same call, -1 for a root
    value: float | None = None  # optional per-call measurement, e.g. hops


@dataclass
class Layer:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    value_sum: float = 0.0
    value_max: float = 0.0
    value_count: int = 0

    @property
    def value_mean(self) -> float:
        return self.value_sum / self.value_count if self.value_count else 0.0


def self_times(spans: list[Span]) -> list[int]:
    """Self time of each span: its duration minus its direct children's."""
    own = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end_ns - s.start_ns
    return own


class Tracer:
    """Records spans at wrapped call sites and accumulates per-layer totals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.layers: dict[str, Layer] = {}
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, Callable, Callable]] = []

    def target(
        self,
        module: str,
        attr: str,
        layer: str,
        measure: Callable[[tuple, object], float] | None = None,
    ) -> None:
        """Register ``module.attr`` to be traced as ``layer``.

        ``measure(args, result)`` may derive a number from each call. When the
        module or attribute is missing nothing is traced and the layer keeps
        zero calls.
        """
        self.layers.setdefault(layer, Layer())
        try:
            mod = importlib.import_module(module)
        except ImportError:
            return
        original = getattr(mod, attr, None)
        if callable(original):
            self._targets.append((mod, attr, original, self._wrap(original, layer, measure)))

    def _wrap(self, fn: Callable, layer: str, measure) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(layer, 0, 0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start_ns = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            if measure is not None:
                try:
                    span.value = measure(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the call's shape changed; keep its time, skip the value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace the registered targets inside the block, restore them after."""
        for mod, attr, _, wrapper in self._targets:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self._targets:
                setattr(mod, attr, original)

    def fold(self) -> list[Span]:
        """Add the recorded spans to the per-layer totals and clear them."""
        spans = self.spans[:]
        for span, own in zip(spans, self_times(spans)):
            layer = self.layers.setdefault(span.name, Layer())
            layer.calls += 1
            layer.self_ns += own
            layer.total_ns += span.end_ns - span.start_ns
            if span.value is not None:
                layer.value_sum += span.value
                layer.value_max = max(layer.value_max, span.value)
                layer.value_count += 1
        self.spans.clear()
        return spans
