"""In-memory span recorder and the wrappers that feed it.

A span is one call into a layer of the program: name, start, end, the span
that was open when it started (its parent) and the benchmark op it belongs
to.  Spans and counters stay in memory and are written out once, at the end
of a traced run.  A layer's *self time* is its spans' durations minus the
part of each interval its child spans cover.

Nothing under ``src/`` is edited: :class:`Patcher` replaces a public
function in every module namespace (or on the class) where callers look it
up, and puts every original back on exit, including after an exception.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Recorder:
    """Collects spans (as a tree, via a stack of open spans) and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent,
                               self.op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def count(self, name: str, amount=1) -> None:
        self.counters[name] += amount

    def write(self, path) -> None:
        """One JSON object per line: every span, then the counters."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals
    (clipped to the parent's own interval)."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        kids = [(max(kid.start, span.start), min(kid.end, span.end))
                for kid in children.get(index, ())]
        kids = [(start, end) for start, end in kids if end > start]
        result.append((span.end - span.start) - _covered(kids))
    return result


def self_time_by_name(spans) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


class Patcher:
    """Install wrappers on functions; :meth:`restore` undoes every one."""

    def __init__(self):
        self._patched: list[tuple] = []   # (namespace owner, attr, original)
        self._wrappers: dict[int, tuple] = {}   # id(wrapper) -> (wrapper, original)

    def wrap_function(self, module_name: str, attr: str, wrapper_factory):
        """Replace ``module.attr`` in every loaded module that binds the
        same object (``from X import f`` copies the binding)."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._register(original, wrapper_factory)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, original))

    def wrap_method(self, module_name: str, qualname: str, wrapper_factory):
        class_name, attr = qualname.split(".")
        owner = getattr(importlib.import_module(module_name), class_name)
        original = owner.__dict__[attr]
        wrapper = self._register(original, wrapper_factory)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _register(self, original, wrapper_factory):
        wrapper = wrapper_factory(original)
        self._wrappers[id(wrapper)] = (wrapper, original)
        return wrapper

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        # A module imported while the wrappers were live copied a wrapper
        # into its own namespace: put the original back there too.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for name, value in list(namespace.items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()
        return False


def spanning(recorder: Recorder, name: str, on_result=None):
    """Wrapper factory: time each call as a ``name`` span, then pass
    ``(args, kwargs, result)`` to ``on_result`` for counters."""
    def factory(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper
    return factory
