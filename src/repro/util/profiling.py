"""The measurement spine: one tree of named, timed spans with counters.

Every timing the program reports — the Table VI stage split, the sweep's
shared and per-leg phases, localization's scan and attribution, an audit
entry's seconds and ``--profile`` — is read off one :class:`Span` tree.
Library entry points and pipeline steps open a child of the *current* span
(held in a :class:`~contextvars.ContextVar`, so threads and service jobs
each grow their own tree); a span opened with nothing current is a fresh
root.  Re-opening a child of the same name accumulates into it, so a
campaign's many runs or iterations aggregate into one row with a ``calls``
count instead of one node each.

Spans are coarse and always on: a handful per campaign plus one per traced
iteration (the tracer's ``parse`` row).  ``--profile`` adds the per-stage
core rows (:data:`STAGE_LABELS`), which ``Core._step_profiled`` charges
directly on every simulated cycle.  Timing never changes a result.

A span's children never cover more than the span itself, except where work
ran concurrently (worker-pool runs adopted under one ``execute`` span); the
remainder is rendered as an explicit ``(unattributed)`` row at every level.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

#: Per-stage core rows (``--profile``), in the order ``Core._step_profiled``
#: charges them (commit first: the core steps its stages in reverse).
STAGE_LABELS = ("commit", "memory system", "writeback", "issue",
                "rename/dispatch", "fetch", "tracer")

#: Span name -> Table VI column.  A span without an entry takes its nearest
#: ancestor's column; spans outside every mapped subtree (the entry point's
#: own span, the taint prescreen) belong to no column.  Per-cycle sampling
#: stays in ``simulate`` (the paper's log generation); ``parse`` is the
#: per-iteration snapshot finalize plus the campaign merge.
TABLE_VI_STAGES = {"prepare": "simulate", "execute": "simulate",
                   "parse": "parse", "finalize": "parse",
                   "stats": "stats", "extract": "extract"}

_CURRENT: ContextVar = ContextVar("microsampler_span", default=None)


class Span:
    """One timed step: accumulated seconds, call count, counters, children.

    Entering a span (``with span:``) times the block and makes the span
    current; exiting adds the elapsed wall-clock and one call.  A span is
    picklable once closed, so worker runs ship their subtree back with
    their outputs.
    """

    __slots__ = ("name", "seconds", "calls", "counters", "children",
                 "_started", "_token")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.calls = 0
        self.counters: dict = {}
        self.children: dict = {}
        self._started = 0.0
        self._token = None

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.seconds += time.perf_counter() - self._started
        self.calls += 1
        _CURRENT.reset(self._token)
        self._token = None
        return False

    def child(self, name: str) -> "Span":
        """The child called ``name``, created on first use."""
        span = self.children.get(name)
        if span is None:
            span = self.children[name] = Span(name)
        return span

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def adopt(self, other: "Span") -> None:
        """Fold a finished tree in as a child, merging same-named nodes."""
        mine = self.child(other.name)
        mine.seconds += other.seconds
        mine.calls += other.calls
        for name, amount in other.counters.items():
            mine.count(name, amount)
        for grandchild in other.children.values():
            mine.adopt(grandchild)

    @property
    def unattributed(self) -> float:
        """Seconds no child accounts for (negative: children overlapped)."""
        return self.seconds - sum(child.seconds
                                  for child in self.children.values())

    def to_dict(self) -> dict:
        data = {"name": self.name, "seconds": self.seconds,
                "calls": self.calls}
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.children:
            data["children"] = [child.to_dict()
                                for child in self.children.values()]
        return data

    def render(self) -> str:
        """Indented tree with each row's share of its parent."""
        lines = ["Span tree (wall seconds, share of parent):"]
        self._render(lines, 0, self.seconds)
        return "\n".join(lines)

    def _render(self, lines: list, depth: int, parent_seconds: float) -> None:
        label = self.name if self.calls <= 1 else f"{self.name} x{self.calls}"
        counters = " ".join(f"{name}={amount:,}"
                            for name, amount in self.counters.items())
        lines.append(_row(depth, label, self.seconds, parent_seconds)
                     + (f"  {counters}" if counters else ""))
        if self.children:
            for child in self.children.values():
                child._render(lines, depth + 1, self.seconds)
            lines.append(_row(depth + 1, "(unattributed)", self.unattributed,
                              self.seconds))


def _row(depth: int, label: str, seconds: float, parent: float) -> str:
    share = 100.0 * seconds / parent if parent > 0 else 0.0
    indent = "  " * depth
    return (f"  {indent}{label:<{max(34 - len(indent), 1)}s} "
            f"{seconds:9.4f} s {share:6.1f}%")


#: The span currently open in this context, or None.
current_span = _CURRENT.get


def span(name: str) -> Span:
    """A child of the current span (a fresh root when none is open)."""
    parent = _CURRENT.get()
    return parent.child(name) if parent is not None else Span(name)


@contextmanager
def scope(fallback: Span | None, name: str):
    """The span a step's work belongs under: the current one when open,
    else ``fallback`` re-entered (or a fresh root ``name``) for the block."""
    parent = _CURRENT.get()
    if parent is not None:
        yield parent
        return
    with fallback if fallback is not None else Span(name) as root:
        yield root


def stage_seconds(root: Span | None, stages: dict = TABLE_VI_STAGES) -> dict:
    """Sum each span's self time into its column (see :data:`TABLE_VI_STAGES`).

    Self time is a span's seconds minus its children's, floored at zero
    where children overlapped, so the columns partition the tree.  A
    column mapped to ``None`` excludes its subtree.
    """
    totals = {column: 0.0 for column in stages.values()
              if column is not None}

    def walk(node: Span, column) -> None:
        if node.name in stages:
            column = stages[node.name]
            if column is None:
                return
        if column is not None:
            totals[column] += max(node.unattributed, 0.0)
        for child in node.children.values():
            walk(child, column)

    if root is not None:
        walk(root, None)
    return totals
