"""In-memory spans around srpc's public functions, recorded from outside.

A :class:`Tracer` rebinds a public function under the name its caller
looks it up by (``srpc.solver.hadamard_rows``, ``srpc.cli.read_graph``,
...), so the program itself is unchanged.  Each span keeps its name,
start, end, parent span and trial id; spans stay in memory and are written
once when the run ends.  A span's self time is the time it was active
minus the part of that time its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "trial", "start", "end", "busy", "attrs")

    def __init__(self, span_id, name, parent, trial, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.trial = trial
        self.start = start
        self.end = start
        self.busy = 0.0  # seconds the span was active; end - start except for generators
        self.attrs = {}

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "trial": self.trial, "start": self.start, "end": self.end,
                "busy": self.busy, "attrs": self.attrs}


class Tracer:
    """Span recorder plus the function patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.trial = None
        self.root = None  # parent for spans opened on a thread with no open span

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        # Spans may open on several threads: next() on a count and list.append
        # are single calls into C, so they need no lock.
        stack = self._stack()
        parent = stack[-1].id if stack else self.root
        span = Span(next(self._ids), name, parent, self.trial, time.perf_counter())
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        stack = self._stack()
        stack.append(sp)
        try:
            yield sp
        finally:
            stack.pop()
            sp.end = time.perf_counter()
            sp.busy = sp.end - sp.start

    @contextmanager
    def trial_span(self, trial_id):
        """Root span of one trial; spans opened on worker threads hang off it."""
        self.trial = trial_id
        with self.span("trial") as sp:
            self.root = sp.id
            try:
                yield sp
            finally:
                self.root = None

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` traced as ``name``; ``on_result(span, args, kwargs, result)`` adds attrs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if on_result is not None:
                # A span of its own, so the hook's cost is not charged to the caller's self time.
                with self.span("trace.hook"):
                    on_result(sp, args, kwargs, result)
            return result
        return traced

    def wrap_generator(self, fn, name: str):
        """A generator function traced as one span that is active only inside ``next``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name)
            stack = self._stack()
            gen = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(sp)
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        now = time.perf_counter()
                        sp.busy += now - t0
                        sp.end = now
                    yield item
            finally:
                gen.close()
        return traced

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_dict()) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> active time minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return {sp.id: sp.busy - _covered(children.get(sp.id, [])) for sp in spans}


def has_ancestor(span: Span, by_id: dict[int, Span], predicate) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if predicate(parent):
            return True
        parent = by_id.get(parent.parent)
    return False
