"""In-memory tracing: spans at layer boundaries, counters for per-slot calls.

A wrapper replaces a function in the namespace of the module that calls it,
so the library itself is never edited.  Calls nest on one thread, so a stack
of open frames accumulates, for each frame, the time its children covered;
a frame's self time is its duration minus that covered time.

Functions called once per simulated slot are not given a span per call;
`Tracer.counted` keeps a call count and the total self time per job instead.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    job: int
    parent: int  # index into Tracer.spans, -1 at the top level
    start: float
    end: float
    self_s: float
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and per-job call aggregates until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        self.aggregates: dict[tuple[int, str], list] = {}  # -> [calls, self_s]
        self.job = -1
        self._covered = [0.0]  # child-covered time of each open frame
        self._open = [-1]  # span index of each open span

    @contextmanager
    def region(self, name: str):
        """Record a span around a block; yields the span's attribute dict."""

        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1]
        self._open.append(index)
        self._covered.append(0.0)
        info: dict = {}
        start = self.clock()
        try:
            yield info
        finally:
            end = self.clock()
            covered = self._covered.pop()
            self._covered[-1] += end - start
            self._open.pop()
            self.spans[index] = Span(
                name, self.job, parent, start, end, end - start - covered, info or None
            )

    def span(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        """Wrap ``fn`` so that each call records a span.

        ``attrs(args, kwargs, result)`` returns a dict stored on the span of
        each call that returned.
        """

        def wrapped(*args, **kwargs):
            with self.region(name) as info:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    info.update(attrs(args, kwargs, result))
                return result

        wrapped.__wrapped__ = fn
        return wrapped

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that each call adds to a per-job count and self time."""

        covered = self._covered
        clock = self.clock
        aggregates = self.aggregates

        def wrapped(*args, **kwargs):
            covered.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = covered.pop()
                covered[-1] += duration
                key = (self.job, name)
                entry = aggregates.get(key)
                if entry is None:
                    aggregates[key] = [1, duration - inner]
                else:
                    entry[0] += 1
                    entry[1] += duration - inner

        wrapped.__wrapped__ = fn
        return wrapped

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def calls(self, name: str) -> int:
        return sum(v[0] for (_, n), v in self.aggregates.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(v[1] for (_, n), v in self.aggregates.items() if n == name)


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit."""

    saved = []
    try:
        for owner, attribute, value in replacements:
            saved.append((owner, attribute, getattr(owner, attribute)))
            setattr(owner, attribute, value)
        yield
    finally:
        for owner, attribute, value in reversed(saved):
            setattr(owner, attribute, value)
