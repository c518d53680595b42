"""Spans around the harness's calls into the package.

A span records one public call (or a batch of identical calls, with
``count``) made by the harness: its name, start, end, parent span and the
case it belongs to.  Spans stay in memory and are written out when the run
ends.  A layer's self time is its span minus the child spans under it.

Some layers cannot be reached from outside while the call that contains
them runs (``element_shapes`` inside ``assemble_steady``, say).  The traced
run then calls that layer again on its own, right after the containing
call, and files the replayed span as a child of the span it decomposes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    case: str
    pass_index: int
    parent: int | None
    count: int
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps the wall time of every call made with a ``category``, traced or
    not, as (pass, case, name, category, seconds, reference seconds); with
    ``trace`` on, also keeps a span for every call.

    ``reference`` times a fixed kernel; it runs right before and after each
    categorized call, and the mean of the two is the call's reference
    time.  Dividing by it cancels most of the drift in machine speed."""

    def __init__(self, trace: bool, reference: Callable[[], float] | None = None):
        self.trace = trace
        self.reference = reference
        self.spans: list[Span] = []
        self.timings: list[tuple[int, str, str, str, float, float]] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.pass_index = 0
        self._open: list[Span] = []
        self._last_reference: float | None = None
        self.replay_errors: set[str] = set()

    def add(self, name: str, value: float) -> None:
        self.counts[self.pass_index, name] += value

    def peak(self, name: str, value: float) -> None:
        key = (self.pass_index, name)
        self.counts[key] = max(self.counts[key], value)

    @contextmanager
    def span(self, name: str, case: str, category: str | None = None,
             count: int = 1, parent: Span | None = None):
        span = None
        if category is not None and self.reference and self._last_reference is None:
            self._last_reference = self.reference()
        if self.trace:
            if parent is None and self._open:
                parent = self._open[-1]
            span = Span(len(self.spans), name, case, self.pass_index,
                        None if parent is None else parent.id, count)
            self.spans.append(span)
            self._open.append(span)
        start = time.perf_counter()
        try:
            yield span
        finally:
            end = time.perf_counter()
            if category is not None:
                reference = 1.0
                if self.reference:
                    after = self.reference()
                    reference = 0.5 * (self._last_reference + after)
                    self._last_reference = after
                self.timings.append(
                    (self.pass_index, case, name, category, end - start, reference))
            else:  # work outside the timed calls: the next call measures afresh
                self._last_reference = None
            if span is not None:
                span.start, span.end = start, end
                self._open.pop()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its direct children."""
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    return {s.id: s.duration - children[s.id] for s in spans}
