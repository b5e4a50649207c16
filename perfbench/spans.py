"""In-memory spans around calls into the program, installed from outside it.

A span is (name, start, end, parent). Wrappers are set on module or class
attributes for the duration of a ``with`` block and always put back, so a
traced run leaves the program exactly as it found it. Self time of a span
is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    """Spans and named counters of one traced body, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), float("nan"), parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def calls(self) -> Counter[str]:
        return Counter(s.name for s in self.spans)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - _covered(s.start, s.end, children.get(i, ()))
    return dict(out)


def _covered(start: float, end: float, kids: Iterable[Span]) -> float:
    """Length of [start, end] covered by the union of the kids' intervals."""
    total = 0.0
    reach = start
    for k in sorted(kids, key=lambda k: k.start):
        lo, hi = max(k.start, reach), min(k.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap: ``owner.attr`` becomes a span named ``span``.

    ``count`` is called after each call with the tracer's counters, the
    call's positional arguments and its result.
    """

    owner: object
    attr: str
    span: str
    count: Callable[[Counter, tuple, object], None] | None = None


Wrapper = Callable[[Probe, Callable], Callable]


@contextmanager
def installed(probes: Iterable[Probe], make: Wrapper) -> Iterator[list[Probe]]:
    """Replace each probed attribute by ``make(probe, original)`` and restore it.

    Probes whose attribute does not exist are skipped; the block receives
    the list of probes actually installed.
    """
    saved: list[tuple[Probe, Callable]] = []
    try:
        for p in probes:
            original = getattr(p.owner, p.attr, None)
            if original is None:
                continue
            setattr(p.owner, p.attr, make(p, original))
            saved.append((p, original))
        yield [p for p, _ in saved]
    finally:
        for p, original in reversed(saved):
            setattr(p.owner, p.attr, original)


def tracing(tracer: Tracer) -> Wrapper:
    """Wrapper factory recording one span (and its counters) per call."""

    def make(probe: Probe, fn: Callable) -> Callable:
        name, count = probe.span, probe.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    return make


def stamping(marks: list[float], clock: Callable[[], float] = perf_counter) -> Wrapper:
    """Wrapper factory appending ``clock()`` to ``marks`` at each call."""

    def make(probe: Probe, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            marks.append(clock())
            return fn(*args, **kwargs)

        return wrapper

    return make
