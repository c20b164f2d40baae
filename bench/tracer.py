"""Spans and counters recorded from outside ``csti``.

A patch point replaces a public name at the place its caller looks it up
(a module attribute or a class attribute) with a wrapper that records a
span: name, thread, start, end, parent span and the time its children
covered. Spans are kept in memory and written out when the run ends.
Counters are added under a lock, because the thread pool of ``run_csti``
calls traced functions from two threads at once.
"""

from __future__ import annotations

import csv
import functools
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "child")

    def __init__(self, name, thread, parent):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.child = 0.0  # seconds covered by child spans on the same thread
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Records spans and counters while its patch points are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, counts: dict) -> None:
        with self._lock:
            self.counts.update(counts)

    def _span(self, fn, name, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span = Span(name, threading.get_ident(), stack[-1] if stack else None)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                tracer.spans.append(span)
            if measure is not None:
                tracer.add(measure(args, kwargs, result))
            return result

        return traced

    def _counter(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patch(self, points, counted=()):
        """Install span wrappers on ``points`` and counters on ``counted``.

        ``points`` holds (owner, attribute, span name, measure) tuples, where
        ``measure(args, kwargs, result)`` returns counters to add, or is None.
        ``counted`` holds (owner, attribute, counter name) tuples. The
        original attributes are restored on exit, last patched first.
        """
        saved = []
        try:
            for owner, attr, name, measure in points:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._span(original, name, measure))
            for owner, attr, name in counted:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._counter(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        """One row per span; times in microseconds from the first span start."""
        spans = sorted(self.spans, key=lambda s: s.start)
        ids = {id(span): i for i, span in enumerate(spans)}
        threads = {}
        origin = spans[0].start if spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "thread", "name", "start_us", "end_us"])
            for i, span in enumerate(spans):
                writer.writerow([
                    i,
                    ids[id(span.parent)] if span.parent is not None else "",
                    threads.setdefault(span.thread, len(threads)),
                    span.name,
                    f"{(span.start - origin) * 1e6:.1f}",
                    f"{(span.end - origin) * 1e6:.1f}",
                ])
