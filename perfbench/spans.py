"""Spans recorded from outside the program, around calls into its layers.

Nothing here changes the program: :meth:`Spans.timed` wraps a public
function or bound method, :func:`patched` swaps a module or class
attribute for the wrapped version while a block runs, and
:class:`TimedTextSink` is a ``TextSink`` that also times its own calls.

A span's *self* time is its duration minus the spans it caused on the
same thread.  Work an executor thread does for a client waiting on it
is charged to the client's span through ``adopt_into``.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
from collections import defaultdict
from time import perf_counter

from repro.core.results import TextSink

#: span name -> layer whose self time it counts toward.  A span's layer
#: is the module family that does its work, which is not always the
#: prefix of the metric it feeds.
SPAN_LAYER = {
    "index.build": "index",
    "index.pack": "index",
    "index.insert_load": "index",
    "index.range_query": "index",
    "index.insert": "index",
    "index.delete": "index",
    "core.prune": "core",
    "core.leaf": "core",
    "core.merge": "core",
    "io.sink": "io",
    "shard.state": "shard",
    "shard.sort": "shard",
    "shard.replay": "shard",
    "shard.discover": "parallel",
    "parallel.publish": "parallel",
    "parallel.task_state": "parallel",
    "service.register": "service",
    "service.submit": "service",
    "service.request": "service",
    "service.fingerprint": "service",
    "service.miss_join": "core",
    "dynamic.materialize": "dynamic",
    "dynamic.insert": "dynamic",
    "dynamic.delete": "dynamic",
}


class Spans:
    """Per-name call count, total and child time, plus per-call samples."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: name -> [(duration, self time)] per call.
        self.samples: dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, dt: float, child: float, adopt_into) -> None:
        stack = self._stack()
        with self._lock:
            self.total[name] += dt
            self.child[name] += child
            self.calls[name] += 1
            self.samples[name].append((dt, dt - child))
            if not stack and adopt_into is not None:
                self.child[adopt_into] += dt
        if stack:
            stack[-1] += dt

    def timed(self, name: str, fn, adopt_into: str = None):
        """``fn`` wrapped so that every call records one ``name`` span."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                self._close(name, dt, stack.pop(), adopt_into)

        return wrapper

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Record time measured inline by a hot loop as ``name``."""
        with self._lock:
            self.total[name] += seconds
            self.calls[name] += calls
        stack = self._stack()
        if stack:
            stack[-1] += seconds

    def self_time(self, name: str) -> float:
        return self.total.get(name, 0.0) - self.child.get(name, 0.0)

    def median(self, name: str, self_only: bool = False) -> float:
        """Median per-call duration (or self time) of ``name``; 0 if never called."""
        samples = self.samples.get(name)
        if not samples:
            return 0.0
        return statistics.median(s[1] if self_only else s[0] for s in samples)

    def layer_self(self) -> dict[str, float]:
        """Self time per layer, summed over its spans."""
        out: dict[str, float] = defaultdict(float)
        for name in self.total:
            out[SPAN_LAYER[name]] += self.self_time(name)
        return dict(out)

    def table(self) -> list[dict]:
        """All spans as plain records, for the trace file."""
        return [
            {
                "name": name,
                "layer": SPAN_LAYER[name],
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time(name),
            }
            for name in sorted(self.total)
        ]


@contextlib.contextmanager
def patched(owner, attr: str, value):
    """Set ``owner.attr`` to ``value`` for the duration of the block."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class TimedTextSink(TextSink):
    """A ``TextSink`` that also sums the time of its own write and close calls.

    The bytes it writes are exactly ``TextSink``'s: every override calls
    the parent method unchanged.
    """

    def __init__(self, target, stats=None, id_width: int = 8):
        super().__init__(target, stats, id_width)
        self.busy = 0.0
        self.calls = 0

    def write_link(self, i, j) -> None:
        start = perf_counter()
        super().write_link(i, j)
        self.busy += perf_counter() - start
        self.calls += 1

    def write_links(self, ids_i, ids_j) -> None:
        start = perf_counter()
        super().write_links(ids_i, ids_j)
        self.busy += perf_counter() - start
        self.calls += 1

    def write_group(self, ids) -> None:
        start = perf_counter()
        super().write_group(ids)
        self.busy += perf_counter() - start
        self.calls += 1

    def close(self) -> None:
        start = perf_counter()
        super().close()
        self.busy += perf_counter() - start
        self.calls += 1
