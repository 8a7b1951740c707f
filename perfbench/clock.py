"""Host-speed calibration for the benchmark's end-to-end times.

On a shared host the speed of one CPU drifts by up to 2x within a
minute, so raw wall times of identical work spread far more than any
useful regression bound.  Every timed operation is therefore bracketed
by a fixed reference loop (pure-Python arithmetic, string formatting
and small NumPy distance kernels: the kinds of work the joins do), and
its wall time is rescaled to a host on which that loop takes
:data:`REFERENCE_S` seconds::

    normalised = wall * REFERENCE_S / reference_wall

The reference loop shares no code with the program, so a slower
program still reads slower; only the host's drift cancels.  Raw walls
stay in the report.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Nominal reference-loop wall time (s) that normalised times refer to.
REFERENCE_S = 0.05
#: A reference younger than this (s) still describes the host's speed.
REUSE_WITHIN_S = 0.1

_POINTS = np.random.default_rng(0).random((60, 2))


def reference_loop() -> float:
    """Run the fixed reference work once; returns its wall time.

    Its parts slow down by different factors on a contended host
    (pure-Python arithmetic ~1.5x, string formatting ~1.8x, small NumPy
    kernels ~1.3x); their mix is close to the joins'.
    """
    start = perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    "".join(f"{i:05d} {i + 1:05d}\n" for i in range(15_000))
    points = _POINTS
    for _ in range(60):
        diff = points[:, None, :] - points[None, :, :]
        np.nonzero(np.sqrt((diff * diff).sum(axis=-1)) < 0.1)
    return perf_counter() - start


class Clock:
    """Times operations and rescales them by the reference loops around them."""

    def __init__(self) -> None:
        #: Every reference-loop wall measured so far.
        self.references: list[float] = []
        self._last = None
        self._last_end = 0.0

    def reference(self) -> float:
        wall = reference_loop()
        self.references.append(wall)
        self._last = wall
        self._last_end = perf_counter()
        return wall

    def measure(self, fn, *args, **kwargs):
        """``(value, wall_s, factor)`` of one call bracketed by references.

        ``wall_s * factor`` is the call's normalised duration.  A reference
        that ended moments ago (the previous call's closing one) opens
        this call's bracket too.
        """
        if self._last is None or perf_counter() - self._last_end > REUSE_WITHIN_S:
            self.reference()
        before = self._last
        start = perf_counter()
        value = fn(*args, **kwargs)
        wall = perf_counter() - start
        after = self.reference()
        return value, wall, REFERENCE_S * 2 / (before + after)

    def scale(self) -> float:
        """Factor from raw to normalised seconds at the last reference."""
        if self._last is None:
            self.reference()
        return REFERENCE_S / self._last

    def median_reference(self) -> float:
        return statistics.median(self.references) if self.references else 0.0
