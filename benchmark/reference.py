"""A fixed reference chunk of work that calls nothing of the program.

On a shared host the speed the benchmark gets drifts by tens of percent
over tens of seconds, for most kinds of work at once.  A run interleaves
reference chunks with its operations and reports each call's time also in
units of the median chunk run around it, which cancels most of that
drift; a change to the program moves the ratio as much as the wall time,
since the chunk never touches the program.

The chunk mixes the kinds of work the workloads do: interpreted Python
arithmetic, many calls on 2x2 numpy arrays, whole-array numpy passes over
arrays larger than the L2 cache, and float-to-text rendering.  It writes its
large arrays into buffers allocated once, and runs with the garbage collector
off, so that its time does not depend on the heap the operations leave.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

_SMALL = np.array([[0.75, 0.25], [0.4, 0.6]])
_LARGE = np.linspace(0.0, 1.0, 1 << 19)
_BUFFER = np.empty_like(_LARGE)
_TEXT = _LARGE[:2000].tolist()
_expected = None

# Chunks take about this share of the operations' time.
SHARE = 0.15
# Fewest chunks an operation's time is set against.
NEAREST = 20


def _work() -> float:
    total = 0.0
    for k in range(15_000):
        total += (k % 7) * 0.5 - (k % 3) * 0.25
    m = _SMALL
    for _ in range(250):
        m = _SMALL @ m
        total += float(np.linalg.eigvalsh(m @ m.T)[1])
    for _ in range(3):
        np.multiply(_LARGE, _LARGE, out=_BUFFER)
        np.add(_BUFFER, 1.0, out=_BUFFER)
        np.sqrt(_BUFFER, out=_BUFFER)
        total += float(_BUFFER.sum())
    total += len(",".join(repr(x) for x in _TEXT))
    return total


def chunk() -> float:
    """Run one reference chunk and return its wall time in seconds."""
    global _expected
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        value = _work()
        seconds = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if _expected is None:
        _expected = value
    elif value != _expected:
        raise RuntimeError(f"reference chunk returned {value!r}, expected {_expected!r}")
    return seconds


class Interleaver:
    """Runs reference chunks between operations, so that their total time
    stays about ``SHARE`` of the operations' total time, and gives each
    operation the median of the chunks run around it."""

    def __init__(self):
        self.op_seconds = 0.0
        self.ref_seconds = 0.0
        self.samples: list[float] = []

    def after_op(self, seconds: float) -> tuple[int, int]:
        """Account for an operation that just ended and run the chunks it is
        owed.  Returns the chunks it owed, as (first, end) indices."""
        first = len(self.samples)
        self.op_seconds += seconds
        while self.ref_seconds < SHARE * self.op_seconds:
            sample = chunk()
            self.ref_seconds += sample
            self.samples.append(sample)
        return first, len(self.samples)

    def local(self, owed: tuple[int, int]) -> float:
        """Median of the chunks around an operation: as many before it as
        after it, at least ``NEAREST`` in all, and at least twice the chunks
        it owed, so that a long operation is set against a long stretch of
        reference time.  Near the ends of the run the window slides
        inwards."""
        first, end = owed
        count = min(len(self.samples), max(NEAREST, 2 * (end - first)))
        start = min(max(0, first - count // 2), len(self.samples) - count)
        return statistics.median(self.samples[start:start + count])
