"""Host-speed calibration: a fixed interpreter-bound kernel and the
reference-unit arithmetic built on it.

The benchmark host is a shared KVM guest whose speed drifts with what
runs on the sibling hardware thread; neither CPU time nor instruction
counts remove that drift.  A fixed pure-Python kernel (a heap, a dict and
small objects, the same kinds of work the simulator does) is timed
between slices of the workload, and every workload time is reported in
*reference units*::

    reference time = wall time x (KERNEL_REF_S / kernel time measured now)

The kernel always runs with the cyclic garbage collector disabled:
otherwise a gen-2 collection of the program's heap lands inside it and a
program that retains more memory makes the host look slower.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: nominal kernel duration that defines one reference second
KERNEL_REF_S = 0.005
#: workload time between two kernel runs
SLICE_S = 0.030
_KERNEL_N = 2_400


class _Cell:
    __slots__ = ("key", "count", "next")

    def __init__(self, key: int, count: int, nxt):
        self.key = key
        self.count = count
        self.next = nxt


def kernel() -> int:
    """The fixed work unit; returns a checksum so nothing is elided."""
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    head = None
    x = 12345
    for i in range(_KERNEL_N):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 0x3FF
        heapq.heappush(heap, (key, i))
        counts[key] = counts.get(key, 0) + 1
        head = _Cell(key, counts[key], head)
    total = 0
    while heap:
        key, i = heapq.heappop(heap)
        total += counts[key] ^ i
    while head is not None:
        total += head.count
        head = head.next
    return total


def time_kernel() -> float:
    """Wall seconds of one kernel run, with the collector off meanwhile."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Calibrator:
    """Interleaves kernel runs with the workload and normalises its times.

    Workload time is cut into slices of about :data:`SLICE_S`.  A slice's
    samples are scaled by the mean of the kernel runs on either side of
    it, so a slow patch of host time is judged against a kernel that ran
    through the same patch.  Kernel time itself is never inside a sample.
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = [time_kernel()]
        self.raw_s = 0.0          # un-normalised workload seconds
        self.ref_s = 0.0          # the same seconds in reference units
        self.latencies: list[float] = []   # reference seconds per call
        self.ops = 0
        self._slice: list[float] = []
        self._slice_s = 0.0
        self._slice_ops = 0

    def add(self, seconds: float, ops: int, samples: int = 1) -> None:
        """Record one timed call that completed *ops* operations, as
        *samples* equal latency samples."""
        if samples == 1:
            self._slice.append(seconds)
        else:
            self._slice.extend([seconds / samples] * samples)
        self._slice_s += seconds
        self._slice_ops += ops
        if self._slice_s >= SLICE_S:
            self.flush()

    def flush(self) -> None:
        """Close the current slice with a fresh kernel run."""
        if not self._slice:
            return
        before = self.kernel_s[-1]
        after = time_kernel()
        self.kernel_s.append(after)
        factor = KERNEL_REF_S / ((before + after) / 2)
        self.latencies.extend(s * factor for s in self._slice)
        self.raw_s += self._slice_s
        self.ref_s += self._slice_s * factor
        self.ops += self._slice_ops
        self._slice = []
        self._slice_s = 0.0
        self._slice_ops = 0

    def timed(self, fn) -> float:
        """Reference seconds of ``fn()``, run between two kernel runs
        (set-up is timed this way, as one block)."""
        self.flush()
        before = self.kernel_s[-1]
        t0 = time.perf_counter()
        fn()
        seconds = time.perf_counter() - t0
        after = time_kernel()
        self.kernel_s.append(after)
        return seconds * KERNEL_REF_S / ((before + after) / 2)

    @property
    def factor(self) -> float:
        """Run-level calibration factor (reference s per wall s)."""
        return KERNEL_REF_S / statistics.median(self.kernel_s)
