"""Minimal discrete-event simulation engine.

The scheduler experiments (E4, E16) need virtual time: job arrivals,
dispatches and completions are events on a priority queue.  The engine is
deliberately tiny — a monotonic clock plus a heap — because the paper's
mechanisms are policy functions, not timing-sensitive protocols.  Events at
equal timestamps fire in insertion order (a sequence number breaks ties), so
runs are fully deterministic.

The heap holds ``(time, seq, event)`` tuples: ``heapq`` orders them with
the interpreter's own tuple comparison, and the unique ``seq`` settles
every tie before the event itself would be compared.  The event is the
handle :meth:`Engine.at` returns, which :meth:`Engine.cancel` tombstones.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class _Event:
    """A scheduled action: the handle :meth:`Engine.at` returns."""

    __slots__ = ("time", "action", "cancelled", "done")

    def __init__(self, time: float, action: Callable[[], None]):
        self.time = time
        self.action = action
        self.cancelled = False
        self.done = False


class Engine:
    """Event loop: schedule callables at absolute or relative virtual times."""

    def __init__(self):
        #: virtual time; only :meth:`_advance` moves it, never backwards
        self.now = 0.0
        #: ``(time, seq, event)`` entries (see the module docstring)
        self._heap: list[tuple[float, int, _Event]] = []
        self._seq = itertools.count()
        self.events_processed = 0
        #: cancelled events still sitting in the heap.  ``pending`` is then
        #: O(1) (len(heap) - this) instead of a full heap scan; the heap is
        #: compacted once cancelled entries outnumber live ones.
        self._cancelled_in_heap = 0
        #: completed amortized compaction sweeps (observability + the
        #: cancel-storm regression test assert on this)
        self.compactions = 0

    def at(self, time: float, action: Callable[[], None]) -> _Event:
        """Schedule *action* at absolute virtual time *time*."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        self._maybe_compact()
        ev = _Event(time, action)
        heapq.heappush(self._heap, (time, next(self._seq), ev))
        return ev

    def after(self, delay: float, action: Callable[[], None]) -> _Event:
        """Schedule *action* *delay* time units from now."""
        if delay < 0:
            raise ValueError("negative delay")
        return self.at(self.now + delay, action)

    def cancel(self, event: _Event) -> None:
        """Cancel a scheduled event (idempotent; no-op once it has fired).

        Strictly O(1): the event is tombstoned and counted, nothing else.
        Tombstone compaction is an *amortized sweep* run from the schedule/
        drain boundaries (:meth:`at`, :meth:`run`, :meth:`step`) — a cancel
        storm (node churn requeueing thousands of jobs) therefore never
        pays a synchronous full-heap rebuild inside the cancel path itself.
        """
        if event.cancelled or event.done:
            return
        event.cancelled = True
        self._cancelled_in_heap += 1

    def _maybe_compact(self) -> None:
        """Amortized sweep: rebuild the heap once tombstones dominate.

        The O(live + cancelled) rebuild only triggers after at least
        ``len(heap) // 2`` cancels accumulated since the last sweep, so its
        cost amortizes to O(1) per cancel while keeping the heap — and every
        subsequent push/pop — proportional to *live* events.
        """
        if self._cancelled_in_heap > len(self._heap) // 2 \
                and self._cancelled_in_heap > 32:
            self._compact()

    def _advance(self, t: float) -> None:
        if t < self.now:
            raise ValueError(f"time cannot run backwards: {t} < {self.now}")
        self.now = t

    def _compact(self) -> None:
        self._heap = [e for e in self._heap if not e[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.compactions += 1

    def run(self, until: float | None = None) -> float:
        """Process events in order until the heap drains or *until* passes.

        Returns the final clock value.
        """
        self._maybe_compact()
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self._advance(until)
                return self.now
            t, _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._advance(t)
            self.events_processed += 1
            ev.done = True
            ev.action()
        if until is not None and until > self.now:
            self._advance(until)
        return self.now

    def step(self) -> bool:
        """Process exactly one event; False when the heap is empty."""
        self._maybe_compact()
        while self._heap:
            t, _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._advance(t)
            self.events_processed += 1
            ev.done = True
            ev.action()
            return True
        return False

    @property
    def pending(self) -> int:
        """Live (not-yet-fired, not-cancelled) events — O(1)."""
        return len(self._heap) - self._cancelled_in_heap
