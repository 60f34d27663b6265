"""Lightweight tracing spans over the simulation clock.

A :class:`Span` is one timed operation (a job's queue wait, a UBF decision,
a portal forward); spans nest through ``parent_id`` and share a ``trace_id``
with their root, so one job's submit → schedule → prolog → run → epilog
chain reads as a single trace.  Timestamps come from whatever clock the
:class:`Tracer` is built with — in a cluster that is the sim engine's
virtual ``now``, so span durations are exact, not sampled.

IDs are deterministic (monotone counters, no randomness), matching the
repo-wide reproducibility rule: two identical runs produce byte-identical
span exports.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Iterator


class Span:
    """One timed, tagged operation within a trace.

    IDs are held as integers and rendered (``t000001``/``s000001``) only
    when read — span *creation* is on the scheduler's and UBF's hot path,
    so the constructor does no string formatting (the E15 telemetry
    benchmark budgets the whole start+finish pair at ~1-2 us).
    """

    __slots__ = ("_trace_num", "_span_num", "_parent_num", "name",
                 "start", "end", "tags")

    def __init__(self, trace_num: int, span_num: int,
                 parent_num: int | None, name: str, start: float,
                 tags: dict[str, object]):
        self._trace_num = trace_num
        self._span_num = span_num
        self._parent_num = parent_num
        self.name = name
        self.start = start
        self.end: float | None = None
        self.tags = tags

    @property
    def trace_id(self) -> str:
        return f"t{self._trace_num:06d}"

    @property
    def span_id(self) -> str:
        return f"s{self._span_num:06d}"

    @property
    def parent_id(self) -> str | None:
        if self._parent_num is None:
            return None
        return f"s{self._parent_num:06d}"

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length; 0.0 while the span is still open."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_tag(self, key: str, value: object) -> "Span":
        self.tags[key] = value
        return self

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (stable key order).

        An in-flight span carries ``"open": true`` — ``duration`` reads
        0.0 while open, so without the flag an exported open span would be
        indistinguishable from a zero-length finished one.
        """
        d: dict[str, object] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "tags": dict(self.tags),
        }
        if self.end is None:
            d["open"] = True
        return d

    def __repr__(self) -> str:  # pragma: no cover
        state = f"{self.start}..{self.end}" if self.end is not None \
            else f"{self.start}.."
        return f"Span({self.span_id} {self.name!r} [{state}] {self.tags})"


class Tracer:
    """Span factory + in-memory store for one run.

    ``start_span`` with no parent opens a new trace; with a parent the child
    joins the parent's trace.  All spans (open and finished) are kept in
    ``spans`` in start order.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock: Callable[[], float] = clock if clock is not None \
            else (lambda: 0.0)
        self.spans: list[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    def start_span(self, name: str, *, parent: Span | None = None,
                   **tags: object) -> Span:
        return self.open_span(name, parent, tags)

    def open_span(self, name: str, parent: Span | None,
                  tags: dict[str, object]) -> Span:
        """:meth:`start_span` with the tags passed as a dict, which the
        span keeps as its own (the caller builds a fresh one)."""
        if parent is not None:
            trace_num, parent_num = parent._trace_num, parent._span_num
        else:
            trace_num, parent_num = next(self._trace_ids), None
        span = Span(trace_num, next(self._span_ids), parent_num, name,
                    self.clock(), tags)
        self.spans.append(span)
        return span

    def finish(self, span: Span, **tags: object) -> Span:
        if tags:
            span.tags.update(tags)
        span.end = self.clock()
        return span

    @contextmanager
    def span(self, name: str, *, parent: Span | None = None,
             **tags: object) -> Iterator[Span]:
        """Context manager: the span covers the block; an exception leaving
        the block is recorded as an ``error`` tag (and re-raised)."""
        s = self.start_span(name, parent=parent, **tags)
        try:
            yield s
        except BaseException as exc:
            s.tags["error"] = type(exc).__name__
            raise
        finally:
            self.finish(s)

    # -- queries -----------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s.end is not None]

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def trace(self, trace_id: str) -> list[Span]:
        """All spans of one trace, in start order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def traces(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.trace_id, []).append(s)
        return out
