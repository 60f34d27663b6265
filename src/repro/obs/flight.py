"""Per-node flight recorder: bounded recent history, dumped on incident.

Real clusters cannot keep every packet and every span forever; what the
paper's operators actually had when an incident surfaced was *recent*
state — the last window of UBF/PAM log lines on the affected node.  The
:class:`FlightRecorder` reproduces that operational reality: a bounded
ring of the most recent security events (global and per node) plus the
tracer's newest spans, automatically snapshotted into a
:class:`ForensicDump` the moment something forensically interesting
happens — an oracle violation, a node fence, an injected fault.

The recorder is fed the :class:`~repro.monitor.events.SecurityEventLog`
stream and every span telemetry opens (it never touches the enforcement
points), so open spans appear in dumps tagged ``"open": true`` — an
in-flight dispatch at fence time is precisely the evidence an
investigator wants.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.monitor.events import EventKind, SecurityEvent
from repro.obs.export import event_to_dict, span_to_dict
from repro.observer import Observer

#: Version stamped into every dump; bump on shape changes.
FLIGHT_SCHEMA_VERSION = 1


@dataclass
class ForensicDump:
    """One frozen snapshot of recent history around an incident.

    ``trigger`` is ``oracle-violation`` / ``node-fenced`` /
    ``fault-injected`` / ``manual``; ``node`` scopes the per-node event
    window (None for cluster-wide triggers).  All payloads are plain
    JSON-ready dicts so a dump survives the simulation that produced it.
    """

    dump_id: str
    time: float
    trigger: str
    node: str | None
    detail: str
    events: list[dict] = field(default_factory=list)
    node_events: list[dict] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    faults: list[dict] = field(default_factory=list)
    gpus: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation with the schema version stamped."""
        return {
            "type": "flight-dump",
            "v": FLIGHT_SCHEMA_VERSION,
            "dump_id": self.dump_id,
            "time": self.time,
            "trigger": self.trigger,
            "node": self.node,
            "detail": self.detail,
            "events": self.events,
            "node_events": self.node_events,
            "spans": self.spans,
            "faults": self.faults,
            "gpus": self.gpus,
        }

    def write(self, path: str) -> None:
        """Write the dump as pretty-printed JSON to *path*."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")


class FlightRecorder(Observer):
    """Bounded ring of recent events/spans with automatic incident dumps.

    ``capacity`` bounds each ring (the global event window, each node's
    window, and the span window) — memory is O(capacity × nodes seen),
    never O(run length).  Snapshot triggers, evaluated on the event-sink
    path:

    * an ``ORACLE`` event → ``oracle-violation`` dump,
    * a ``NODE_LIFECYCLE`` event whose detail starts with ``"fenced:"``
      (the scheduler's fence record) → ``node-fenced`` dump,
    * :meth:`fault_injected` (each injected fault) → ``fault-injected``
      dump.

    Dumps accumulate in ``dumps``; :meth:`snapshot` also serves manual
    capture.  The optional ``metrics`` set counts
    ``flight_dumps_total{trigger=...}``.
    """

    def __init__(self, clock: Callable[[], float] | None = None, *,
                 capacity: int = 256, faults=None,
                 metrics=None, gpu_state: Callable[[], list[dict]] | None
                 = None):
        if capacity < 1:
            raise ValueError("capacity must be a positive record count")
        self.clock: Callable[[], float] = clock if clock is not None \
            else (lambda: 0.0)
        self.capacity = capacity
        #: optional FaultInjector queried for active faults at dump time
        self.faults = faults
        #: optional MetricSet counting flight_dumps_total{trigger=}
        self.metrics = metrics
        #: optional callable returning per-GPU forensic summaries
        self.gpu_state = gpu_state
        self._ids = itertools.count(1)
        self._ring: deque[SecurityEvent] = deque(maxlen=capacity)
        self._node_rings: dict[str, deque[SecurityEvent]] = {}
        #: the newest spans opened (:meth:`span_started`), open ones too
        self._spans: deque = deque(maxlen=capacity)
        self.dumps: list[ForensicDump] = []

    # -- ingest -------------------------------------------------------------

    def observe_event(self, event: SecurityEvent) -> None:
        """Record a security event, snapshot when it triggers.

        The event enters the rings *before* any trigger fires, so the
        triggering event is always the last entry of its own dump's window.
        """
        self._ring.append(event)
        if event.node is not None:
            ring = self._node_rings.get(event.node)
            if ring is None:
                ring = self._node_rings[event.node] = deque(
                    maxlen=self.capacity)
            ring.append(event)
        if event.kind is EventKind.ORACLE:
            self.snapshot("oracle-violation", node=event.node,
                          detail=f"{event.target}: {event.detail}")
        elif (event.kind is EventKind.NODE_LIFECYCLE
              and event.detail.startswith("fenced:")):
            self.snapshot("node-fenced", node=event.node or event.target,
                          detail=event.detail)

    def span_started(self, span) -> None:
        """Keep *span* in the window (its end and tags fill in later)."""
        self._spans.append(span)

    def fault_injected(self, fault) -> None:
        """Snapshot the moment a fault is injected."""
        self.snapshot("fault-injected", node=fault.host,
                      detail=fault.describe())

    # -- capture ------------------------------------------------------------

    def node_window(self, node: str) -> list[SecurityEvent]:
        """The retained recent events of one node, oldest first."""
        return list(self._node_rings.get(node, ()))

    def snapshot(self, trigger: str = "manual", *, node: str | None = None,
                 detail: str = "") -> ForensicDump:
        """Freeze the current rings into a :class:`ForensicDump`.

        ``node`` scopes the per-node window (empty when the node has no
        retained events).  Faults and GPU state are sampled live at
        snapshot time; spans are the newest ``capacity`` started, open
        ones included.
        """
        dump = ForensicDump(
            dump_id=f"fd{next(self._ids):06d}",
            time=self.clock(),
            trigger=trigger,
            node=node,
            detail=detail,
            events=[event_to_dict(e) for e in self._ring],
            node_events=[event_to_dict(e)
                         for e in self._node_rings.get(node, ())]
            if node is not None else [],
            spans=[span_to_dict(s) for s in self._spans],
            faults=[{"kind": f.kind.value, "host": f.host,
                     "detail": f.describe()}
                    for f in self.faults.active()]
            if self.faults is not None else [],
            gpus=self.gpu_state() if self.gpu_state is not None else [],
        )
        self.dumps.append(dump)
        if self.metrics is not None:
            self.metrics.counter("flight_dumps_total",
                                 trigger=trigger).inc()
        return dump

    def dumps_for(self, trigger: str) -> list[ForensicDump]:
        """All dumps produced by one trigger kind, in capture order."""
        return [d for d in self.dumps if d.trigger == trigger]
