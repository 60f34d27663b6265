"""Traced runs: spans around each layer's public entry points.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces entry points
on their classes with wrappers that open a span, and :meth:`Tracer.arm`
re-binds the per-cluster hooks (GPU prolog/epilog and both nfqueue
handlers) through their public setters.  Each span records its name,
start, end and parent; a span's *self time* is its duration minus the
durations of its children.  The runner opens an ``op`` span around every
timed call, so inside an op the layers' self times plus the op span's
own self time (the unattributed part) add up to the op's total.
"""

from __future__ import annotations

import time

from repro.kernel.node import LinuxNode
from repro.kernel.process import ProcessTable
from repro.kernel.procfs import ProcFS
from repro.kernel.vfs import VFS
from repro.net.firewall import Firewall
from repro.net.stack import Connection, HostStack
from repro.obs.audit import AuditTrail
from repro.oracle.oracle import SeparationOracle
from repro.persist.recovery import PersistSpine
from repro.persist.store import MemoryRunStore
from repro.portal.gateway import Portal
from repro.sched.privatedata import SchedulerView
from repro.sched.scheduler import Scheduler
from repro.sim.engine import Engine

#: span name -> the (class, method names) it covers
ENTRY_POINTS = {
    "sched.dispatch": (Engine, ("step",)),
    "sched.submit": (Scheduler, ("submit",)),
    "sched.squeue": (SchedulerView, ("squeue",)),
    "kernel.spawn": (ProcessTable, ("spawn", "reap", "kill_job")),
    "kernel.pam": (LinuxNode, ("open_session",)),
    "kernel.procfs": (ProcFS, ("ps", "list_pids")),
    "kernel.vfs": (VFS, ("create", "chmod", "stat", "unlink", "listdir")),
    "net.connect": (HostStack, ("connect", "accept")),
    "net.send": (Connection, ("send", "recv")),
    "net.evaluate": (Firewall, ("evaluate",)),
    "net.evaluate_batch": (Firewall, ("evaluate_batch",)),
    "portal.connect": (Portal, ("connect",)),
    "oracle.check": (SeparationOracle,
                     tuple(n for n in vars(SeparationOracle)
                           if n.startswith("check_"))),
    "obs.audit": (AuditTrail, ("record",)),
    "persist.snapshot": (PersistSpine, ("snapshot",)),
}


class Tracer:
    """In-memory span recorder.

    Finished spans are kept as ``(name, start, end, parent)`` tuples, with
    ``parent`` the index of the enclosing span (-1 for a root), and are
    folded into per-name totals by :meth:`fold` at the end of each round.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.units: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        #: seconds inside ``op`` spans, the part no layer claimed, and the
        #: layers' self time inside them (the three reconcile)
        self.op_total_s = 0.0
        self.op_self_s = 0.0
        self.layer_in_op_s = 0.0

    def wrap(self, name: str, fn, units=None):
        """*fn* inside a span; ``units(args)`` counts work items."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        calls, unit_counts = self.calls, self.units
        calls.setdefault(name, 0)
        unit_counts.setdefault(name, 0)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                calls[name] += 1
                unit_counts[name] += 1 if units is None else units(args)
        return traced

    def fold(self) -> None:
        """Fold the recorded spans into per-name self times."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        in_op = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - child_s[i]
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            if name == "op":
                self.op_total_s += end - start
                self.op_self_s += own
                in_op[i] = True
            elif parent >= 0 and in_op[parent]:
                in_op[i] = True
                self.layer_in_op_s += own
        spans.clear()

    # -- wiring ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every class-level entry point (for this process)."""
        for name, (cls, methods) in ENTRY_POINTS.items():
            for method in methods:
                setattr(cls, method, self.wrap(name, getattr(cls, method)))

    def arm(self, cluster) -> None:
        """Wrap one cluster's hooks and nfqueue handlers."""
        sched = cluster.scheduler
        sched.prolog = self.wrap("gpu.prolog", sched.prolog)
        sched.epilog = self.wrap("gpu.epilog", sched.epilog)
        for host in cluster.fabric.hosts():
            fw = host.firewall
            if fw._nfqueue is not None:
                fw.bind_nfqueue(self.wrap("ubf.decide", fw._nfqueue))
            if fw._nfqueue_batch is not None:
                fw.bind_nfqueue_batch(self.wrap(
                    "ubf.batch", fw._nfqueue_batch,
                    units=lambda args: len(args[0])))

    def timing_store(self) -> MemoryRunStore:
        """An in-memory run store whose appends are spans."""
        store = MemoryRunStore()
        store.append = self.wrap("persist.append", store.append)
        return store
