"""Per-tenant append-only audit trail with causal attribution.

Every enforcement verdict in the simulated cluster — UBF accept/deny, PAM
refusal, filesystem/procfs/GPU/portal denial, scheduler decision, oracle
violation, node fencing — lands here as one :class:`AuditRecord` carrying
``(trace_id, uid, job_id, node, mechanism)``.  The trail is the queryable
half of the paper's operational story: when the staff reconstructed the
CVE-2020-27746 week they grepped UBF and PAM logs by hand; the
:class:`AuditTrail` makes the same walk a method call
(:meth:`AuditTrail.chain`, :meth:`AuditTrail.resolution`).

Records arrive from two directions and never overlap:

* **Lifecycle roots** — the :class:`~repro.obs.context.AttributionRegistry`
  writes submit/dispatch/finish/login rows straight into the trail's row
  store (it knows the job, and it runs on the scheduler's hot path).
* **Decisions** — the trail is an :class:`~repro.observer.Observer` on the
  cluster's seam.  Every event the :class:`~repro.monitor.events.
  SecurityEventLog` records reaches :meth:`observe_event`; clean UBF
  accepts reach :meth:`ubf_verdict` (denies already arrive as events),
  forwarded portal requests :meth:`portal_forwarded`, and control-plane
  crashes and recoveries their own decisions.

The trail is append-only (records are frozen, ``seq`` is monotone) and
exports versioned JSONL (:data:`AUDIT_SCHEMA_VERSION`) for golden-file
tests and offline tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Callable, Iterator

from repro.monitor.events import EventKind, SecurityEvent
from repro.net.firewall import Verdict
from repro.net.ubf import DecisionReason
from repro.observer import Observer

#: Version stamped into every exported record; bump on shape changes.
AUDIT_SCHEMA_VERSION = 1

#: EventKind → (mechanism, action) for records derived from the event log.
_KIND_MAP: dict[EventKind, tuple[str, str]] = {
    EventKind.NET_DENY: ("ubf", "deny"),
    EventKind.PAM_DENY: ("pam", "deny"),
    EventKind.FS_DENY: ("vfs", "deny"),
    EventKind.PROC_DENY: ("procfs", "deny"),
    EventKind.SCHED_DENY: ("sched", "deny"),
    EventKind.GPU_DENY: ("gpu", "deny"),
    EventKind.PORTAL_DENY: ("portal", "deny"),
    EventKind.ADMIN: ("admin", "escalate"),
    EventKind.DEGRADED: ("ubf", "degraded"),
    EventKind.ORACLE: ("oracle", "violation"),
    EventKind.NODE_LIFECYCLE: ("node", "lifecycle"),
    EventKind.ALERT: ("alert", "fire"),
    EventKind.ATTACK: ("attack", "probe"),
}

#: Raw-row opcodes: the first field of every row in the flat
#: ``AuditTrail._raw`` list.  Rows are stored as consecutive scalars
#: (opcode, then ``_OP_WIDTH[op] - 1`` fields) rather than per-row tuples:
#: scalars are invisible to CPython's cyclic GC, so a long run's
#: accumulated trail neither triggers extra collections nor adds
#: per-collection traversal cost (part of the E26 < 5% overhead budget).
#: Appends go through ``raw += (<row>)`` — the temporary tuple is freed
#: immediately, netting zero GC-counter pressure.
_OP_GENERIC, _OP_SUBMIT, _OP_DISPATCH, _OP_GPU, _OP_FINISH, \
    _OP_REQUEUE, _OP_LOGIN = range(7)

#: Fields per row, including the opcode itself.
_OP_WIDTH = {_OP_GENERIC: 10, _OP_SUBMIT: 8, _OP_DISPATCH: 8, _OP_GPU: 7,
             _OP_FINISH: 7, _OP_REQUEUE: 6, _OP_LOGIN: 7}


@dataclass(frozen=True)
class AuditRecord:
    """One immutable audit-trail entry.

    ``trace_id`` links the record to its causal root (the submit/login
    record of the same attribution context); ``seq`` is the trail-wide
    append order, so ``sorted(records, key=lambda r: r.seq)`` is always
    the true recording order even among equal timestamps.
    """

    seq: int
    time: float
    mechanism: str            # ubf / pam / vfs / sched / gpu / portal / ...
    action: str               # deny / allow / submit / dispatch / ...
    uid: int
    job_id: int | None
    node: str | None
    trace_id: str | None
    target: str
    detail: str

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation with the schema version stamped."""
        return {
            "type": "audit",
            "v": AUDIT_SCHEMA_VERSION,
            "seq": self.seq,
            "time": self.time,
            "mechanism": self.mechanism,
            "action": self.action,
            "uid": self.uid,
            "job_id": self.job_id,
            "node": self.node,
            "trace_id": self.trace_id,
            "target": self.target,
            "detail": self.detail,
        }


class AuditTrail(Observer):
    """Append-only store of :class:`AuditRecord` with per-key indexes.

    When a :class:`~repro.obs.context.AttributionRegistry` is attached,
    :meth:`record` back-fills missing ``job_id``/``trace_id`` by resolving
    ``(uid, node)`` against the live-job index at record time — decision
    time, not query time, so later job churn cannot mis-attribute.

    Recording is two-phase to keep the scheduler's hot path cheap (the
    E26 < 5% overhead budget): appends land as raw tuples; the frozen
    :class:`AuditRecord` objects and the per-key indexes are materialised
    lazily, each row exactly once, on the first query/export that needs
    them.  Attribution is still resolved at append time — only the object
    construction is deferred, never the causal facts.
    """

    def __init__(self, clock: Callable[[], float] | None = None,
                 registry=None):
        self.clock: Callable[[], float] = clock if clock is not None \
            else (lambda: 0.0)
        #: optional AttributionRegistry used to resolve uid+node → context
        self.registry = registry
        #: flat scalar row store (see the ``_OP_*`` docs); ``_n`` counts
        #: rows, ``_pos`` is :meth:`_sync`'s read cursor into the list
        self._raw: list = []
        self._n = 0
        self._pos = 0
        self._records: list[AuditRecord] = []
        self._by_uid: dict[int, list[int]] = {}
        self._by_job: dict[int, list[int]] = {}
        self._by_node: dict[str, list[int]] = {}
        self._by_mechanism: dict[str, list[int]] = {}
        self._by_trace: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return self._n

    @property
    def records(self) -> list[AuditRecord]:
        """All records, in append order (materialises pending rows)."""
        self._sync()
        return self._records

    def _sync(self) -> None:
        """Materialise raw rows into records and update every index.

        Raw rows are consecutive scalars in the flat ``_raw`` list, each
        led by an opcode (see the ``_OP_*`` constants): the generic row
        carries its strings verbatim; the lifecycle opcodes appended by
        the registry's hot path carry only the facts, and their
        mechanism/action/target/detail strings are rendered here — once
        per row, off the scheduler's critical path.
        """
        raw, recs = self._raw, self._records
        pos, end = self._pos, len(raw)
        if pos == end:
            return
        by_uid, by_job, by_node = self._by_uid, self._by_job, self._by_node
        by_mech, by_trace = self._by_mechanism, self._by_trace
        seq = len(recs)
        while pos < end:
            op = raw[pos]
            if op == _OP_GENERIC:
                (time, mechanism, action, uid, job_id, node, trace_id,
                 target, detail) = raw[pos + 1:pos + 10]
            elif op == _OP_SUBMIT:
                time, uid, job_id, trace_num, name, ntasks, part = \
                    raw[pos + 1:pos + 8]
                mechanism, action, node = "sched", "submit", None
                trace_id = "a%06d" % trace_num
                target = "job%d" % job_id
                detail = "user=%s ntasks=%d partition=%s" % (name, ntasks,
                                                             part)
            elif op == _OP_DISPATCH:
                time, uid, job_id, node, trace_num, attempt, nodes = \
                    raw[pos + 1:pos + 8]
                mechanism, action = "sched", "dispatch"
                trace_id = "a%06d" % trace_num
                target = "job%d" % job_id
                detail = "attempt=%d nodes=%s" % (attempt, nodes)
            elif op == _OP_GPU:
                time, uid, job_id, node, trace_num, indices = \
                    raw[pos + 1:pos + 7]
                mechanism, action = "gpu", "assign"
                trace_id = "a%06d" % trace_num
                target = "%s:gpus" % node
                detail = "indices=%s" % indices
            elif op == _OP_FINISH:
                time, uid, job_id, node, trace_num, state = \
                    raw[pos + 1:pos + 7]
                mechanism, action = "sched", "finish"
                trace_id = "a%06d" % trace_num
                target = "job%d" % job_id
                detail = "state=%s" % state
            elif op == _OP_REQUEUE:
                time, uid, job_id, trace_num, attempt = raw[pos + 1:pos + 6]
                mechanism, action, node = "sched", "requeue", None
                trace_id = "a%06d" % trace_num
                target = "job%d" % job_id
                detail = "attempt=%d" % attempt
            else:  # _OP_LOGIN
                time, uid, node, trace_num, name, repeat = \
                    raw[pos + 1:pos + 7]
                mechanism, action, job_id = "session", "login", None
                trace_id = "a%06d" % trace_num
                target = node
                detail = "user=%s" % name + (" (repeat)" if repeat else "")
            pos += _OP_WIDTH[op]
            rec = AuditRecord(seq, time, mechanism, action, uid, job_id,
                              node, trace_id, target, detail)
            recs.append(rec)
            by_uid.setdefault(rec.uid, []).append(seq)
            if rec.job_id is not None:
                by_job.setdefault(rec.job_id, []).append(seq)
            if rec.node is not None:
                by_node.setdefault(rec.node, []).append(seq)
            by_mech.setdefault(rec.mechanism, []).append(seq)
            if rec.trace_id is not None:
                by_trace.setdefault(rec.trace_id, []).append(seq)
            seq += 1
        self._pos = pos

    # -- recording ----------------------------------------------------------

    def _append(self, time: float, mechanism: str, action: str, uid: int,
                job_id: int | None, node: str | None,
                trace_id: str | None, target: str, detail: str) -> None:
        """Hot-path append: attribution already known, no object survives
        beyond the scalar fields themselves.  The AttributionRegistry's
        lifecycle hooks bypass even this and extend ``_raw`` with
        opcode-specific rows directly (see :meth:`_sync`)."""
        self._raw += (_OP_GENERIC, time, mechanism, action, uid,
                      job_id, node, trace_id, target, detail)
        self._n += 1

    def _resolve(self, uid: int, job_id: int | None, node: str | None,
                 trace_id: str | None):
        """Back-fill missing attribution from the registry at decision
        time; an explicitly supplied ``job_id`` wins over the live index."""
        registry = self.registry
        if registry is None or uid < 0 or \
                (job_id is not None and trace_id is not None):
            return job_id, trace_id
        ctx = registry.jobs.get(job_id) if job_id is not None else None
        if ctx is None:
            ctx = registry.resolve(uid, node)
        if ctx is not None:
            if job_id is None:
                job_id = ctx.job_id
            if trace_id is None:
                trace_id = ctx.trace_id
        return job_id, trace_id

    def record(self, *, mechanism: str, action: str, uid: int,
               target: str, detail: str = "", job_id: int | None = None,
               node: str | None = None, trace_id: str | None = None,
               time: float | None = None) -> None:
        """Append one record, resolving attribution when not supplied.

        Like :meth:`observe_event`, nothing is materialised here: every
        query syncs first, so queries see the record immediately.
        """
        job_id, trace_id = self._resolve(uid, job_id, node, trace_id)
        self._append(self.clock() if time is None else time, mechanism,
                     action, uid, job_id, node, trace_id, target, detail)

    def observe_event(self, event: SecurityEvent) -> None:
        """Derive one audit record from a recorded security event.

        The mapping from
        :class:`EventKind` to ``(mechanism, action)`` is :data:`_KIND_MAP`
        (unknown kinds fall back to ``(kind.value, "event")`` rather than
        dropping the record — the trail must not lose verdicts).
        """
        mechanism, action = _KIND_MAP.get(
            event.kind, (event.kind.value, "event"))
        uid = event.subject_uid
        job_id, trace_id = self._resolve(uid, event.job_id, event.node,
                                         None)
        self._append(event.time, mechanism, action, uid, job_id,
                     event.node, trace_id, event.target, event.detail)

    def ubf_verdict(self, daemon, flow, uid, verdict, reason, code):
        """Record a clean UBF ACCEPT from the daemon's verdict chokepoint.

        Denies and degraded verdicts already reach the trail as security
        events, and recording them twice would double-count the denial
        posture; an unidentified initiator has no principal to record.
        """
        if uid is None or verdict is Verdict.DROP \
                or code is DecisionReason.DEGRADED:
            return
        node = flow.src_host
        job_id, trace_id = self._resolve(uid, None, node, None)
        self._append(self.clock(), "ubf", "allow", uid, job_id, node,
                     trace_id, f"{flow.dst_host}:{flow.dst_port}", reason)

    def portal_forwarded(self, portal, user, creds, app):
        self.record(
            mechanism="portal", action="allow", uid=user.uid,
            node=app.node.name, target=f"portal:app/{app.app_id}",
            detail=f"forwarded to {app.node.name}:{app.port}")

    def control_plane_crashed(self, seq):
        self.record(
            mechanism="recovery", action="crash", uid=0, target="scheduler",
            detail=f"control plane crashed at seq {seq}")

    def control_plane_recovered(self, cluster, report):
        self.record(
            mechanism="recovery", action="restore", uid=0,
            target="scheduler",
            detail=(f"replayed {report.replayed} records from seq "
                    f"{report.snapshot_seq}; generation "
                    f"{report.generation}; digest "
                    f"{'intact' if report.identical else 'DIVERGED'}"))

    # -- queries ------------------------------------------------------------

    def _pick(self, seqs: list[int] | None) -> list[AuditRecord]:
        self._sync()
        if not seqs:
            return []
        return [self._records[i] for i in seqs]

    def by_uid(self, uid: int) -> list[AuditRecord]:
        """All records attributed to *uid*, in append order."""
        self._sync()
        return self._pick(self._by_uid.get(uid))

    def by_job(self, job_id: int) -> list[AuditRecord]:
        """All records attributed to job *job_id*, in append order."""
        self._sync()
        return self._pick(self._by_job.get(job_id))

    def by_node(self, node: str) -> list[AuditRecord]:
        """All records originating on *node*, in append order."""
        self._sync()
        return self._pick(self._by_node.get(node))

    def by_mechanism(self, mechanism: str) -> list[AuditRecord]:
        """All records from one enforcement mechanism, in append order."""
        self._sync()
        return self._pick(self._by_mechanism.get(mechanism))

    def by_trace(self, trace_id: str) -> list[AuditRecord]:
        """All records of one attribution context, in append order."""
        self._sync()
        return self._pick(self._by_trace.get(trace_id))

    def query(self, *, uid: int | None = None, job_id: int | None = None,
              node: str | None = None, mechanism: str | None = None,
              action: str | None = None) -> list[AuditRecord]:
        """Conjunctive filter across the indexes (append order).

        Starts from the most selective index available, then filters the
        remaining predicates in Python — the trail stays O(result), not
        O(records), for the indexed keys.
        """
        candidates: list[AuditRecord] | None = None
        if job_id is not None:
            candidates = self.by_job(job_id)
        elif uid is not None:
            candidates = self.by_uid(uid)
        elif node is not None:
            candidates = self.by_node(node)
        elif mechanism is not None:
            candidates = self.by_mechanism(mechanism)
        if candidates is None:
            candidates = self.records
        out = []
        for r in candidates:
            if uid is not None and r.uid != uid:
                continue
            if job_id is not None and r.job_id != job_id:
                continue
            if node is not None and r.node != node:
                continue
            if mechanism is not None and r.mechanism != mechanism:
                continue
            if action is not None and r.action != action:
                continue
            out.append(r)
        return out

    def chain(self, record: AuditRecord) -> list[AuditRecord]:
        """The causal chain of *record*: all earlier-or-equal records of
        its attribution context, in append order.

        An un-attributed record (``trace_id`` None) has a chain of just
        itself — the signature of an attribution gap.
        """
        if record.trace_id is None:
            return [record]
        self._sync()
        return [self._records[i]
                for i in self._by_trace.get(record.trace_id, ())
                if i <= record.seq]

    def resolution(self, record: AuditRecord) -> dict[str, object]:
        """How (and whether) *record* resolves back to its principal.

        ``resolved`` is True when the record carries a trace id whose chain
        contains a causal root (a sched ``submit`` or session ``login``).
        ``root`` names that record; ``job_id`` repeats the attribution for
        convenience.  This is the predicate behind the E26 acceptance
        criterion: 100% of DENY/ORACLE events resolvable to uid+job.
        """
        chain = self.chain(record)
        root = None
        for r in chain:
            if (r.mechanism, r.action) in (("sched", "submit"),
                                           ("session", "login")):
                root = r
                break
        return {
            "resolved": record.trace_id is not None and root is not None,
            "trace_id": record.trace_id,
            "uid": record.uid,
            "job_id": record.job_id,
            "root": root,
            "chain_length": len(chain),
        }

    # -- export -------------------------------------------------------------

    def lines(self) -> Iterator[str]:
        """One compact JSON line per record, in append order."""
        for r in self.records:
            yield json.dumps(r.to_dict(), separators=(",", ":"))

    def export_jsonl(self, sink: str | IO[str]) -> int:
        """Write the whole trail to *sink* (path or text file object).

        Append order (``seq``) is already time order under the sim clock,
        so the export is deterministic byte-for-byte.  Returns the number
        of lines written.
        """
        n = 0
        if isinstance(sink, str):
            with open(sink, "w") as fh:
                for line in self.lines():
                    fh.write(line + "\n")
                    n += 1
        else:
            for line in self.lines():
                sink.write(line + "\n")
                n += 1
        return n
