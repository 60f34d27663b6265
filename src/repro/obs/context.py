"""Causal attribution contexts: who a decision ultimately belongs to.

The paper's operators could replay the CVE-2020-27746 week because the
UBF/PAM logs let them walk from a denied connection back to the submitting
user and job.  This module is that backwards walk made first-class: an
:class:`AttributionContext` is opened when a principal enters the system (a
job is submitted, a shell session opens) and every later enforcement
verdict resolves against the registry — ``(uid, node)`` at decision time →
the job (or session) whose processes acted there.

The :class:`AttributionRegistry` is the scheduler-facing half of the
forensic audit plane (:mod:`repro.obs.audit` stores the records,
:func:`repro.obs.forensics.attach_forensics` wires both).  It is an
:class:`~repro.observer.Observer` of the scheduler's job lifecycle, like
telemetry and the oracle; the E26 benchmark holds the armed overhead
under 5%.

Determinism: context trace ids are monotone counters (``a000001``), no
randomness and no wall-clock — two identical runs produce byte-identical
audit trails.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.obs.audit import (_OP_DISPATCH, _OP_FINISH, _OP_GPU, _OP_LOGIN,
                             _OP_REQUEUE, _OP_SUBMIT)
from repro.observer import Observer

#: Index-journal opcodes: the live ``(uid, node) → jobs`` index is not
#: maintained eagerly — lifecycle hooks append ``(op, uid, jid, nodes_csv)``
#: scalar quads to a flat journal and :meth:`AttributionRegistry.
#: _sync_index` replays it on the first :meth:`~AttributionRegistry.
#: resolve`/:meth:`~AttributionRegistry.live_jobs` that needs it.  A pure
#: scheduling run (the E24/E26 hot-path benchmark) never resolves, so it
#: never pays for the index at all; enforcement-heavy runs replay small
#: increments at each verdict, which is the same total work the eager
#: version did.
_J_START, _J_FINISH = 0, 1


class AttributionContext:
    """One principal-scoped causal context: a job attempt or a session.

    ``kind`` is ``"job"`` (``job_id`` set, ``nodes`` filled at dispatch)
    or ``"session"`` (``job_id`` None, ``origin`` is the login node).
    ``trace_id`` is the stable handle every derived audit record carries;
    like :class:`~repro.obs.trace.Span` ids it is held as an integer
    (``trace_num``) and rendered only when read — context creation is on
    the scheduler's submit hot path.
    """

    __slots__ = ("trace_num", "_trace_str", "kind", "uid", "job_id",
                 "origin", "opened_at", "closed_at", "_nodes_csv",
                 "attempts")

    def __init__(self, trace_num: int, kind: str, uid: int,
                 opened_at: float, *, job_id: int | None = None,
                 origin: str | None = None):
        self.trace_num = trace_num
        self._trace_str: str | None = None
        self.kind = kind
        self.uid = uid
        self.job_id = job_id
        self.origin = origin
        self.opened_at = opened_at
        self.closed_at: float | None = None
        #: dispatch nodes as a comma-joined string — a plain scalar the
        #: cyclic GC never tracks; :attr:`nodes` derives the tuple lazily
        self._nodes_csv = ""
        self.attempts = 1

    @property
    def nodes(self) -> tuple[str, ...]:
        """The job's dispatch nodes (sorted), rebuilt lazily on read."""
        csv = self._nodes_csv
        return tuple(csv.split(",")) if csv else ()

    @property
    def trace_id(self) -> str:
        """The rendered trace id (``a000001``), cached on first read."""
        s = self._trace_str
        if s is None:
            s = self._trace_str = "a%06d" % self.trace_num
        return s

    @property
    def live(self) -> bool:
        return self.closed_at is None

    def __repr__(self) -> str:  # pragma: no cover
        who = f"job{self.job_id}" if self.kind == "job" \
            else f"session@{self.origin}"
        return f"AttributionContext({self.trace_id} uid={self.uid} {who})"


class AttributionRegistry(Observer):
    """Live index from ``(uid, node)`` to the responsible context.

    Observes the scheduler (``job_submitted`` / ``job_started`` /
    ``job_finished`` / ``job_requeued``) and is called by
    ``Cluster._open_session`` (``session_opened``); enforcement-side
    consumers call :meth:`resolve`.  When an :class:`~repro.obs.audit.
    AuditTrail` is attached (``registry.audit``), every lifecycle step is
    also recorded there, giving each context its causal root record.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock: Callable[[], float] = clock if clock is not None \
            else (lambda: 0.0)
        self._ids = itertools.count(1)
        #: job_id → context (kept after finish for post-hoc resolution)
        self.jobs: dict[int, AttributionContext] = {}
        #: (uid, node) → session context
        self.sessions: dict[tuple[int, str], AttributionContext] = {}
        #: node → uid → job ids with a live allocation there (lazily
        #: rebuilt from the ``_jlog`` journal; see the ``_J_*`` docs)
        self._node_jobs: dict[str, dict[int, set[int]]] = {}
        #: uid → job ids currently running anywhere (lazy, ditto)
        self._uid_jobs: dict[int, set[int]] = {}
        #: flat scalar journal of pending index updates + read cursor
        self._jlog: list = []
        self._jpos = 0
        #: optional AuditTrail fed one record per lifecycle step
        self.audit = None

    # -- scheduler hooks ----------------------------------------------------
    #
    # These run once per job lifecycle step on the scheduler's hot path
    # (the E26 < 5% overhead budget), so they retain only GC-invisible
    # scalars: audit rows extend the trail's flat row store directly
    # (AuditTrail._sync renders the record strings lazily) and the live
    # (uid, node) index is journalled, not maintained — _sync_index
    # replays the journal on the first resolve that needs it.

    def job_submitted(self, job) -> AttributionContext:
        """A job entered the system: open (or reuse) its context."""
        jid = job.job_id
        ctx = self.jobs.get(jid)
        if ctx is None:
            now = self.clock()
            ctx = AttributionContext(next(self._ids), "job", job.uid,
                                     now, job_id=jid)
            self.jobs[jid] = ctx
            audit = self.audit
            if audit is not None:
                spec = job.spec
                audit._raw += (_OP_SUBMIT, now, job.uid, jid,
                               ctx.trace_num, spec.user.name,
                               spec.ntasks, spec.partition)
                audit._n += 1
        return ctx

    def job_started(self, job, charged=None, useful=None) -> None:
        """Dispatch succeeded: journal the nodes, record GPU grants (the
        core charges are not part of the causal record)."""
        jid, uid = job.job_id, job.uid
        ctx = self.jobs.get(jid) or self.job_submitted(job)
        ctx.closed_at = None
        allocs = job.allocations
        if len(allocs) == 1:
            csv = allocs[0].node
            node0 = csv
        else:
            csv = ",".join(sorted({a.node for a in allocs}))
            node0 = csv.partition(",")[0] if csv else None
        ctx._nodes_csv = csv
        ctx.attempts = job.attempt
        self._jlog += (_J_START, uid, jid, csv)
        audit = self.audit
        if audit is not None:
            now = self.clock()
            raw = audit._raw
            raw += (_OP_DISPATCH, now, uid, jid, node0, ctx.trace_num,
                    job.attempt, csv)
            audit._n += 1
            for alloc in allocs:
                if alloc.gpu_indices:
                    raw += (_OP_GPU, now, uid, jid, alloc.node,
                            ctx.trace_num,
                            ",".join(map(str, alloc.gpu_indices)))
                    audit._n += 1

    def job_finished(self, job, state) -> None:
        """The job left its nodes: journal the de-index; the context
        stays queryable."""
        jid, uid = job.job_id, job.uid
        ctx = self.jobs.get(jid)
        csv = ctx._nodes_csv if ctx is not None else ""
        self._jlog += (_J_FINISH, uid, jid, csv)
        if ctx is not None:
            now = self.clock()
            ctx.closed_at = now
            audit = self.audit
            if audit is not None:
                node0 = csv.partition(",")[0] if csv else None
                audit._raw += (_OP_FINISH, now, uid, jid, node0,
                               ctx.trace_num, state.name.lower())
                audit._n += 1

    def job_requeued(self, job) -> None:
        """A NODE_FAIL victim is retrying: same context, next attempt."""
        ctx = self.jobs.get(job.job_id)
        if ctx is None:
            return
        ctx.closed_at = None
        ctx.attempts = job.attempt
        audit = self.audit
        if audit is not None:
            audit._raw += (_OP_REQUEUE, self.clock(), job.uid,
                           job.job_id, ctx.trace_num, job.attempt)
            audit._n += 1

    # -- session hook -------------------------------------------------------

    def session_opened(self, user, node_name: str) -> AttributionContext:
        """An interactive shell opened: the non-job causal root.

        One context per ``(uid, node)`` — repeat logins reuse it (and add
        an audit record each), so a login-node principal's denials still
        chain back to an auditable entry point.
        """
        key = (user.uid, node_name)
        ctx = self.sessions.get(key)
        fresh = ctx is None
        if fresh:
            ctx = AttributionContext(next(self._ids), "session",
                                     user.uid, self.clock(),
                                     origin=node_name)
            self.sessions[key] = ctx
        audit = self.audit
        if audit is not None:
            audit._raw += (_OP_LOGIN, self.clock(), user.uid, node_name,
                           ctx.trace_num, user.name, 0 if fresh else 1)
            audit._n += 1
        return ctx

    # -- resolution ---------------------------------------------------------

    def _sync_index(self) -> None:
        """Replay the journal into the live ``(uid, node)`` indexes.

        Index sets are kept (empty) after their last job leaves so repeat
        traffic reuses them instead of re-allocating.
        """
        log = self._jlog
        pos, end = self._jpos, len(log)
        if pos == end:
            return
        node_jobs, uid_jobs = self._node_jobs, self._uid_jobs
        while pos < end:
            op, uid, jid, csv = log[pos], log[pos + 1], log[pos + 2], \
                log[pos + 3]
            pos += 4
            if op == _J_START:
                for node in csv.split(","):
                    per_uid = node_jobs.get(node)
                    if per_uid is None:
                        per_uid = node_jobs[node] = {}
                    jobs = per_uid.get(uid)
                    if jobs is None:
                        jobs = per_uid[uid] = set()
                    jobs.add(jid)
                live = uid_jobs.get(uid)
                if live is None:
                    live = uid_jobs[uid] = set()
                live.add(jid)
            else:
                if csv:
                    for node in csv.split(","):
                        per_uid = node_jobs.get(node)
                        if per_uid is not None:
                            jobs = per_uid.get(uid)
                            if jobs is not None:
                                jobs.discard(jid)
                live = uid_jobs.get(uid)
                if live is not None:
                    live.discard(jid)
        self._jpos = pos

    def live_jobs(self, uid: int, node: str | None = None) -> list[int]:
        """Job ids of *uid* running now (on *node* when given), sorted."""
        self._sync_index()
        if node is not None:
            return sorted(self._node_jobs.get(node, {}).get(uid, ()))
        return sorted(self._uid_jobs.get(uid, ()))

    def resolve(self, uid: int, node: str | None = None
                ) -> AttributionContext | None:
        """The context accountable for an action by *uid* from *node*.

        Preference order: a live job on that exact node, then a live job
        anywhere (newest first — the most recent dispatch is the likeliest
        actor), then the ``(uid, node)`` session, then any session of the
        uid.  ``None`` means the principal has no auditable entry point —
        exactly the gap the E26 completeness assertion hunts for.
        """
        if uid < 0:
            return None
        self._sync_index()
        if node is not None:
            on_node = self._node_jobs.get(node, {}).get(uid)
            if on_node:
                return self.jobs[max(on_node)]
        anywhere = self._uid_jobs.get(uid)
        if anywhere:
            return self.jobs[max(anywhere)]
        if node is not None:
            ctx = self.sessions.get((uid, node))
            if ctx is not None:
                return ctx
        for (s_uid, _), ctx in self.sessions.items():
            if s_uid == uid:
                return ctx
        return None
