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
under 5%.  It keeps the contexts and no copy of who runs where:
:meth:`~AttributionRegistry.resolve` reads placement from the scheduler
it observes — the compute nodes' allocation tables and the per-uid
live-job index — at the moment of the decision.

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
from repro.sched.jobs import JobState


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
    """The causal contexts, and the ``(uid, node)`` → context question.

    Observes *scheduler* (``job_submitted`` / ``job_started`` /
    ``job_finished`` / ``job_requeued``) and the cluster's logins
    (``session_opened``); enforcement-side consumers call
    :meth:`resolve`, which reads placement from *scheduler*.  When an
    :class:`~repro.obs.audit.AuditTrail` is attached (``registry.audit``),
    every lifecycle step is also recorded there, giving each context its
    causal root record.
    """

    def __init__(self, scheduler, clock: Callable[[], float] | None = None):
        #: the observed scheduler, whose placement :meth:`resolve` reads
        self.scheduler = scheduler
        self.clock: Callable[[], float] = clock if clock is not None \
            else (lambda: 0.0)
        self._ids = itertools.count(1)
        #: job_id → context (kept after finish for post-hoc resolution)
        self.jobs: dict[int, AttributionContext] = {}
        #: (uid, node) → session context
        self.sessions: dict[tuple[int, str], AttributionContext] = {}
        #: optional AuditTrail fed one record per lifecycle step
        self.audit = None

    # -- scheduler hooks ----------------------------------------------------
    #
    # These run once per job lifecycle step on the scheduler's hot path
    # (the E26 < 5% overhead budget), so they retain only GC-invisible
    # scalars: audit rows extend the trail's flat row store directly
    # (AuditTrail._sync renders the record strings lazily).  Placement is
    # not copied here: resolve reads it from the scheduler.

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
        """Dispatch succeeded: note the nodes, record GPU grants (the
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
        """The job left its nodes: close its context, which stays
        queryable."""
        jid = job.job_id
        ctx = self.jobs.get(jid)
        if ctx is not None:
            now = self.clock()
            ctx.closed_at = now
            audit = self.audit
            if audit is not None:
                csv = ctx._nodes_csv
                node0 = csv.partition(",")[0] if csv else None
                audit._raw += (_OP_FINISH, now, job.uid, jid, node0,
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

    def _newest_on(self, uid: int, allocations) -> int:
        """The largest job id in *allocations* (a node's table) whose
        context belongs to *uid*; -1 when none does."""
        jobs, best = self.jobs, -1
        for jid in allocations:
            if jid > best:
                ctx = jobs.get(jid)
                if ctx is not None and ctx.uid == uid:
                    best = jid
        return best

    def resolve(self, uid: int, node: str | None = None
                ) -> AttributionContext | None:
        """The context accountable for an action by *uid* from *node*.

        Preference order: a live job on that exact node, then a live job
        anywhere (newest first — the most recent dispatch is the likeliest
        actor), then the ``(uid, node)`` session, then any session of the
        uid.  Placement comes from the scheduler: the node's allocation
        table, then the per-uid live-job index — or, while the control
        plane is crashed and that index is empty, every node's allocation
        table, which a crash leaves in place.  A job without a context
        (started before the registry attached) never resolves.  ``None``
        means the principal has no auditable entry point — exactly the
        gap the E26 completeness assertion hunts for.
        """
        if uid < 0:
            return None
        jobs, sched = self.jobs, self.scheduler
        if node is not None:
            cn = sched.nodes.get(node)
            if cn is not None:
                best = self._newest_on(uid, cn.allocations)
                if best >= 0:
                    return jobs[best]
        best = -1
        if sched.crashed:
            for cn in sched.nodes.values():
                best = max(best, self._newest_on(uid, cn.allocations))
        else:
            live = sched._live.get(uid)
            if live:
                for jid, job in live.items():
                    if (jid > best and job.state is JobState.RUNNING
                            and jid in jobs):
                        best = jid
        if best >= 0:
            return jobs[best]
        if node is not None:
            ctx = self.sessions.get((uid, node))
            if ctx is not None:
                return ctx
        for (s_uid, _), ctx in self.sessions.items():
            if s_uid == uid:
                return ctx
        return None
