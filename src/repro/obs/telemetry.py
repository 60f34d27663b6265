"""The cluster-level telemetry registry.

:func:`attach_telemetry` gives one built cluster a common observability
spine: a :class:`Telemetry` observer (:mod:`repro.observer`) subscribed to
every enforcement point, which turns the scheduler's decisions into job
lifecycle traces, every UBF decision and burst into spans, every portal
request and PAM session into a span on a :class:`~repro.obs.trace.Tracer`
over the sim clock, plus labeled metrics at the remaining hot enforcement
points:

* ``syscalls_total{result}`` — every call through a syscall façade the
  cluster opened after attachment (and its children's), split allow/deny:
  those façades are :class:`~repro.kernel.syscalls.ObservedSyscalls`
  observed by the registry;
* ``pam_decisions_total{result}`` — every PAM verdict;
* ``gpu_grants_total`` / ``gpu_scrubs_total`` — the GPU indices each
  prolog grants and each epilog scrubs.

The UBF (``ubf_verdicts_total{verdict,reason}``), scheduler
(``sched_queue_depth``, ``sched_wait_seconds``) and portal
(``portal_requests_total{result}``) record their series through the shared
:class:`~repro.sim.metrics.MetricSet` unconditionally — those are single
dict-lookup increments, cheap enough to always keep on.

Everything here is additive: enforcement outcomes are identical with or
without telemetry, and ``attach_telemetry`` is idempotent (a second call
returns the existing registry without subscribing it twice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

from repro.net.firewall import Verdict
from repro.obs.export import export_jsonl, prometheus_text
from repro.obs.trace import Span, Tracer
from repro.observer import Observer, Observers, as_observers
from repro.sched.jobs import JobState
from repro.sim.metrics import MetricSet


#: a job's end state -> its ``state`` tag
_END_STATE = {state: state.name.lower() for state in JobState}


@dataclass
class Telemetry(Observer):
    """One cluster's observability handles, and the observer feeding them.

    ``metrics`` is the cluster's shared :class:`MetricSet` (the same object
    the fabric and scheduler already write to); ``tracer`` collects spans,
    each passed on to ``observers`` (the cluster's planes).  ``cluster``
    is the cluster attached to, whose security-event log the JSONL export
    reads.  ``scrub_on_epilog``: the cluster's epilog scrubs each GPU it
    releases.
    """

    metrics: MetricSet
    tracer: Tracer
    observers: Observers = field(default_factory=Observers)
    cluster: object = field(default=None, repr=False)
    tracing: bool = True
    scrub_on_epilog: bool = True
    #: job id -> its open trace: root, queue and run spans
    _job_spans: dict = field(default_factory=dict)
    #: the open ``ubf.decide_batch`` span (bursts do not nest)
    _batch: Span | None = None
    #: the reason of the last UBF verdict, for the ``ubf.decide`` span:
    #: ``ubf_verdict`` comes before ``ubf_decided`` in the same ``decide``
    _ubf_reason: str = ""
    #: the open ``portal.connect`` span (requests do not nest)
    _request: Span | None = None

    def __post_init__(self):
        self.observers = as_observers(self.observers)
        # the series exist (at 0) from attachment on, whatever happens
        counter = self.metrics.counter
        self._pam = {r: counter("pam_decisions_total", result=r)
                     for r in ("allow", "deny")}
        self._syscall_allow = counter("syscalls_total", result="allow")
        self._syscall_deny = counter("syscalls_total", result="deny")
        self._grants = counter("gpu_grants_total")
        self._scrubs = counter("gpu_scrubs_total")

    def prometheus(self) -> str:
        """The run's metrics in Prometheus text exposition format."""
        return prometheus_text(self.metrics)

    def export_jsonl(self, sink: str | IO[str]) -> int:
        """Write the cluster's security events (when its log is attached)
        and the finished spans to *sink* (path or text file object),
        merged chronologically.  Returns lines written."""
        return export_jsonl(sink, tracer=self.tracer,
                            events=getattr(self.cluster, "security_log",
                                           None))

    def _span(self, name: str, parent: Span | None, tags: dict) -> Span:
        span = self.tracer.open_span(name, parent, tags)
        for f in self.observers.span_started:
            f(span)
        return span

    # -- job traces: submit -> queue -> prolog -> run -> epilog --------------

    def job_arrived(self, job):
        if not self.tracing:
            return
        spec = job.spec
        root = self._span("job", None, {
            "job_id": job.job_id, "user": spec.user.name,
            "partition": spec.partition, "ntasks": spec.ntasks,
            "attempt": job.attempt})
        self._job_spans[job.job_id] = {
            "root": root, "queue": self._span("sched.queue", root, {})}

    # each attempt gets its own trace (the failed one closed NODE_FAIL)
    job_requeued = job_arrived

    def job_finished(self, job, state=None):
        spans = self._job_spans.pop(job.job_id, None)
        if spans is None:
            return
        end = _END_STATE[job.state]  # a cancel passes no *state*
        for key in ("queue", "run"):
            span = spans.get(key)
            if span is not None and span.end is None:
                self.tracer.finish(span, state=end)
        self.tracer.finish(spans["root"], state=end)

    job_cancelled = job_finished

    def _hook_span(self, which: str, job, node) -> None:
        spans = self._job_spans.get(job.job_id)
        if spans is not None:
            self.tracer.finish(self._span(f"sched.{which}", spans["root"],
                                          {"node": node.name}))

    def job_starting(self, scheduler, job, plan):
        spans = self._job_spans.get(job.job_id)
        if spans is not None:
            self.tracer.finish(spans["queue"],
                               waited=self.tracer.clock() - job.submit_time)

    def job_started(self, job, charged, useful):
        spans = self._job_spans.get(job.job_id)
        if spans is not None:
            allocs = job.allocations
            nodes = allocs[0].node if len(allocs) == 1 \
                else ",".join(sorted({a.node for a in allocs}))
            spans["run"] = self._span("job.run", spans["root"],
                                      {"nodes": nodes})

    def prolog_ran(self, job, node, gpus):
        self._hook_span("prolog", job, node)
        if gpus:
            self._grants.inc(len(gpus))

    def epilog_ran(self, job, node, gpus):
        self._hook_span("epilog", job, node)
        if gpus and self.scrub_on_epilog:
            self._scrubs.inc(len(gpus))

    def hook_failed(self, which, job, node, exc):
        self._hook_span(which, job, node)

    def control_plane_crashed(self, seq):
        # the dead scheduler's in-flight traces are lost with its tables
        self._job_spans.clear()

    # -- syscall façades, PAM, UBF, portal ----------------------------------

    def syscall_allowed(self, sys, name):
        self._syscall_allow.value += 1

    def syscall_denied(self, sys, name, args, exc):
        self._syscall_deny.value += 1

    def pam_session(self, user, node_name, refused_by):
        result = "allow" if refused_by is None else "deny"
        self._pam[result].inc()
        if self.tracing:
            self.tracer.finish(self._span("pam.open_session", None,
                                          {"user": user.name,
                                           "node": node_name}),
                               result=result)

    def ubf_verdict(self, daemon, flow, uid, verdict, reason, code):
        self._ubf_reason = reason

    def ubf_decided(self, daemon, pkt, verdict, exc):
        if not self.tracing:
            return
        flow = pkt.flow
        span = self._span("ubf.decide", None, {
            "host": daemon.stack.hostname,
            "src": f"{flow.src_host}:{flow.src_port}",
            "dst": f"{flow.dst_host}:{flow.dst_port}"})
        if exc is not None:
            self.tracer.finish(span, status="error",
                               error=type(exc).__name__)
        else:
            self.tracer.finish(span, verdict=verdict.value,
                               reason=self._ubf_reason)

    def ubf_batch_started(self, daemon, pkts):
        if self.tracing:
            self._batch = self._span("ubf.decide_batch", None, {
                "host": daemon.stack.hostname, "n": len(pkts)})

    def ubf_ident_group(self, daemon, key, waiters, initiator, exc):
        if self._batch is None:
            return
        child = self._span("ubf.ident_group", self._batch, {
            "src": f"{key[0]}:{key[2]}", "proto": key[1].value,
            "waiters": waiters})
        if exc is not None:
            self.tracer.finish(child, status="degraded",
                               error=type(exc).__name__)
        else:
            self.tracer.finish(
                child,
                status="ok" if initiator is not None else "unidentifiable",
                uid=initiator.uid if initiator is not None else -1)

    def ubf_batch_finished(self, daemon, verdicts, exc):
        span, self._batch = self._batch, None
        if span is None:
            return
        if exc is not None:
            self.tracer.finish(span, status="error",
                               error=type(exc).__name__)
        else:
            drops = sum(1 for v in verdicts if v is Verdict.DROP)
            self.tracer.finish(span, accepts=len(verdicts) - drops,
                               drops=drops)

    def portal_request(self, portal, app_id):
        if self.tracing:
            self._request = self._span("portal.connect", None,
                                       {"app_id": app_id})

    def portal_response(self, portal, app_id, user, exc):
        span, self._request = self._request, None
        if span is None:
            return
        if user is not None:
            span.set_tag("user", user.name)
        if exc is not None:
            self.tracer.finish(span, error=type(exc).__name__)
        else:
            self.tracer.finish(span, outcome="ok")


def attach_telemetry(cluster, *, tracing: bool = True) -> Telemetry:
    """Subscribe a :class:`Telemetry` observer to a built cluster.

    Returns the registry (also stored as ``cluster.telemetry``).  With
    ``tracing`` disabled only the metric instrumentation runs — the
    cheapest configuration for pure-throughput benchmark runs.  Idempotent.
    """
    existing = getattr(cluster, "telemetry", None)
    if existing is not None:
        return existing
    telemetry = Telemetry(
        metrics=cluster.metrics,
        tracer=Tracer(clock=lambda: cluster.engine.now),
        observers=cluster.observers, cluster=cluster, tracing=tracing,
        scrub_on_epilog=cluster.config.gpu_scrub)
    cluster.telemetry = telemetry
    cluster.subscribe(telemetry)
    return telemetry
