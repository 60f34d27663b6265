"""The cluster-level telemetry registry.

:func:`attach_telemetry` gives one built cluster a common observability
spine: a :class:`Telemetry` observer (:mod:`repro.observer`) subscribed to
every enforcement point, which turns the scheduler's decisions into job
lifecycle traces, every UBF decision and burst into spans, every portal
request and PAM session into a span on a :class:`~repro.obs.trace.Tracer`
over the sim clock, plus labeled metrics at the remaining hot enforcement
points:

* ``syscalls_total{result}`` — every call through a session's syscall
  façade, split allow/deny (the façade is wrapped by
  :class:`ObservedSyscalls`, a counting pass-through);
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

from repro.kernel.errors import (
    AccessDenied,
    NoSuchProcess,
    PermissionError_,
)
from repro.monitor.events import SecurityEventLog
from repro.net.firewall import Verdict
from repro.obs.export import export_jsonl, prometheus_text
from repro.obs.trace import Span, Tracer
from repro.observer import Observer
from repro.sim.metrics import MetricSet


class ObservedSyscalls:
    """Counting pass-through over a :class:`SyscallInterface`.

    Every syscall outcome increments ``syscalls_total{result=allow|deny}``;
    nothing else changes — arguments, return values and exceptions flow
    through untouched (a spawned child's interface comes back wrapped
    too).  The first access to each method builds its wrapper and installs
    it as an instance attribute, so the steady state never re-enters
    ``__getattr__``: one extra frame and one counter increment per call
    (the E15 telemetry-overhead benchmark holds this under 5%).
    """

    def __init__(self, inner, metrics: MetricSet):
        self._inner = inner
        self._metrics = metrics
        self._allow = metrics.counter("syscalls_total", result="allow")
        self._deny = metrics.counter("syscalls_total", result="deny")

    @property
    def node(self):
        return self._inner.node

    @property
    def process(self):
        return self._inner.process

    @property
    def creds(self):
        return self._inner.creds

    def __getattr__(self, name):
        inner = getattr(self._inner, name)
        if not callable(inner):
            return inner
        allow, deny = self._allow, self._deny

        def call(*args, **kwargs):
            try:
                result = inner(*args, **kwargs)
            except (AccessDenied, PermissionError_, NoSuchProcess):
                deny.value += 1
                raise
            allow.value += 1
            return result

        if name == "spawn_child":
            metrics, counted = self._metrics, call

            def call(*args, **kwargs):
                return ObservedSyscalls(counted(*args, **kwargs), metrics)

        setattr(self, name, call)  # steady state bypasses __getattr__
        return call


@dataclass
class Telemetry(Observer):
    """One cluster's observability handles, and the observer feeding them.

    ``metrics`` is the cluster's shared :class:`MetricSet` (the same object
    the fabric and scheduler already write to); ``tracer`` collects spans
    (each passed on to ``observers``, the cluster's planes) and ``events``
    every security event recorded while telemetry was attached.
    ``scrub_on_epilog``: the cluster's epilog scrubs each GPU it releases.
    """

    metrics: MetricSet
    tracer: Tracer
    events: SecurityEventLog = field(default_factory=SecurityEventLog)
    observers: list = field(default_factory=list)
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
        # the series exist (at 0) from attachment on, whatever happens
        counter = self.metrics.counter
        self._pam = {r: counter("pam_decisions_total", result=r)
                     for r in ("allow", "deny")}
        self._grants = counter("gpu_grants_total")
        self._scrubs = counter("gpu_scrubs_total")

    def prometheus(self) -> str:
        """The run's metrics in Prometheus text exposition format."""
        return prometheus_text(self.metrics)

    def export_jsonl(self, sink: str | IO[str]) -> int:
        """Write security events + finished spans to *sink* (path or text
        file object), merged chronologically.  Returns lines written."""
        return export_jsonl(sink, events=self.events, tracer=self.tracer)

    def _span(self, name: str, parent: Span | None = None,
              **tags) -> Span:
        span = self.tracer.start_span(name, parent=parent, **tags)
        for o in self.observers:
            o.span_started(span)
        return span

    # -- job traces: submit -> queue -> prolog -> run -> epilog --------------

    def job_arrived(self, job):
        if not self.tracing:
            return
        root = self._span("job", job_id=job.job_id, user=job.spec.user.name,
                          partition=job.spec.partition,
                          ntasks=job.spec.ntasks, attempt=job.attempt)
        self._job_spans[job.job_id] = {
            "root": root, "queue": self._span("sched.queue", parent=root)}

    # each attempt gets its own trace (the failed one closed NODE_FAIL)
    job_requeued = job_arrived

    def job_finished(self, job, state=None):
        spans = self._job_spans.pop(job.job_id, None)
        if spans is None:
            return
        end = job.state.name.lower()  # a cancel passes no *state*
        for key in ("queue", "run"):
            span = spans.get(key)
            if span is not None and span.end is None:
                self.tracer.finish(span, state=end)
        self.tracer.finish(spans["root"], state=end)

    job_cancelled = job_finished

    def _hook_span(self, which: str, job, node) -> None:
        spans = self._job_spans.get(job.job_id)
        if spans is not None:
            self.tracer.finish(self._span(f"sched.{which}",
                                          parent=spans["root"],
                                          node=node.name))

    def job_starting(self, scheduler, job, plan):
        spans = self._job_spans.get(job.job_id)
        if spans is not None:
            self.tracer.finish(spans["queue"],
                               waited=self.tracer.clock() - job.submit_time)

    def job_started(self, job, charged, useful):
        spans = self._job_spans.get(job.job_id)
        if spans is not None:
            spans["run"] = self._span(
                "job.run", parent=spans["root"],
                nodes=",".join(sorted({a.node for a in job.allocations})))

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

    # -- PAM, UBF, portal ----------------------------------------------------

    def pam_session(self, user, node_name, refused_by):
        result = "allow" if refused_by is None else "deny"
        self._pam[result].inc()
        if self.tracing:
            self.tracer.finish(self._span("pam.open_session",
                                          user=user.name, node=node_name),
                               result=result)

    def ubf_verdict(self, daemon, flow, uid, verdict, reason, code):
        self._ubf_reason = reason

    def ubf_decided(self, daemon, pkt, verdict, exc):
        if not self.tracing:
            return
        flow = pkt.flow
        span = self._span("ubf.decide", host=daemon.stack.hostname,
                          src=f"{flow.src_host}:{flow.src_port}",
                          dst=f"{flow.dst_host}:{flow.dst_port}")
        if exc is not None:
            self.tracer.finish(span, status="error",
                               error=type(exc).__name__)
        else:
            self.tracer.finish(span, verdict=verdict.value,
                               reason=self._ubf_reason)

    def ubf_batch_started(self, daemon, pkts):
        if self.tracing:
            self._batch = self._span("ubf.decide_batch",
                                     host=daemon.stack.hostname,
                                     n=len(pkts))

    def ubf_ident_group(self, daemon, key, waiters, initiator, exc):
        if self._batch is None:
            return
        child = self._span("ubf.ident_group", parent=self._batch,
                           src=f"{key[0]}:{key[2]}", proto=key[1].value,
                           waiters=waiters)
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
            self._request = self._span("portal.connect", app_id=app_id)

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

    def observe_event(self, event):
        self.events.record(event)


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
        observers=cluster.observers, tracing=tracing,
        scrub_on_epilog=cluster.config.gpu_scrub)
    cluster.telemetry = telemetry
    cluster.subscribe(telemetry)
    return telemetry
