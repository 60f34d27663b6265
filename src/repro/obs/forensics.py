"""One-call wiring of the forensic audit plane onto a built cluster.

:func:`attach_forensics` assembles the four forensic components —
:class:`~repro.obs.context.AttributionRegistry` (causal contexts),
:class:`~repro.obs.audit.AuditTrail` (per-tenant append-only trail),
:class:`~repro.obs.flight.FlightRecorder` (bounded recent history with
incident dumps), and :class:`~repro.obs.alerts.AlertEngine` (declarative
rules) — and subscribes it to an existing
:class:`~repro.core.cluster.Cluster` (:mod:`repro.observer`): the registry
observes the job lifecycle, the :class:`Forensics` bundle clean UBF and
portal verdicts, faults, control-plane crashes, spans and security events.

Like :func:`~repro.monitor.wiring.instrument_cluster` and
:func:`~repro.obs.telemetry.attach_telemetry`, attachment is **idempotent**
(a second call returns the existing bundle) and **order-free**: events and
spans reach the plane over the cluster's own observers, from whichever
log and telemetry are attached before or after it.  Denials reach the
trail only through the security-event log.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.firewall import Verdict
from repro.obs.alerts import AlertEngine, default_rules
from repro.obs.audit import AuditTrail
from repro.obs.context import AttributionRegistry
from repro.obs.flight import FlightRecorder
from repro.observer import Observer


@dataclass
class Forensics(Observer):
    """The attached forensic plane: one handle per component.

    Stored as ``cluster.forensics`` by :func:`attach_forensics`; the
    dashboard and benchmarks reach the components through it.  As an
    observer it feeds the trail, the recorder and the alert engine.
    """

    registry: AttributionRegistry
    audit: AuditTrail
    flight: FlightRecorder
    alerts: AlertEngine

    def observe_event(self, event):
        self.audit.observe_event(event)
        self.flight.observe_event(event)
        self.alerts.observe_event(event)

    def ubf_verdict(self, daemon, flow, uid, verdict, reason, code):
        # clean ACCEPTs only: denies reach the trail as security events
        if uid is not None and verdict is not Verdict.DROP:
            self.audit.ubf_verdict(
                uid=uid, node=flow.src_host,
                target=f"{flow.dst_host}:{flow.dst_port}",
                verdict=verdict.value, reason=reason)

    def portal_forwarded(self, portal, user, creds, app):
        self.audit.record(
            mechanism="portal", action="allow", uid=user.uid,
            node=app.node.name, target=f"portal:app/{app.app_id}",
            detail=f"forwarded to {app.node.name}:{app.port}")

    def fault_injected(self, fault):
        self.flight.fault_injected(fault)

    def span_started(self, span):
        self.flight.span_started(span)

    def control_plane_crashed(self, seq):
        self.flight.snapshot("sched-crash", detail="control plane crashed")
        self.audit.record(
            mechanism="recovery", action="crash", uid=0, target="scheduler",
            detail=f"control plane crashed at seq {seq}")

    def control_plane_recovered(self, cluster, report):
        self.audit.record(
            mechanism="recovery", action="restore", uid=0,
            target="scheduler",
            detail=(f"replayed {report.replayed} records from seq "
                    f"{report.snapshot_seq}; generation "
                    f"{report.generation}; digest "
                    f"{'intact' if report.identical else 'DIVERGED'}"))
        self.flight.snapshot(
            "recovery", detail=f"recovered at seq {report.journal_seq}")


def _gpu_state(cluster):
    """Build the flight recorder's live GPU sampler for *cluster*."""
    def sample() -> list[dict]:
        return [{"node": gpu.host, **gpu.forensic_summary()}
                for cn in cluster.compute_nodes for gpu in cn.gpus]
    return sample


def attach_forensics(cluster, *, capacity: int = 256,
                     rules=None) -> Forensics:
    """Attach the forensic audit plane to *cluster*; returns the bundle.

    Idempotent: a second call returns the existing ``cluster.forensics``.
    Builds the registry, the trail and the flight recorder (which starts
    empty: its rings model what a node retains from now on), stands up the
    alert engine with :func:`~repro.obs.alerts.default_rules` (or *rules*
    when given) firing to the cluster's planes, then subscribes the
    registry and the bundle.  ``capacity`` bounds every flight-recorder
    ring.
    """
    existing = getattr(cluster, "forensics", None)
    if existing is not None:
        return existing
    clock = lambda: cluster.engine.now  # noqa: E731

    registry = AttributionRegistry(cluster.scheduler, clock)
    audit = AuditTrail(clock, registry)
    registry.audit = audit
    flight = FlightRecorder(
        clock, capacity=capacity, faults=cluster.fabric.faults,
        metrics=cluster.metrics, gpu_state=_gpu_state(cluster))
    alerts = AlertEngine(
        cluster.metrics, clock=clock,
        rules=default_rules() if rules is None else tuple(rules),
        observers=cluster.observers)
    bundle = Forensics(registry=registry, audit=audit, flight=flight,
                       alerts=alerts)
    cluster.forensics = bundle  # type: ignore[attr-defined]
    cluster.subscribe(registry)
    cluster.subscribe(bundle)
    return bundle
