"""One-call wiring of the forensic audit plane onto a built cluster.

:func:`attach_forensics` assembles the four forensic components —
:class:`~repro.obs.context.AttributionRegistry` (causal contexts),
:class:`~repro.obs.audit.AuditTrail` (per-tenant append-only trail),
:class:`~repro.obs.flight.FlightRecorder` (bounded recent history with
incident dumps), and :class:`~repro.obs.alerts.AlertEngine` (declarative
rules) — and subscribes each of them to an existing
:class:`~repro.core.cluster.Cluster` (:mod:`repro.observer`) for the
decisions it consumes.  :class:`Forensics` only holds them.

Like :func:`~repro.monitor.wiring.instrument_cluster` and
:func:`~repro.obs.telemetry.attach_telemetry`, attachment is **idempotent**
(a second call returns the existing bundle) and **order-free**: events and
spans reach the plane over the cluster's own observers, from whichever
log and telemetry are attached before or after it.  Denials reach the
trail only through the security-event log.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.alerts import AlertEngine, default_rules
from repro.obs.audit import AuditTrail
from repro.obs.context import AttributionRegistry
from repro.obs.flight import FlightRecorder


@dataclass
class Forensics:
    """The attached forensic plane: one handle per component.

    Stored as ``cluster.forensics`` by :func:`attach_forensics`; the
    dashboard and benchmarks reach the components through it.
    """

    registry: AttributionRegistry
    audit: AuditTrail
    flight: FlightRecorder
    alerts: AlertEngine


def _gpu_state(cluster):
    """Build the flight recorder's live GPU sampler for *cluster*."""
    def sample() -> list[dict]:
        return [{"node": gpu.host, **gpu.forensic_summary()}
                for cn in cluster.compute_nodes for gpu in cn.gpus]
    return sample


def attach_forensics(cluster) -> Forensics:
    """Attach the forensic audit plane to *cluster*; returns the bundle.

    Idempotent: a second call returns the existing ``cluster.forensics``.
    Builds the registry, the trail and the flight recorder (which starts
    empty: its rings model what a node retains from now on), stands up the
    alert engine with :func:`~repro.obs.alerts.default_rules` firing to the
    cluster's planes, then subscribes the four, in that order.
    """
    existing = getattr(cluster, "forensics", None)
    if existing is not None:
        return existing
    clock = lambda: cluster.engine.now  # noqa: E731

    registry = AttributionRegistry(cluster.scheduler, clock)
    audit = AuditTrail(clock, registry)
    registry.audit = audit
    flight = FlightRecorder(
        clock, faults=cluster.fabric.faults, metrics=cluster.metrics,
        gpu_state=_gpu_state(cluster))
    alerts = AlertEngine(cluster.metrics, clock=clock, rules=default_rules(),
                         observers=cluster.observers)
    bundle = Forensics(registry=registry, audit=audit, flight=flight,
                       alerts=alerts)
    cluster.forensics = bundle  # type: ignore[attr-defined]
    cluster.subscribe(registry, audit, flight, alerts)
    return bundle
