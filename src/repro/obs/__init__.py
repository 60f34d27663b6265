"""Observability spine: tracing spans, cluster telemetry, exporters, the
operations dashboard, and the forensic audit plane.

The enforcement side of the paper (:mod:`repro.kernel`, :mod:`repro.net`,
:mod:`repro.sched`, ...) blocks cross-user actions; this package is the
*watching* side — "system monitoring" is one of the SuperCloud
cross-ecosystem innovations the paper's introduction lists, and the
CVE-2020-27746 week was reconstructed from the UBF/PAM logs.  Layout:

* :mod:`repro.obs.trace` — lightweight span contexts over the sim clock;
* :mod:`repro.obs.telemetry` — the cluster-level registry that threads the
  tracer and labeled metrics through every enforcement point;
* :mod:`repro.obs.export` — JSONL (events + spans) and Prometheus text
  exposition writers;
* :mod:`repro.obs.dashboard` — the merged ops report (metrics, probe
  alerts, per-user denial posture);
* :mod:`repro.obs.context` — causal attribution contexts (uid+node → job);
* :mod:`repro.obs.audit` — the per-tenant append-only audit trail;
* :mod:`repro.obs.flight` — the per-node flight recorder and forensic
  dumps;
* :mod:`repro.obs.alerts` — declarative alert rules over metrics + events;
* :mod:`repro.obs.forensics` — one-call wiring of all of the above.
"""

from repro.obs.alerts import (
    Alert,
    AlertEngine,
    AlertRule,
    RuleKind,
    default_rules,
)
from repro.obs.audit import AUDIT_SCHEMA_VERSION, AuditRecord, AuditTrail
from repro.obs.context import AttributionContext, AttributionRegistry
from repro.obs.dashboard import (
    denial_posture,
    ops_dashboard,
    recovery_posture,
    shard_posture,
)
from repro.obs.export import (
    event_lines,
    export_jsonl,
    prometheus_text,
    span_lines,
)
from repro.obs.flight import FLIGHT_SCHEMA_VERSION, FlightRecorder, ForensicDump
from repro.obs.forensics import Forensics, attach_forensics
from repro.obs.telemetry import Telemetry, attach_telemetry
from repro.obs.trace import Span, Tracer

__all__ = [
    "Span", "Tracer",
    "Telemetry", "attach_telemetry",
    "event_lines", "export_jsonl", "prometheus_text", "span_lines",
    "denial_posture", "ops_dashboard", "recovery_posture",
    "shard_posture",
    "AttributionContext", "AttributionRegistry",
    "AUDIT_SCHEMA_VERSION", "AuditRecord", "AuditTrail",
    "FLIGHT_SCHEMA_VERSION", "FlightRecorder", "ForensicDump",
    "Alert", "AlertEngine", "AlertRule", "RuleKind", "default_rules",
    "Forensics", "attach_forensics",
]
