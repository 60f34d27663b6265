"""Monitoring substrate: security event log, cluster wiring, probe
detection — the operations side of enforced separation."""

from repro.monitor.events import (
    EventKind,
    ProbeAlert,
    SecurityEvent,
    SecurityEventLog,
    detect_probe_patterns,
)
from repro.monitor.wiring import (
    audited_seepid,
    audited_session,
    audited_smask_relax,
    instrument_cluster,
)

__all__ = [
    "EventKind", "ProbeAlert", "SecurityEvent", "SecurityEventLog",
    "detect_probe_patterns",
    "audited_seepid", "audited_session",
    "audited_smask_relax", "instrument_cluster",
]
