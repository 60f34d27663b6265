"""Wiring the security event log into a built cluster.

``instrument_cluster`` subscribes a :class:`SecurityEventLog` to an
existing :class:`~repro.core.cluster.Cluster` (:meth:`~repro.core.cluster.
Cluster.subscribe`), so it records the decisions that are security events
at every enforcement point:

* :data:`EventKind.NET_DENY` for every UBF DROP and
  :data:`EventKind.DEGRADED` for verdicts issued under an identity fault;
* :data:`EventKind.PAM_DENY` for every pam_slurm refusal;
* :data:`EventKind.GPU_DENY` when the VFS refuses an open of a GPU's
  ``/dev`` character file, :data:`EventKind.PORTAL_DENY` for refused
  portal requests;
* :data:`EventKind.NODE_LIFECYCLE` for fencing, remediation, hook
  failures and health transitions, :data:`EventKind.ORACLE` for oracle
  violations and :data:`EventKind.ALERT` for fired alerts, whichever of
  those planes is attached before or after it.

:func:`audited_session` opens a syscall façade that also reports to the
log, which adds FS/PROC denials for the calls user code makes through it
(its children's too), and :func:`audited_seepid` /
:func:`audited_smask_relax` add ADMIN escalation records.

Instrumentation is additive — enforcement behaviour is unchanged; only
observations are recorded.  ``instrument_cluster`` is idempotent: calling
it again returns the already-attached log instead of subscribing a second
one (which would record duplicate events).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.syscalls import ObservedSyscalls
from repro.monitor.events import EventKind, SecurityEventLog

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle (the
    # portal, which core.cluster builds, reports events through this layer)
    from repro.core.cluster import Cluster, Session


def instrument_cluster(cluster: Cluster) -> SecurityEventLog:
    """Attach a log; returns it (also stored as ``cluster.security_log``).

    Idempotent: a second call returns the existing log unchanged.  The
    log passes every event it records on to the cluster's planes.
    """
    existing = getattr(cluster, "security_log", None)
    if existing is not None:
        return existing
    log = SecurityEventLog(observers=cluster.observers,
                           clock=lambda: cluster.engine.now)
    cluster.security_log = log  # type: ignore[attr-defined]
    cluster.subscribe(log)
    return log


def audited_session(session: Session,
                    log: SecurityEventLog) -> ObservedSyscalls:
    """A façade over *session*'s process that reports to the session
    façade's observers (telemetry, when it counts the session) and then
    to *log*, which records its denials."""
    sys = session.sys
    return ObservedSyscalls(sys.node, sys.process,
                            [*getattr(sys, "observers", ()), log])


def audited_seepid(cluster: Cluster, session: Session) -> Session:
    """seepid with an ADMIN escalation audit record."""
    from repro.core import tools as _tools
    result = _tools.seepid(cluster, session)
    getattr(cluster, "security_log").emit(
        cluster.engine.now, EventKind.ADMIN, session.creds.uid,
        session.node.name, "seepid exemption added",
        node=session.node.name)
    return result


def audited_smask_relax(cluster: Cluster, session: Session,
                        **kw) -> Session:
    """smask_relax with an ADMIN escalation audit record."""
    from repro.core import tools as _tools
    result = _tools.smask_relax(cluster, session, **kw)
    getattr(cluster, "security_log").emit(
        cluster.engine.now, EventKind.ADMIN, session.creds.uid,
        session.node.name, "smask_relax shell opened",
        node=session.node.name)
    return result
