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

An :class:`AuditedSyscalls` wrapper (handed out by
:func:`audited_session`) adds FS/PROC denials for the calls user code
makes through it, and :func:`audited_seepid` / :func:`audited_smask_relax`
add ADMIN escalation records.

Instrumentation is additive — enforcement behaviour is unchanged; only
observations are recorded.  ``instrument_cluster`` is idempotent: calling
it again returns the already-attached log instead of subscribing a second
one (which would record duplicate events).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.kernel.errors import AccessDenied, KernelError, NoSuchProcess, PermissionError_
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


@dataclass
class AuditedSyscalls:
    """Pass-through syscall wrapper that records FS/PROC denials, its
    children's too.  Each method's wrapper is built once, at first use."""

    session: Session
    log: SecurityEventLog

    def _emit(self, kind: EventKind, target: str, err: KernelError) -> None:
        self.log.emit(self.session.cluster.engine.now, kind,
                      self.session.creds.uid, target, err.errname,
                      node=self.session.node.name)

    def __getattr__(self, name):
        inner = getattr(self.session.sys, name)
        if not callable(inner):
            return inner
        kind = (EventKind.PROC_DENY
                if name.startswith(("read_proc", "kill", "ps", "list_proc"))
                else EventKind.FS_DENY)

        def call(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except (AccessDenied, PermissionError_, NoSuchProcess) as e:
                self._emit(kind, str(args[0]) if args else name, e)
                raise

        if name == "spawn_child":
            session, log, audited = self.session, self.log, call

            def call(*args, **kwargs):
                child = replace(session, sys=audited(*args, **kwargs))
                return AuditedSyscalls(child, log)

        setattr(self, name, call)  # steady state bypasses __getattr__
        return call


def audited_session(session: Session,
                    log: SecurityEventLog) -> AuditedSyscalls:
    """Wrap *session*'s syscalls so denials are recorded in *log*."""
    return AuditedSyscalls(session, log)


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
