"""Security event log: the audit trail behind the separation controls.

The paper's systems don't just *block* cross-user actions — operations
staff watch the blocks ("system monitoring" is one of the SuperCloud
cross-ecosystem innovations the introduction lists, and the UBF/PAM logs
are what made the CVE-2020-27746 week legible).  This module gives every
enforcement point a common structured record.  Subscribed to a cluster
(:func:`~repro.monitor.wiring.instrument_cluster`), the
:class:`SecurityEventLog` observes the enforcement decisions and records
the ones that are security events:

* UBF DROPs and degraded verdicts,
* pam_slurm refusals of compute-node logins,
* refused opens of GPU ``/dev`` files and refused portal requests,
* node-lifecycle transitions, oracle violations and fired alerts;

a syscall façade opened by :func:`~repro.monitor.wiring.audited_session`
adds its EACCES/EPERM/ESRCH filesystem and ``/proc`` denials.

:func:`detect_probe_patterns` is the simple operations heuristic layered on
top: a principal accumulating many *distinct-target* denials in a short
window looks like a scanner, not a typo.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from repro.net.firewall import Verdict
from repro.net.ubf import DecisionReason
from repro.observer import Observer, Observers, as_observers


class EventKind(enum.Enum):
    """Kinds of security event the enforcement points emit."""

    NET_DENY = "net-deny"
    PAM_DENY = "pam-deny"
    FS_DENY = "fs-deny"
    PROC_DENY = "proc-deny"
    SCHED_DENY = "sched-deny"
    GPU_DENY = "gpu-deny"        # refused open of a GPU /dev character file
    PORTAL_DENY = "portal-deny"  # portal request refused (auth failure)
    ADMIN = "admin"  # seepid/smask_relax invocations (escalation audit)
    DEGRADED = "degraded"  # UBF verdict under identity-infrastructure fault
    ORACLE = "oracle-violation"  # separation invariant violated (repro.oracle)
    NODE_LIFECYCLE = "node-lifecycle"  # fencing/remediation/rejoin transitions
    ALERT = "alert"  # declarative alert rule fired (repro.obs.alerts)
    ATTACK = "attack"  # scripted red-team probe ran (repro.attacks campaign)


@dataclass(frozen=True)
class SecurityEvent:
    """One auditable enforcement decision: who, what, and why.

    ``job_id``/``node`` are the causal-attribution stamps the forensic
    audit plane (:mod:`repro.obs.audit`) uses to tie a decision back to
    the submitting job; emitters that know them fill them in, everything
    older keeps the defaults (the fields are additive).
    """

    time: float
    kind: EventKind
    subject_uid: int          # who attempted
    target: str               # what was touched (path, host:port, node, pid)
    detail: str = ""
    #: job the acting process belonged to, when the emitter knows it
    job_id: int | None = None
    #: node the action originated on (attribution resolves uid+node → job)
    node: str | None = None


@dataclass
class SecurityEventLog(Observer):
    """Append-only in-memory event store with simple query methods.

    As an :class:`~repro.observer.Observer` it turns the decisions that
    are security events into records.  Each recorded event goes on to
    every one of ``observers`` (:meth:`~repro.observer.Observer.
    observe_event`) — a cluster's log shares the cluster's own list, which
    is how the audit trail, flight recorder, alerts and telemetry export
    ride the stream without holding the log.
    """

    events: list[SecurityEvent] = field(default_factory=list)
    #: fed each event at record time, in order of subscription
    observers: Observers = field(default_factory=Observers)
    #: time of decisions that carry none (a cluster's sim clock)
    clock: Callable[[], float] = staticmethod(lambda: 0.0)

    def __post_init__(self):
        self.observers = as_observers(self.observers)

    def record(self, event: SecurityEvent) -> None:
        self.events.append(event)
        for f in self.observers.observe_event:
            f(event)

    def emit(self, time: float, kind: EventKind, subject_uid: int,
             target: str, detail: str = "", *, job_id: int | None = None,
             node: str | None = None) -> None:
        self.record(SecurityEvent(time, kind, subject_uid, target, detail,
                                  job_id=job_id, node=node))

    # -- the decisions that are security events ------------------------------

    def ubf_verdict(self, daemon, flow, uid, verdict, reason, code):
        """A DROP is NET_DENY; a degraded verdict is DEGRADED whatever it
        decided (an infrastructure fault, never the principal's denial)."""
        if code is DecisionReason.DEGRADED:
            kind, detail = EventKind.DEGRADED, f"{verdict.value}: {reason}"
        elif verdict is Verdict.DROP:
            kind, detail = EventKind.NET_DENY, reason
        else:
            return
        self.emit(daemon.stack.node.vfs.clock(), kind,
                  -1 if uid is None else uid,
                  f"{flow.dst_host}:{flow.dst_port}", detail,
                  node=flow.src_host)

    def pam_session(self, user, node_name, refused_by):
        if refused_by is not None and refused_by.name == "pam_slurm":
            self.emit(self.clock(), EventKind.PAM_DENY, user.uid, node_name,
                      "pam_slurm refusal", node=node_name)

    def syscall_denied(self, sys, name, args, exc):
        """A refusal on an audited façade: PROC_DENY for the ``/proc`` and
        signal calls, FS_DENY for the rest, aimed at the first argument."""
        kind = (EventKind.PROC_DENY
                if name.startswith(("read_proc", "kill", "ps", "list_proc"))
                else EventKind.FS_DENY)
        self.emit(self.clock(), kind, sys.creds.uid,
                  str(args[0]) if args else name, exc.errname,
                  node=sys.node.name)

    def gpu_denied(self, device, creds, path):
        self.emit(self.clock(), EventKind.GPU_DENY, creds.uid,
                  f"{device.host}:{path}", "gpu device open refused",
                  node=device.host)

    def portal_denied(self, portal, uid, app_id, detail):
        self.emit(portal.clock(), EventKind.PORTAL_DENY, uid,
                  f"portal:app/{app_id}", detail)

    def hook_failed(self, which, job, node, exc):
        self.emit(self.clock(), EventKind.NODE_LIFECYCLE, -1, node.name,
                  f"{which} failed for job {job.job_id}: {exc!r}; "
                  f"node drained pending remediation",
                  job_id=job.job_id, node=node.name)

    def node_fenced(self, node_name, lost):
        self.emit(self.clock(), EventKind.NODE_LIFECYCLE, -1, node_name,
                  f"fenced: {lost} running job(s) lost", node=node_name)

    def node_remediated(self, scheduler, node, summary):
        self.emit(self.clock(), EventKind.NODE_LIFECYCLE, -1, node.name,
                  "remediated: " + ", ".join(
                      f"{k}={v}" for k, v in sorted(summary.items())),
                  node=node.name)

    def node_lifecycle(self, time, target, detail, job_id=None, node=None):
        self.emit(time, EventKind.NODE_LIFECYCLE, -1, target, detail,
                  job_id=job_id, node=node)

    def oracle_violation(self, violation, uid, job_id, node):
        # attribution stamps: the audit plane chains it to its causal root
        self.emit(violation.time, EventKind.ORACLE, uid, violation.subject,
                  f"[{violation.invariant}] {violation.detail}",
                  job_id=job_id, node=node)

    def alert_fired(self, alert):
        self.emit(alert.time, EventKind.ALERT, alert.subject, alert.rule,
                  f"[{alert.severity}] {alert.detail}")

    # -- queries -------------------------------------------------------------

    def by_subject(self, uid: int) -> list[SecurityEvent]:
        return [e for e in self.events if e.subject_uid == uid]

    def by_kind(self, kind: EventKind) -> list[SecurityEvent]:
        return [e for e in self.events if e.kind is kind]

    def window(self, start: float, end: float) -> list[SecurityEvent]:
        """Events in the half-open interval ``[start, end)``.

        Half-open is the module-wide convention (shared with
        :func:`detect_probe_patterns`): adjacent windows tile the timeline
        with no event counted twice.
        """
        return [e for e in self.events if start <= e.time < end]

    def counts(self) -> dict[EventKind, int]:
        out: dict[EventKind, int] = defaultdict(int)
        for e in self.events:
            out[e.kind] += 1
        return dict(out)


@dataclass(frozen=True)
class ProbeAlert:
    """A principal whose denial pattern crossed the probe thresholds."""

    subject_uid: int
    denials: int
    distinct_targets: int
    kinds: tuple[str, ...]
    first_time: float
    last_time: float


def detect_probe_patterns(log: SecurityEventLog, *,
                          min_denials: int = 5,
                          min_distinct_targets: int = 3,
                          window: float | None = None,
                          now: float | None = None) -> list[ProbeAlert]:
    """Flag principals whose denial pattern looks like active probing.

    A legitimate user fat-fingers the *same* path or port a few times; a
    scanner touches *many distinct targets*.  Both thresholds must be met.
    ``window`` restricts to the trailing interval ending at ``now``, using
    the same half-open ``[now - window, now)`` convention as
    :meth:`SecurityEventLog.window`.  When ``now`` is omitted the window is
    anchored at the newest event (which is then included: the trailing
    interval ``[last - window, ∞)``).
    """
    events = log.events
    if window is not None:
        if now is not None:
            events = log.window(now - window, now)
        else:
            last = max((e.time for e in events), default=0.0)
            events = [e for e in events if e.time >= last - window]
    per_subject: dict[int, list[SecurityEvent]] = defaultdict(list)
    for e in events:
        # ADMIN is audit, not denial; DEGRADED blames infrastructure, not
        # the principal; ORACLE blames the *enforcement code*;
        # NODE_LIFECYCLE blames hardware; ALERT is a derived signal over
        # events already counted; ATTACK marks a *scripted* campaign probe
        # whose denials are already recorded under their own kinds — none
        # should trip the scanner heuristic.
        if e.kind not in (EventKind.ADMIN, EventKind.DEGRADED,
                          EventKind.ORACLE, EventKind.NODE_LIFECYCLE,
                          EventKind.ALERT, EventKind.ATTACK):
            per_subject[e.subject_uid].append(e)
    alerts = []
    for uid, evs in per_subject.items():
        targets = {e.target for e in evs}
        if len(evs) >= min_denials and len(targets) >= min_distinct_targets:
            alerts.append(ProbeAlert(
                subject_uid=uid,
                denials=len(evs),
                distinct_targets=len(targets),
                kinds=tuple(sorted({e.kind.value for e in evs})),
                first_time=min(e.time for e in evs),
                last_time=max(e.time for e in evs)))
    return sorted(alerts, key=lambda a: -a.denials)
