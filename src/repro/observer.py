"""The enforcement-event seam: one observer container per enforcement point.

Every enforcement object (``Scheduler``, ``HealthMonitor``, ``UserDB``,
``ProcFS``, ``VFS``, ``PamStack``, ``GPUDevice``, ``UBFDaemon``,
``Portal``, ``FaultInjector``, ``ObservedSyscalls``) carries an
``observers`` container (:class:`Observers`), empty by default.
:class:`Observer` is the whole decision vocabulary: each method is a
documented no-op, and an optional plane overrides only the decisions it
consumes.  At each decision a point calls the observers that override it,
in subscription order (``for f in self.observers.job_finished: f(job,
state)``); a plane never hears a decision it does not consume.  Decisions
are method calls on the point's own arguments, so a point without
observers allocates nothing.  :meth:`repro.core.cluster.Cluster.subscribe`
adds one observer to every point of a cluster, and to the cluster's own
container, to which the cluster reports the shells it opens
(``session_opened``); a syscall façade's observers are instead fixed when
it opens.  A plane made of several components subscribes each component
that consumes a decision, rather than forwarding the decision to it.
Observers watch; they never decide.

The last group carries what planes derive from decisions to the other
planes over the cluster's own container, so no plane holds another.
"""

from __future__ import annotations


class Observer:
    """No-op base of every optional plane (see the module docstring)."""

    # -- scheduler (repro.sched.scheduler) ----------------------------------
    def job_submitted(self, job):
        """``submit`` accepted *job*; its arrival is still pending."""
    def job_arrived(self, job):
        """*job* entered the pending queue."""
    def job_cancelled(self, job):
        """*job* was cancelled while pending."""
    def job_starting(self, scheduler, job, plan):
        """*job* starts on *plan* ``[(node, tasks)]``; nothing allocated."""
    def prolog_ran(self, job, node, gpus):
        """The prolog prepared *node*, granting the job GPUs *gpus*."""
    def job_start_failed(self, job):
        """A prolog failed: *job* finishes FAILED without having run."""
    def job_started(self, job, charged, useful):
        """*job* runs on its nodes: *charged* cores, *useful* busy ones."""
    def epilog_ran(self, job, node, gpus):
        """The epilog cleaned *node* after *job*, releasing *gpus*."""
    def hook_failed(self, which, job, node, exc):
        """``"prolog"``/``"epilog"`` raised *exc*; *node* is drained."""
    def job_finished(self, job, state):
        """*job* left its nodes in *state*; accounting already has it."""
    def job_requeued(self, job):
        """A NODE_FAIL victim is back in the queue for its next attempt."""
    def node_fenced(self, node_name, lost):
        """*node_name* was fenced; its *lost* running jobs die NODE_FAIL."""
    def node_drained(self, node_name):
        """*node_name* takes no new work."""
    def node_resumed(self, node_name):
        """*node_name* is schedulable again."""
    def node_remediated(self, scheduler, node, summary):
        """*node* was cleaned (*summary*: counts by kind) to rejoin."""
    def node_lifecycle(self, time, target, detail, job_id=None, node=None):
        """Another lifecycle transition (health, residue, flaps, requeue)."""
    def control_plane_crashed(self, seq):
        """The control plane dies at journal *seq*; its tables go next."""
    def control_plane_recovered(self, cluster, report):
        """Recovery rebuilt the control plane (*report*: RecoveryReport)."""

    # -- health monitor (repro.sched.health) --------------------------------
    def heartbeat_state(self, lc):
        """A node's lifecycle record *lc* changed."""
    def residue_recorded(self, residue):
        """Fencing recorded what a dead node leaves behind."""
    def residue_cleared(self, node_name):
        """*node_name* rejoined; its recorded residue is gone."""
    def tick_armed(self, fire_t):
        """The heartbeat tick will fire at *fire_t*."""
    def tick_fired(self):
        """The heartbeat tick fired."""
    def host_unreachable(self, host, since):
        """*host* has been unreachable since *since*."""
    def host_reachable(self, host):
        """*host* answers again."""
    def dead_host_purged(self, host):
        """Peers' state about *host* was purged after its TTL."""

    # -- account database (repro.kernel.users) ------------------------------
    def user_added(self, user, generation):
        """A user (and its private group) was created."""
    def project_group_added(self, group, generation):
        """An approved project group was created."""
    def member_added(self, group, uid, generation):
        """*uid* joined the project *group*."""
    def member_removed(self, group, uid, generation):
        """*uid* left the project *group*."""
    def system_group_added(self, group, generation):
        """A system group was created."""

    # -- kernel: /proc, VFS, PAM --------------------------------------------
    def procfs_viewed(self, fs, viewer, procs, op, uids=None):
        """A ``/proc`` *op* showed *procs* (or the uid set *uids*)."""
    def vfs_mode_set(self, vfs, path, creds, mode, op):
        """*op* (``create``/``chmod``) stored *mode* on *path*."""
    def vfs_acl_set(self, vfs, path, creds, entry):
        """``setfacl`` stored *entry* on *path*."""
    def pam_session(self, user, node_name, refused_by):
        """A PAM session opened, or the module *refused_by* refused it."""

    # -- cluster access (repro.core.cluster) --------------------------------
    def session_opened(self, user, node_name):
        """*user*'s interactive shell (a login or ssh) runs on *node_name*."""

    # -- syscall façade (repro.kernel.syscalls.ObservedSyscalls) ------------
    def syscall_allowed(self, sys, name):
        """The façade *sys*'s call *name* returned."""
    def syscall_denied(self, sys, name, args, exc):
        """The façade *sys*'s call *name* on *args* was refused with *exc*."""

    # -- GPU devices (repro.gpu.device) -------------------------------------
    def gpu_read(self, device, creds):
        """A ``/dev`` read reached *device*'s memory."""
    def gpu_denied(self, device, creds, path):
        """The VFS refused an open of *device*'s ``/dev`` file."""

    # -- UBF daemon (repro.net.ubf) -----------------------------------------
    def ubf_cached(self, daemon, key, verdict):
        """A cached *verdict* answered ``key = (uid, l_uid, l_egid)``."""
    def ubf_concluded(self, daemon, pkt, listener, initiator, verdict):
        """A full, post-ident decision reached *verdict*."""
    def ubf_degraded(self, daemon, verdict):
        """Identity was unavailable; the fault policy gave *verdict*."""
    def ubf_verdict(self, daemon, flow, uid, verdict, reason, code):
        """Any verdict, on every path (*code*: its DecisionReason)."""
    def ubf_decided(self, daemon, pkt, verdict, exc):
        """One ``decide`` call returned *verdict* or raised *exc*."""
    def ubf_batch_started(self, daemon, pkts):
        """A ``decide_batch`` burst of *pkts* begins."""
    def ubf_ident_group(self, daemon, key, waiters, initiator, exc):
        """One coalesced ident exchange for *waiters* packets concluded."""
    def ubf_batch_finished(self, daemon, verdicts, exc):
        """The burst returned *verdicts* or raised *exc*."""

    # -- portal (repro.portal.gateway) --------------------------------------
    def portal_request(self, portal, app_id):
        """A ``connect`` to app *app_id* begins."""
    def portal_response(self, portal, app_id, user, exc):
        """It ended: *user* if authenticated, *exc* if it raised."""
    def portal_routes(self, portal, session, apps):
        """The route listing for *session* returned *apps*."""
    def portal_forwarded(self, portal, user, creds, app):
        """A request reached *app* through a process with *creds*."""
    def portal_denied(self, portal, uid, app_id, detail):
        """A request was refused before forwarding."""

    # -- faults (repro.faults.injector) -------------------------------------
    def fault_injected(self, fault):
        """*fault* was injected."""

    # -- between planes -----------------------------------------------------
    def observe_event(self, event):
        """The security-event log recorded *event*."""
    def oracle_violation(self, violation, uid, job_id, node):
        """The oracle found *violation*, attributed to *uid*/*job_id*."""
    def alert_fired(self, alert):
        """An alert rule fired."""
    def span_started(self, span):
        """Telemetry opened *span*."""


#: every decision name, in the order :class:`Observer` declares them
DECISIONS = tuple(name for name, value in vars(Observer).items()
                  if callable(value) and not name.startswith("_"))


class Observers:
    """The observers of one point, fanned out per decision.

    Reading a decision name (``observers.job_finished``) gives the tuple
    of the subscribed observers' bound methods for it, in subscription
    order, keeping only the observers that override the :class:`Observer`
    no-op: by a method of their class, an alias such as ``job_requeued =
    job_arrived``, or an instance attribute.  A tuple is built at its
    first read and dropped by every :meth:`append`, so it always reflects
    the observers subscribed so far, and a point pays nothing for the
    decisions nobody consumes.  Iteration (and so ``in``) sees the
    observers themselves.  ``Observers()`` is empty and costs one bare
    object; :meth:`of` starts from a list.
    """

    #: the subscribed observers, in order; every append makes a new tuple
    _planes: tuple = ()

    @classmethod
    def of(cls, planes) -> "Observers":
        """A container subscribed to *planes*, in order."""
        fans = cls()
        fans._planes = tuple(planes)
        return fans

    def append(self, observer) -> None:
        """Subscribe *observer* after the ones already there."""
        planes = self._planes + (observer,)
        self.__dict__.clear()
        self._planes = planes

    def __iter__(self):
        return iter(self._planes)

    def __repr__(self) -> str:
        return f"Observers({self._planes!r})"


class _FanOut:
    """One decision of :class:`Observers`: builds and caches its tuple."""

    __slots__ = ("name", "noop")

    def __init__(self, name: str):
        self.name = name
        self.noop = getattr(Observer, name)

    def __get__(self, fans, owner=None):
        if fans is None:
            return self
        name, noop, planes = self.name, self.noop, fans._planes
        bound = ()
        if planes:
            bound = tuple(getattr(o, name) for o in planes
                          if getattr(type(o), name) is not noop
                          or name in getattr(o, "__dict__", ()))
        fans.__dict__[name] = bound
        return bound


for _name in DECISIONS:
    setattr(Observers, _name, _FanOut(_name))
del _name


def as_observers(planes=None) -> Observers:
    """*planes* itself when it is an :class:`Observers` (shared by
    reference, as planes share the cluster's), else a container over the
    given list of observers."""
    if isinstance(planes, Observers):
        return planes
    return Observers.of(() if planes is None else planes)
