"""The separation oracle: online invariant checking at enforcement points.

The :class:`SeparationOracle` is an :class:`~repro.observer.Observer`:
subscribed to the enforcement points (ProcFS, VFS, UBFDaemon, Scheduler,
GPUDevice, Portal — :func:`repro.oracle.hooks.attach_oracle` subscribes it
to a whole cluster), it hears each decision and calls the matching
``check_*`` method here, which

1. **samples**: a seeded :class:`random.Random` admits a
   ``sampling_rate`` fraction of decisions (1.0 in tests and CI, small in
   production-scale runs), deterministic under every ``PYTHONHASHSEED``;
2. **checks** the invariant from :mod:`repro.oracle.invariants` against an
   *independent* restatement of the paper rule — not by calling the code
   under test;
3. **shadows**: on a ``shadow_rate`` fraction, recomputes the decision via
   the retained naive reference path (the scheduler's full-partition
   first-fit scan, the appendix UBF rule on the ident snapshot,
   filter-everything /proc scans) and reports any divergence from the
   indexed fast paths;
4. **reports** violations as :class:`Violation` records, labeled
   ``oracle_*`` metrics, and :meth:`~repro.observer.Observer.
   oracle_violation` to its ``observers`` (the security-event log records
   an ``EventKind.ORACLE`` event) — and raises :class:`SeparationViolation`
   when ``fail_fast`` is set (how the CI oracle job turns any drift into a
   test failure).

Checks never mutate enforcement state and never consume enforcement
metrics (the dispatch loops, not the placement scan the shadow replays,
count ``sched_dispatch_scan``), so an attached oracle is
behaviour-preserving by construction; ``tests/oracle/`` pins additivity.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.observer import Observer, as_observers
from repro.oracle.invariants import BY_ID, CATALOG, Invariant

#: default seed for the sampling RNG — fixed so two identical runs sample
#: identical decisions (the determinism bar CI's two-hash-seed matrix sets).
DEFAULT_SEED = 0x5E9A7A7E


class SeparationViolation(AssertionError):
    """Raised on a violated invariant when the oracle runs fail-fast."""


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    invariant: str
    time: float
    subject: str
    detail: str
    #: attack id (``"A7"``) when the violation surfaced inside an armed
    #: :meth:`SeparationOracle.attack_context`; ``None`` for organic ones
    attack: str | None = field(default=None, compare=False)


def reference_ubf_verdict(init_uid: int | None,
                          init_groups: frozenset[int],
                          listen_uid: int, listen_egid: int) -> bool:
    """The appendix rule, restated: may this flow be accepted?

    Mirrors the paper text ("same user, or the connecting process is a
    member of the primary group (egid) of the listening process") plus the
    root carve-out, evaluated on the ident snapshot — deliberately not a
    call into :meth:`UBFDaemon._rule`.
    """
    if init_uid is None:
        return False
    return (init_uid == 0 or init_uid == listen_uid
            or listen_egid in init_groups)


class SeparationOracle(Observer):
    """Always-on invariant checker shared by a cluster's choke points."""

    def __init__(self, *, sampling_rate: float = 1.0,
                 shadow_rate: float | None = None,
                 fail_fast: bool = False,
                 metrics=None, observers=None, clock=None,
                 seed: int = DEFAULT_SEED):
        if not 0.0 <= sampling_rate <= 1.0:
            raise ValueError(f"sampling_rate {sampling_rate} not in [0, 1]")
        self.sampling_rate = sampling_rate
        #: fraction of decisions that additionally run the naive-reference
        #: shadow comparison; defaults to the sampling rate.
        self.shadow_rate = sampling_rate if shadow_rate is None \
            else shadow_rate
        if not 0.0 <= self.shadow_rate <= 1.0:
            raise ValueError(f"shadow_rate {self.shadow_rate} not in [0, 1]")
        self.fail_fast = fail_fast
        self.metrics = metrics
        #: told every violation (in a cluster: the cluster's planes)
        self.observers = as_observers(observers)
        #: the Section IV-F measures the cluster's prolog/epilog enforce
        #: (GPU decisions go unchecked while both are off)
        self.gpu_perms = self.gpu_scrub = False
        self.clock = clock or (lambda: 0.0)
        self.violations: list[Violation] = []
        self._rng = random.Random(seed)
        self._checks: dict[str, int] = {inv.id: 0 for inv in CATALOG}
        self._shadow_checks = 0
        #: reentrancy guard: a shadow recomputation must not re-enter the
        #: oracle through the hooks on the objects it drives
        self._busy = False
        #: armed attack id while inside :meth:`attack_context`; violations
        #: raised in that window are *expected* red-team outcomes — they
        #: are tagged instead of aborting the campaign via fail-fast
        self._attack: str | None = None

    # -- bookkeeping --------------------------------------------------------

    @property
    def catalog(self) -> tuple[Invariant, ...]:
        return CATALOG

    @property
    def total_checks(self) -> int:
        return sum(self._checks.values())

    @property
    def shadow_checks(self) -> int:
        return self._shadow_checks

    def checks_for(self, invariant_id: str) -> int:
        return self._checks[invariant_id]

    def violations_for(self, invariant_id: str) -> list[Violation]:
        return [v for v in self.violations if v.invariant == invariant_id]

    def violations_for_attack(self, attack_id: str) -> list[Violation]:
        """Violations tagged by an armed :meth:`attack_context` window."""
        return [v for v in self.violations if v.attack == attack_id]

    @property
    def organic_violations(self) -> list[Violation]:
        """Violations observed *outside* any attack window.

        The campaign acceptance bar: an attack run is clean when every
        violation (if any) carries the attack's tag — a breach during
        benign traffic is a real enforcement failure, never a red-team
        outcome.
        """
        return [v for v in self.violations if v.attack is None]

    @contextmanager
    def attack_context(self, attack_id: str):
        """Arm the oracle for a scripted malicious probe.

        Inside the window every violation is tagged with *attack_id* and
        ``fail_fast`` is suspended: a mechanism that lets the probe
        through must surface as a *classified outcome* (DETECTED), not as
        an exception that aborts the rest of the campaign.  Violations
        still accumulate, count metrics, and emit ``EventKind.ORACLE``
        events, so the forensic audit plane sees exactly what an operator
        would.  Windows do not nest — a campaign runs one probe at a time.
        """
        if self._attack is not None:
            raise RuntimeError(
                f"attack window {self._attack!r} already armed")
        self._attack = attack_id
        try:
            yield self
        finally:
            self._attack = None

    def summary(self) -> list[dict[str, object]]:
        """One row per catalog invariant: id, title, checks, violations."""
        per_inv: dict[str, int] = {inv.id: 0 for inv in CATALOG}
        for v in self.violations:
            per_inv[v.invariant] = per_inv.get(v.invariant, 0) + 1
        return [{"id": inv.id, "title": inv.title, "section": inv.section,
                 "checks": self._checks[inv.id],
                 "violations": per_inv[inv.id]} for inv in CATALOG]

    def assert_clean(self) -> None:
        """Raise :class:`SeparationViolation` if any violation was seen."""
        if self.violations:
            v = self.violations[0]
            raise SeparationViolation(
                f"{len(self.violations)} separation violation(s); first: "
                f"[{v.invariant}] {v.subject}: {v.detail}")

    # -- internals ----------------------------------------------------------

    def _sampled(self) -> bool:
        return (self.sampling_rate >= 1.0
                or self._rng.random() < self.sampling_rate)

    def _shadowed(self) -> bool:
        return (self.shadow_rate >= 1.0
                or self._rng.random() < self.shadow_rate)

    def _count(self, invariant_id: str) -> None:
        self._checks[invariant_id] += 1
        if self.metrics is not None:
            self.metrics.counter("oracle_checks_total",
                                 invariant=invariant_id).inc()

    def _violation(self, invariant_id: str, subject: str,
                   detail: str, *, uid: int = -1,
                   job_id: int | None = None,
                   node: str | None = None) -> None:
        assert invariant_id in BY_ID
        violation = Violation(invariant=invariant_id, time=self.clock(),
                              subject=subject, detail=detail,
                              attack=self._attack)
        self.violations.append(violation)
        if self.metrics is not None:
            self.metrics.counter("oracle_violations_total",
                                 invariant=invariant_id).inc()
        for f in self.observers.oracle_violation:
            f(violation, uid, job_id, node)
        if self.fail_fast and self._attack is None:
            raise SeparationViolation(
                f"[{invariant_id}] {subject}: {detail}")

    # -- I1: /proc views ----------------------------------------------------

    def check_procfs_view(self, fs, viewer, procs, op: str,
                          uids=None) -> None:
        """A /proc listing/read produced *procs* for *viewer* via *op*.

        ``op`` is one of ``list_pids``/``ps``/``visible_users``/``read``;
        listings enforce uid confinement at the level the mount configures
        (hidepid=2 for existence, >=1 for detail reads) and shadow-compare
        the indexed per-uid fast path against a filter-everything scan.
        ``uids`` overrides the uid set when the view is already a uid set
        (``visible_users``) rather than a process list.
        """
        if self._busy or not self._sampled():
            return
        self._count("I1")
        level = 2 if op == "list_pids" else 1
        if fs.options.hidepid >= level and not fs._exempt(viewer):
            if uids is None:
                uids = {p.creds.uid for p in procs}
            foreign = sorted({u for u in uids if u != viewer.uid})
            if foreign:
                self._violation(
                    "I1", f"procfs:{fs.table.node_name}",
                    f"{op} for uid {viewer.uid} exposed uids {foreign} "
                    f"under hidepid={fs.options.hidepid}",
                    uid=viewer.uid, node=fs.table.node_name)
        if not fs.naive and op != "read" and self._shadowed():
            self._shadow_procfs(fs, viewer, op)

    def _shadow_procfs(self, fs, viewer, op: str) -> None:
        from repro.kernel.procfs import ProcFS
        self._busy = True
        try:
            ref = ProcFS(fs.table, fs.options, naive=True)
            if op == "list_pids":
                got = sorted(fs.list_pids(viewer))
                want = sorted(ref.list_pids(viewer))
            elif op == "ps":
                got = sorted((e.pid, e.uid) for e in fs.ps(viewer))
                want = sorted((e.pid, e.uid) for e in ref.ps(viewer))
            else:
                got = sorted(fs.visible_users(viewer))
                want = sorted(ref.visible_users(viewer))
        finally:
            self._busy = False
        self._shadow_checks += 1
        if got != want:
            self._violation(
                "I1", f"procfs:{fs.table.node_name}",
                f"indexed {op} diverges from naive reference for uid "
                f"{viewer.uid}: {got} != {want}",
                uid=viewer.uid, node=fs.table.node_name)

    # -- I2: UBF verdicts ---------------------------------------------------

    def check_ubf_conclude(self, daemon, pkt, listener, initiator,
                           verdict) -> None:
        """A full (post-ident) UBF decision concluded with *verdict*.

        The authoritative identities are in hand: an ACCEPT must be
        justified by the appendix rule on the ident snapshot, and a DROP of
        anything the appendix rule accepts is a regression.  The live
        account database does not enter: a process whose credentials
        predate a project-group add is outside the group until it logs in
        again, as real ident reports it.
        """
        if self._busy or not self._sampled():
            return
        self._count("I2")
        from repro.net.firewall import Verdict
        subject = f"ubf:{daemon.stack.hostname}"
        flow = (f"{pkt.flow.src_host}:{pkt.flow.src_port}->"
                f"{pkt.flow.dst_host}:{pkt.flow.dst_port}")
        if initiator is None:
            if verdict is not Verdict.DROP:
                self._violation(
                    "I2", subject,
                    f"unidentifiable initiator not dropped on {flow}",
                    node=daemon.stack.hostname)
            return
        allowed = reference_ubf_verdict(initiator.uid, initiator.groups,
                                        listener.uid, listener.egid)
        if verdict is Verdict.ACCEPT and not allowed:
            self._violation(
                "I2", subject,
                f"cross-user flow {flow} accepted: uid {initiator.uid} "
                f"!in egid {listener.egid} of uid {listener.uid}",
                uid=initiator.uid, node=pkt.flow.src_host)
        elif verdict is Verdict.DROP and allowed:
            self._violation(
                "I2", subject,
                f"flow {flow} the appendix rule accepts was dropped "
                f"(uid {initiator.uid} vs uid {listener.uid}/egid "
                f"{listener.egid})",
                uid=initiator.uid, node=pkt.flow.src_host)

    def check_ubf_cached(self, daemon, key, verdict) -> None:
        """A cached verdict answered ``key = (src_uid, l_uid, l_egid)``.

        The daemon caches only a verdict that every process of ``src_uid``
        gets — never one reached from a credential snapshot the account
        database contradicts — and flushes the cache whenever the
        database's generation moves.  So a hit must be the appendix rule's
        verdict with the database's membership of ``l_egid`` standing in
        for the snapshot.
        """
        if self._busy or not self._sampled():
            return
        self._count("I2")
        from repro.kernel.errors import NoSuchEntity
        from repro.net.firewall import Verdict
        src_uid, listen_uid, listen_egid = key
        try:
            listed = src_uid in daemon.userdb.group(listen_egid).members
        except NoSuchEntity:
            listed = False
        groups = frozenset({listen_egid}) if listed else frozenset()
        allowed = reference_ubf_verdict(src_uid, groups, listen_uid,
                                        listen_egid)
        if (verdict is Verdict.ACCEPT) != allowed:
            self._violation(
                "I2", f"ubf:{daemon.stack.hostname}",
                f"cached {verdict.name} for uid {src_uid} -> uid "
                f"{listen_uid}/egid {listen_egid} contradicts the account "
                f"database",
                uid=src_uid, node=daemon.stack.hostname)

    def check_ubf_degraded(self, daemon, verdict) -> None:
        """A degraded (identity-unavailable) verdict was issued."""
        if self._busy or not self._sampled():
            return
        self._count("I2")
        from repro.net.firewall import Verdict
        expected = Verdict.ACCEPT if daemon.fail_open else Verdict.DROP
        if verdict is not expected:
            policy = "fail-open" if daemon.fail_open else "fail-closed"
            self._violation(
                "I2", f"ubf:{daemon.stack.hostname}",
                f"degraded verdict {verdict.value} contradicts the "
                f"{policy} policy",
                node=daemon.stack.hostname)

    # -- I4: placements -----------------------------------------------------

    def check_sched_start(self, scheduler, job, plan) -> None:
        """*job* is about to start on *plan* ([(node, tasks)]).

        Runs before any allocation mutates node state, so the co-residence
        and capacity facts it reads are exactly what the dispatcher saw.
        """
        if self._busy or not self._sampled():
            return
        self._count("I4")
        from repro.sched.policies import NodeSharing, tasks_placeable
        spec = job.spec
        subject = f"sched:job{job.job_id}"
        # I7 facet: a plan naming a fenced/unremediated node would place
        # the next tenant onto another tenant's residue.
        self._count("I7")
        for node, _ in plan:
            if node.fenced or node.needs_remediation:
                self._violation(
                    "I7", subject,
                    f"dispatch onto unremediated node {node.name} "
                    f"(fenced={node.fenced}, "
                    f"needs_remediation={node.needs_remediation})",
                    uid=job.uid, job_id=job.job_id, node=node.name)
        policy = scheduler._policy_for(job)
        whole = policy is NodeSharing.EXCLUSIVE or spec.exclusive
        if sum(take for _, take in plan) != spec.ntasks:
            self._violation(
                "I4", subject,
                f"plan covers {sum(t for _, t in plan)} of "
                f"{spec.ntasks} tasks",
                uid=job.uid, job_id=job.job_id)
        for node, take in plan:
            uids = node.running_uids()
            if whole and not node.idle:
                self._violation(
                    "I4", subject,
                    f"exclusive start on non-idle node {node.name} "
                    f"(uids {sorted(uids)})",
                    uid=job.uid, job_id=job.job_id, node=node.name)
            elif (policy is NodeSharing.WHOLE_NODE_USER
                    and not uids <= {job.uid}):
                self._violation(
                    "I4", subject,
                    f"uid {job.uid} co-located with uids "
                    f"{sorted(uids - {job.uid})} on {node.name} under "
                    f"whole-node-per-user",
                    uid=job.uid, job_id=job.job_id, node=node.name)
            n = tasks_placeable(
                policy, free_cores=node.free_cores,
                free_mem_mb=node.free_mem_mb,
                free_gpus=len(node.free_gpu_indices),
                cores_per_task=spec.cores_per_task,
                mem_mb_per_task=spec.mem_mb_per_task,
                gpus_per_task=spec.gpus_per_task, node_idle=node.idle,
                node_uids=uids, job_uid=job.uid,
                job_exclusive=spec.exclusive)
            if take > n:
                self._violation(
                    "I4", subject,
                    f"{take} tasks placed on {node.name} but only {n} "
                    f"placeable (free {node.free_cores}c/"
                    f"{node.free_mem_mb}MB)",
                    uid=job.uid, job_id=job.job_id, node=node.name)
        if not scheduler.config.naive and self._shadowed():
            self._shadow_checks += 1
            ref, _ = scheduler._placement_for(job)
            if ref is not None:
                ref = [(node.name, take) for node, take in ref]
            got = [(node.name, take) for node, take in plan]
            if ref != got:
                self._violation(
                    "I4", subject,
                    f"indexed plan {got} diverges from reference "
                    f"first-fit plan {ref}",
                    uid=job.uid, job_id=job.job_id)

    # -- I7: node rejoin ----------------------------------------------------

    def check_node_rejoin(self, scheduler, node) -> None:
        """Remediation of *node* just completed: residue must be gone.

        Invariant I7's rejoin half.  Every job-owned process whose job no
        longer holds an allocation here must be reaped, and — when the
        attached remediator promises the corresponding Section IV-F
        measure — no unallocated GPU may stay dirty or keep a ``/dev``
        file naming the dead tenant's private group.  Processes of jobs
        *still* allocated (a drained node running out) are legitimate.
        """
        if self._busy or not self._sampled():
            return
        self._count("I7")
        subject = f"node:{node.name}"
        live = set(node.allocations)
        orphans = [p.pid for p in node.node.procs.processes()
                   if p.job_id is not None and p.job_id not in live]
        if orphans:
            self._violation(
                "I7", subject,
                f"orphan process(es) {orphans} survived remediation",
                node=node.name)
        remediator = scheduler.remediator
        scrub = getattr(remediator, "scrub_expected", False)
        perms = getattr(remediator, "perms_expected", False)
        if not (scrub or perms):
            return
        from repro.kernel.node import ROOT_CREDS
        from repro.sched.prolog_epilog import (
            GPU_MODE_UNASSIGNED,
            gpu_dev_path,
        )
        busy = node.used_gpu_indices
        for gpu in node.gpus:
            if gpu.index in busy:
                continue
            if scrub and gpu.dirty:
                self._violation(
                    "I7", f"gpu:{node.name}/nvidia{gpu.index}",
                    "dirty device memory survived node remediation",
                    node=node.name)
            if perms:
                st = node.node.vfs.stat(gpu_dev_path(gpu.index), ROOT_CREDS)
                if st.gid != 0 or (st.mode & 0o777) != GPU_MODE_UNASSIGNED:
                    self._violation(
                        "I7", f"gpu:{node.name}/nvidia{gpu.index}",
                        f"released device left gid={st.gid} "
                        f"mode={st.mode & 0o777:#o} after remediation",
                        node=node.name)

    # -- I5: GPU assignment / scrub -----------------------------------------

    def check_gpu_assigned(self, node, job, gpu_indices) -> None:
        """Prolog finished: the job's GPUs must be visible to its UPG only."""
        if self._busy or not gpu_indices or not self._sampled():
            return
        self._count("I5")
        from repro.kernel.node import ROOT_CREDS
        from repro.sched.prolog_epilog import GPU_MODE_ASSIGNED, gpu_dev_path
        upg = job.spec.user.primary_gid
        for idx in gpu_indices:
            st = node.node.vfs.stat(gpu_dev_path(idx), ROOT_CREDS)
            if st.gid != upg or (st.mode & 0o777) != GPU_MODE_ASSIGNED:
                self._violation(
                    "I5", f"gpu:{node.name}/nvidia{idx}",
                    f"assigned device is gid={st.gid} "
                    f"mode={st.mode & 0o777:#o}, want gid={upg} "
                    f"mode={GPU_MODE_ASSIGNED:#o} for uid {job.uid}",
                    uid=job.uid, job_id=job.job_id, node=node.name)

    def check_gpu_released(self, node, job, gpu_indices, *,
                           scrub_expected: bool,
                           perms_expected: bool) -> None:
        """Epilog finished: devices must be scrubbed and re-hidden."""
        if self._busy or not gpu_indices or not self._sampled():
            return
        self._count("I5")
        from repro.kernel.node import ROOT_CREDS
        from repro.sched.prolog_epilog import (
            GPU_MODE_UNASSIGNED,
            gpu_dev_path,
        )
        for idx in gpu_indices:
            subject = f"gpu:{node.name}/nvidia{idx}"
            if scrub_expected and node.gpu(idx).dirty:
                self._violation(
                    "I5", subject,
                    f"residue survived the epilog of job {job.job_id} "
                    f"(uid {job.uid})",
                    uid=job.uid, job_id=job.job_id, node=node.name)
            if perms_expected:
                st = node.node.vfs.stat(gpu_dev_path(idx), ROOT_CREDS)
                if st.gid != 0 or (st.mode & 0o777) != GPU_MODE_UNASSIGNED:
                    self._violation(
                        "I5", subject,
                        f"released device left gid={st.gid} "
                        f"mode={st.mode & 0o777:#o}, want gid=0 "
                        f"mode={GPU_MODE_UNASSIGNED:#o}",
                        uid=job.uid, job_id=job.job_id, node=node.name)

    def check_gpu_read(self, device, creds) -> None:
        """A /dev read reached the device: no cross-uid residue allowed.

        Only run (:meth:`gpu_read`) when both Section IV-F measures are
        on — with assignment off a stranger's read of a dirty device is
        the documented *configuration* gap the E12/E14 ablations measure,
        not an enforcement failure.
        """
        if self._busy or not self._sampled():
            return
        self._count("I5")
        if (device.last_user_uid is not None and not creds.is_root
                and creds.uid != device.last_user_uid and device.dirty):
            self._violation(
                "I5", f"gpu:nvidia{device.index}",
                f"uid {creds.uid} read dirty device memory last written "
                f"by uid {device.last_user_uid}",
                uid=creds.uid)

    # -- I6: portal ---------------------------------------------------------

    def check_portal_forward(self, portal, user, fwd_creds, app) -> None:
        """A portal forward fetched *app*'s page for *user*.

        Called only on success, with the forwarding process's credentials
        — the 'entire connection path is authenticated and authorized'
        property of Section IV-E.
        """
        if self._busy or not portal.require_auth or not self._sampled():
            return
        self._count("I6")
        subject = f"portal:app/{app.app_id}"
        app_node = getattr(getattr(app, "node", None), "name", None)
        if fwd_creds.uid != user.uid:
            self._violation(
                "I6", subject,
                f"forwarding process ran as uid {fwd_creds.uid}, session "
                f"user is uid {user.uid}",
                uid=user.uid, node=app_node)
        if user.uid != app.owner_uid and not user.is_root:
            listener_egid = app.process.creds.egid
            groups = portal.userdb.groups_of(user)
            if listener_egid not in groups:
                self._violation(
                    "I6", subject,
                    f"uid {user.uid} reached uid {app.owner_uid}'s app "
                    f"without membership in its egid {listener_egid}",
                    uid=user.uid, node=app_node)

    def check_portal_routes(self, portal, session, apps) -> None:
        """The route listing for *session* must contain only its own apps."""
        if self._busy or not self._sampled():
            return
        self._count("I6")
        foreign = sorted({a.owner_uid for a in apps
                          if a.owner_uid != session.user.uid})
        if foreign:
            self._violation(
                "I6", f"portal:routes/uid{session.user.uid}",
                f"route listing exposed apps of uids {foreign}",
                uid=session.user.uid)

    # -- I3: smask / ACL ----------------------------------------------------

    def check_vfs_mode(self, vfs, path: str, creds, stored_mode: int,
                       op: str) -> None:
        """*op* (create/chmod) stored *stored_mode*: smask bits must be 0."""
        if self._busy or not self._sampled():
            return
        self._count("I3")
        if vfs.handler.enabled and not creds.is_root:
            leaked = stored_mode & creds.smask & 0o777
            if leaked:
                self._violation(
                    "I3", f"vfs:{path}",
                    f"{op} by uid {creds.uid} stored mode "
                    f"{stored_mode:#o} carrying smask bits {leaked:#o}",
                    uid=creds.uid)

    def check_vfs_acl(self, vfs, path: str, creds, entry) -> None:
        """A setfacl succeeded: the grant must be legal under restriction."""
        if self._busy or not self._sampled():
            return
        self._count("I3")
        h = vfs.handler
        if not h.enabled or not h.restrict_acls or creds.is_root:
            return
        if entry.tag == "user" and entry.qualifier != creds.uid:
            self._violation(
                "I3", f"vfs:{path}",
                f"ACL grant to foreign uid {entry.qualifier} by uid "
                f"{creds.uid} survived the restriction patch",
                uid=creds.uid)
        elif entry.tag == "group" and not creds.in_group(entry.qualifier):
            self._violation(
                "I3", f"vfs:{path}",
                f"ACL grant to non-member gid {entry.qualifier} by uid "
                f"{creds.uid} survived the restriction patch",
                uid=creds.uid)

    # -- I8: control-plane recovery -----------------------------------------

    def check_recovery(self, cluster, report) -> None:
        """A control-plane recovery completed: separation state must hold.

        Differential replay first — the rebuilt control plane must be
        digest-identical to the state captured at the crash.  Then the
        journal itself is read back as evidence: a node whose last
        administrative record is a fence must still be quarantined, a
        membership whose last record is a revocation must stay revoked,
        and every GPU grant without a matching scrub (or a later
        remediation of its node) must still belong to a live running job.
        Unlike the per-decision checks this never draws from the sampling
        RNG: recoveries are rare, and a draw here would shift every
        subsequent sampled check of the run.
        """
        if self._busy:
            return
        self._count("I8")
        if report.digest_before and not report.identical:
            self._violation(
                "I8", "recovery",
                f"recovered control plane diverged from the crash state "
                f"(digest {report.digest_after} != "
                f"{report.digest_before})")
        spine = getattr(cluster, "persist", None)
        if spine is None:
            return
        records = spine.journal.records()
        self._check_recovery_fences(cluster, records)
        self._check_recovery_membership(cluster, records)
        self._check_recovery_gpus(cluster, records)

    def _check_recovery_fences(self, cluster, records) -> None:
        """No fence forgotten: a node last fenced must stay quarantined."""
        last: dict[str, str] = {}
        for rec in records:
            if rec["op"] in ("fence", "remediate", "resume"):
                last[rec["node"]] = rec["op"]
        sched = cluster.scheduler
        for name, op in sorted(last.items()):
            if op != "fence":
                continue
            node = sched.nodes.get(name)
            if node is None:
                continue
            if not (node.fenced and node.needs_remediation):
                self._violation(
                    "I8", f"node:{name}",
                    "journaled fence was forgotten by recovery: node is "
                    "schedulable without an intervening remediation",
                    node=name)
            elif node.allocations:
                self._violation(
                    "I8", f"node:{name}",
                    f"fenced node still holds allocation(s) for job(s) "
                    f"{sorted(node.allocations)} after recovery",
                    node=name)

    def _check_recovery_membership(self, cluster, records) -> None:
        """No revocation resurrected: a membership last removed stays out."""
        last: dict[tuple[int, int], str] = {}
        for rec in records:
            if rec["op"] in ("member_add", "member_del"):
                last[(rec["gid"], rec["uid"])] = rec["op"]
        db = cluster.userdb
        for (gid, uid), op in sorted(last.items()):
            if op != "member_del":
                continue
            group = db._groups_by_gid.get(gid)
            if group is not None and uid in group.members:
                self._violation(
                    "I8", f"group:gid{gid}",
                    f"revoked membership of uid {uid} resurrected by "
                    f"recovery",
                    uid=uid)

    def _check_recovery_gpus(self, cluster, records) -> None:
        """No grant forgotten: unscrubbed GPUs belong to live jobs only."""
        open_grants: dict[tuple[int, str], list[int]] = {}
        for rec in records:
            if rec["op"] == "gpu_grant":
                open_grants[(rec["job_id"], rec["node"])] = rec["gpus"]
            elif rec["op"] == "gpu_scrub":
                open_grants.pop((rec["job_id"], rec["node"]), None)
            elif rec["op"] == "remediate":
                # remediation scrubs every device on the node
                for key in [k for k in open_grants if k[1] == rec["node"]]:
                    open_grants.pop(key)
        sched = cluster.scheduler
        from repro.sched.jobs import JobState
        for (job_id, node_name), gpus in sorted(open_grants.items()):
            job = sched.jobs.get(job_id)
            node = sched.nodes.get(node_name)
            live = (job is not None and job.state is JobState.RUNNING
                    and node is not None
                    and job_id in node.allocations)
            # a grant stranded on a still-quarantined node is *tracked*
            # residue (the fence check guards its rejoin), not forgotten
            quarantined = node is not None and (node.fenced
                                                or node.needs_remediation)
            if not live and not quarantined:
                self._violation(
                    "I8", f"gpu:{node_name}/job{job_id}",
                    f"granted-but-unscrubbed GPU(s) {gpus} belong to no "
                    f"live running job after recovery",
                    job_id=job_id, node=node_name)

    # -- the decisions it checks (repro.observer) ---------------------------
    def procfs_viewed(self, fs, viewer, procs, op, uids=None):
        self.check_procfs_view(fs, viewer, procs, op, uids)
    def vfs_mode_set(self, vfs, path, creds, mode, op):
        self.check_vfs_mode(vfs, path, creds, mode, op)
    def vfs_acl_set(self, vfs, path, creds, entry):
        self.check_vfs_acl(vfs, path, creds, entry)
    def ubf_cached(self, daemon, key, verdict):
        self.check_ubf_cached(daemon, key, verdict)
    def ubf_concluded(self, daemon, pkt, listener, initiator, verdict):
        self.check_ubf_conclude(daemon, pkt, listener, initiator, verdict)
    def ubf_degraded(self, daemon, verdict):
        self.check_ubf_degraded(daemon, verdict)
    def job_starting(self, scheduler, job, plan):
        self.check_sched_start(scheduler, job, plan)
    def node_remediated(self, scheduler, node, summary):
        self.check_node_rejoin(scheduler, node)
    def control_plane_recovered(self, cluster, report):
        self.check_recovery(cluster, report)
    def portal_routes(self, portal, session, apps):
        self.check_portal_routes(portal, session, apps)
    def portal_forwarded(self, portal, user, creds, app):
        self.check_portal_forward(portal, user, creds, app)

    # the GPU checks follow the Section IV-F measures the cluster enforces
    def prolog_ran(self, job, node, gpus):
        if self.gpu_perms:
            self.check_gpu_assigned(node, job, tuple(gpus))

    def epilog_ran(self, job, node, gpus):
        if self.gpu_perms or self.gpu_scrub:
            self.check_gpu_released(node, job, tuple(gpus),
                                    scrub_expected=self.gpu_scrub,
                                    perms_expected=self.gpu_perms)

    def gpu_read(self, device, creds):
        if self.gpu_perms and self.gpu_scrub:
            self.check_gpu_read(device, creds)
