"""Cluster assembly: one call builds the whole simulated HPC system.

:meth:`Cluster.build` takes a :class:`~repro.core.config.SeparationConfig`
and produces login nodes, compute nodes (with GPUs), a portal host, the
central filesystems mounted everywhere, the fabric with per-host firewalls
and UBF daemons, the scheduler with the configured node-sharing policy and
GPU prolog/epilog, PAM stacks (pam_smask, pam_slurm), and the account
database with user-private groups and approved project groups.

A :class:`Session` is a logged-in shell: the PAM-produced credentials, a
spawned shell process, and the syscall façade user code programs against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.containers.runtime import SingularityRuntime
from repro.core.config import SeparationConfig
from repro.kernel.errors import InvalidArgument, NoSuchEntity
from repro.kernel.node import LinuxNode, NodeRole, NodeSpec, ROOT_CREDS
from repro.kernel.pam import PamModule, PamSlurm, PamSmask, PamStack, PamUnix
from repro.kernel.procfs import ProcMountOptions
from repro.kernel.smask import FilePermissionHandler
from repro.kernel.syscalls import ObservedSyscalls, SyscallInterface
from repro.kernel.users import Group, User, UserDB
from repro.kernel.vfs import Filesystem
from repro.net.firewall import Firewall, ubf_ruleset
from repro.net.rdma import RDMAFabric
from repro.net.stack import Fabric, HostStack
from repro.observer import Observers
from repro.portal.gateway import Portal
from repro.sched.jobs import Job, JobSpec
from repro.sched.nodes import ComputeNode
from repro.sched.partitions import Partition
from repro.sched.policies import NodeSharing
from repro.sched.privatedata import SchedulerView
from repro.sched.prolog_epilog import (
    GpuSeparationConfig,
    make_epilog,
    make_prolog,
    make_remediator,
)
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sim.engine import Engine
from repro.sim.metrics import MetricSet
from repro.net.ubf import UBFDaemon


@dataclass
class Session:
    """A logged-in shell on one node."""

    cluster: "Cluster"
    user: User
    node: LinuxNode
    sys: SyscallInterface

    @property
    def creds(self):
        return self.sys.creds

    @property
    def process(self):
        return self.sys.process

    def sg(self, group_name: str) -> "Session":
        """Switch effective gid (``sg <group>``) for this shell."""
        grp = self.cluster.userdb.group(group_name)
        self.sys.newgrp(grp.gid)
        return self

    def socket(self):
        return self.sys.socket()


@dataclass
class Cluster:
    """The assembled system."""

    config: SeparationConfig
    userdb: UserDB
    engine: Engine
    metrics: MetricSet
    fabric: Fabric
    home_fs: Filesystem
    scratch_fs: Filesystem
    login_nodes: list[LinuxNode]
    compute_nodes: list[ComputeNode]
    portal_node: LinuxNode
    scheduler: Scheduler
    scheduler_view: SchedulerView
    portal: Portal
    rdma: RDMAFabric
    ubf_daemons: dict[str, UBFDaemon] = field(default_factory=dict)
    seepid_group: Group | None = None
    workstations: dict[str, LinuxNode] = field(default_factory=dict)
    dtn_nodes: list[LinuxNode] = field(default_factory=list)
    #: observability registry; set by repro.obs.attach_telemetry.  When
    #: present, new sessions get a syscall façade it observes (allow/deny
    #: counts) — behaviour is unchanged either way.
    telemetry: "object | None" = None
    #: separation oracle; set by repro.oracle.attach_oracle (or the
    #: REPRO_ORACLE=1 environment gate below).  Strictly additive.
    oracle: "object | None" = None
    #: node health monitor; set by repro.sched.health.attach_health.
    #: None = no heartbeat traffic, no fencing (admin fail_node still works).
    health: "object | None" = None
    #: forensic audit plane; set by repro.obs.attach_forensics.  Its
    #: registry turns each ``session_opened`` into an auditable login.
    #: Strictly additive.
    forensics: "object | None" = None
    #: persistence spine; set by repro.persist.attach_persistence.  When
    #: present, every mutating control-plane operation is journaled and
    #: :meth:`recover` can rebuild the control plane after a crash.
    persist: "object | None" = None
    #: every plane subscribed so far (:meth:`subscribe`), in order; told
    #: of each shell the cluster opens (``session_opened``)
    observers: Observers = field(default_factory=Observers)
    #: every node by name, for :meth:`node` (filled by :meth:`build` and
    #: :meth:`add_workstation`)
    _nodes: dict[str, LinuxNode] = field(default_factory=dict, init=False,
                                         repr=False)

    # ------------------------------------------------------------------ build

    @classmethod
    def build(cls, config: SeparationConfig, *, n_compute: int = 4,
              n_login: int = 1, cores: int = 16, mem_mb: int = 64_000,
              gpus_per_node: int = 0, n_debug: int = 0, n_dtn: int = 0,
              debug_time_limit: float = 3600.0,
              users: tuple[str, ...] = ("alice", "bob"),
              staff: tuple[str, ...] = ("sam",),
              projects: dict[str, tuple[str, ...]] | None = None) -> "Cluster":
        """Assemble a cluster.

        ``users``/``staff`` name the accounts to create; ``projects`` maps a
        project-group name to its member usernames (the first member is the
        data steward).  ``n_debug > 0`` adds an interactive debug partition
        of that many nodes — SHARED (multi-user) with a short time limit,
        the kind of node the paper says keeps needing process hiding even
        under whole-node batch scheduling.
        """
        userdb = UserDB(upg=config.upg)
        for name in users:
            userdb.add_user(name)
        for name in staff:
            userdb.add_user(name, support_staff=True)
        for pname, members in (projects or {}).items():
            if not members:
                continue
            steward = userdb.user(members[0])
            grp = userdb.add_project_group(pname, steward=steward)
            for m in members[1:]:
                userdb.add_to_project(grp, userdb.user(m), approver=steward)

        seepid_group = None
        proc_gid = None
        if config.seepid_group:
            seepid_group = userdb.add_system_group("seepid", members=set())
            proc_gid = seepid_group.gid

        engine = Engine()
        metrics = MetricSet()
        fabric = Fabric(metrics)
        handler = FilePermissionHandler(
            enabled=config.file_permission_handler,
            restrict_acls=config.restrict_acls)
        proc_options = ProcMountOptions(hidepid=config.hidepid, gid=proc_gid)

        home_fs = Filesystem("lustre-home")
        scratch_fs = Filesystem("lustre-scratch",
                                honors_smask=config.lustre_honors_smask)

        ubf_daemons: dict[str, UBFDaemon] = {}
        # Each node gets its PAM stack once, here; pam_slurm needs the
        # scheduler, so it joins the compute nodes' stacks further down.
        base_modules: list[PamModule] = [PamUnix()]
        if config.file_permission_handler and config.smask:
            base_modules.append(PamSmask(config.smask))

        def make_node(name: str, role: NodeRole, spec: NodeSpec) -> LinuxNode:
            node = LinuxNode(name, userdb, role=role, spec=spec,
                             handler=handler, proc_options=proc_options,
                             pam=PamStack(list(base_modules)),
                             protected_symlinks=config.protected_symlinks,
                             protected_hardlinks=config.protected_hardlinks)
            node.vfs.clock = lambda: engine.now
            node.mount_shared("/home", home_fs)
            node.mount_shared("/scratch", scratch_fs)
            fw = Firewall(rules=ubf_ruleset() if config.ubf else [])
            fw.conntrack.enabled = config.conntrack
            stack = HostStack(node, fabric, firewall=fw)
            if config.ubf:
                ubf_daemons[name] = UBFDaemon(
                    stack, fabric, userdb,
                    cache_enabled=config.ubf_cache,
                    fail_open=config.ubf_fail_open).install()
            return node

        login_nodes = [make_node(f"login{i}", NodeRole.LOGIN, NodeSpec())
                       for i in range(1, n_login + 1)]
        compute_raw = [
            make_node(f"c{i}", NodeRole.COMPUTE,
                      NodeSpec(cores=cores, mem_mb=mem_mb,
                               gpus=gpus_per_node))
            for i in range(1, n_compute + 1)
        ]
        debug_raw = [
            make_node(f"d{i}", NodeRole.COMPUTE,
                      NodeSpec(cores=cores, mem_mb=mem_mb))
            for i in range(1, n_debug + 1)
        ]
        portal_node = make_node("portal", NodeRole.PORTAL, NodeSpec())
        dtn_nodes = [make_node(f"dtn{i}", NodeRole.DTN, NodeSpec())
                     for i in range(1, n_dtn + 1)]

        gpu_mode = 0o000 if config.gpu_dev_assignment else 0o666
        compute_nodes = [ComputeNode.create(n, gpu_dev_mode=gpu_mode)
                         for n in compute_raw + debug_raw]

        partitions = [Partition("normal",
                                tuple(n.name for n in compute_raw))]
        if debug_raw:
            partitions.append(Partition(
                "debug", tuple(n.name for n in debug_raw),
                policy_override=NodeSharing.SHARED,
                max_duration=debug_time_limit, interactive=True))

        gpu_cfg = GpuSeparationConfig(
            assign_device_perms=config.gpu_dev_assignment,
            scrub_on_epilog=config.gpu_scrub)
        scheduler = Scheduler(
            engine, compute_nodes,
            SchedulerConfig(policy=config.node_policy,
                            backfill=config.backfill),
            metrics=metrics,
            prolog=make_prolog(gpu_cfg),
            epilog=make_epilog(gpu_cfg),
            partitions=partitions)
        # Fenced nodes skip their victims' epilogs; the remediator is the
        # node-level recovery of the same Section IV-F post-conditions,
        # run by Scheduler.remediate before the node rejoins dispatch.
        scheduler.remediator = make_remediator(gpu_cfg)

        if config.pam_slurm:
            for cn in compute_nodes:
                cn.node.pam.modules.append(
                    PamSlurm(has_job_on=scheduler.user_has_job_on))

        cluster = cls(
            config=config, userdb=userdb, engine=engine, metrics=metrics,
            fabric=fabric, home_fs=home_fs, scratch_fs=scratch_fs,
            login_nodes=login_nodes, compute_nodes=compute_nodes,
            portal_node=portal_node, scheduler=scheduler,
            scheduler_view=SchedulerView(
                scheduler, config.private_data,
                operators=frozenset(userdb.user(s).uid for s in staff)),
            portal=Portal(fabric=fabric, userdb=userdb, node=portal_node,
                          require_auth=config.portal_auth,
                          session_ttl=config.portal_session_ttl,
                          clock=lambda: engine.now),
            rdma=RDMAFabric(fabric),
            ubf_daemons=ubf_daemons,
            seepid_group=seepid_group,
            dtn_nodes=dtn_nodes,
        )
        cluster._nodes.update(
            (n.name, n) for n in login_nodes + dtn_nodes + [portal_node]
            + compute_raw + debug_raw)
        cluster._build_storage_layout(projects or {})
        if os.environ.get("REPRO_ORACLE"):
            # Suite-wide invariant checking: REPRO_ORACLE=1 arms every
            # cluster any test builds, fail-fast by default so a violating
            # decision fails the test that made it (the CI oracle job).
            from repro.oracle import attach_oracle
            attach_oracle(
                cluster,
                sampling_rate=float(
                    os.environ.get("REPRO_ORACLE_RATE", "1.0")),
                shadow_rate=float(os.environ["REPRO_ORACLE_SHADOW"])
                if "REPRO_ORACLE_SHADOW" in os.environ else None,
                fail_fast=os.environ.get("REPRO_ORACLE_FAILFAST",
                                         "1") != "0")
        return cluster

    def _build_storage_layout(self, projects: dict[str, tuple[str, ...]]) -> None:
        """Home directories, scratch, and project areas on the central FS."""
        v = self.login_nodes[0].vfs  # any node: the FS objects are shared
        cfg = self.config
        for user in self.userdb.users():
            if user.is_root:
                continue
            path = f"/home/{user.name}"
            v.mkdir(path, ROOT_CREDS, mode=cfg.home_mode)
            if cfg.root_owned_homes:
                # owned by root, group = the user's (private) group
                v.chown(path, ROOT_CREDS, gid=user.primary_gid)
            else:
                v.chown(path, ROOT_CREDS, uid=user.uid, gid=user.primary_gid)
        self.scratch_fs.root.mode = 0o1777
        if projects:
            v.mkdir("/home/proj", ROOT_CREDS, mode=0o755)
            for pname in projects:
                grp = self.userdb.group(pname)
                ppath = f"/home/proj/{pname}"
                v.mkdir(ppath, ROOT_CREDS, mode=0o2770)
                v.chown(ppath, ROOT_CREDS, gid=grp.gid)

    # ------------------------------------------------------------- planes

    def subscribe(self, observer) -> None:
        """Add *observer* (a :class:`repro.observer.Observer`) to every
        enforcement point; a health monitor attached later starts from
        :attr:`observers`."""
        self.observers.append(observer)
        points = [self.scheduler, self.userdb, self.portal, self.fabric.faults,
                  *self.ubf_daemons.values(),
                  *(g for cn in self.compute_nodes for g in cn.gpus)]
        for node in (self.login_nodes + self.dtn_nodes + [self.portal_node]
                     + [cn.node for cn in self.compute_nodes]):
            points += (node.procfs, node.vfs, node.pam)
        if self.health is not None:
            points.append(self.health)
        for point in points:
            point.observers.append(observer)

    # ------------------------------------------------------------------ chaos

    def chaos(self) -> "object":
        """A :class:`~repro.faults.ChaosController` bound to this cluster."""
        from repro.faults import ChaosController
        return ChaosController(self)

    def recover(self) -> "object":
        """Recover a crashed control plane from the persistence spine.

        Snapshot load + journal-suffix replay + timer re-arm + UBF
        generation bump; returns a
        :class:`~repro.persist.recovery.RecoveryReport`.  Requires
        :func:`repro.persist.attach_persistence` to have been armed
        before the crash.
        """
        from repro.persist.recovery import recover_cluster
        return recover_cluster(self)

    # ------------------------------------------------------------------ access

    def user(self, name: str) -> User:
        return self.userdb.user(name)

    def login(self, username: str, *, login_index: int = 0) -> Session:
        """Interactive login on a login node."""
        return self._open_session(self.user(username),
                                  self.login_nodes[login_index])

    def ssh(self, username: str, node_name: str) -> Session:
        """ssh to an arbitrary node — pam_slurm applies on compute nodes."""
        return self._open_session(self.user(username),
                                  self.node(node_name))

    def _open_session(self, user: User, node: LinuxNode) -> Session:
        creds = node.open_session(user)
        proc = node.procs.spawn(creds, ["-bash"])
        for f in self.observers.session_opened:
            f(user, node.name)
        return Session(cluster=self, user=user, node=node,
                       sys=self._facade(node, proc))

    def _facade(self, node: LinuxNode, proc) -> SyscallInterface:
        """The syscall façade for one process; observed by telemetry when
        it is attached (same interface, same outcomes)."""
        if self.telemetry is None:
            return SyscallInterface(node, proc)
        return ObservedSyscalls(node, proc, [self.telemetry])

    def node(self, name: str) -> LinuxNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise NoSuchEntity(f"node {name!r}") from None

    def compute(self, name: str) -> ComputeNode:
        return self.scheduler.nodes[name]

    def add_workstation(self, username: str) -> LinuxNode:
        """The user's own computer (where they may build containers)."""
        name = f"{username}-laptop"
        ws = LinuxNode(name, self.userdb, role=NodeRole.WORKSTATION)
        self.workstations[name] = self._nodes[name] = ws
        return ws

    def singularity(self, node_name: str) -> SingularityRuntime:
        return SingularityRuntime(
            self.node(node_name),
            allowed_users=self.config.singularity_users)

    # ------------------------------------------------------------------ jobs

    def submit(self, username: str, *, duration: float, name: str = "job",
               ntasks: int = 1, cores_per_task: int = 1,
               mem_mb_per_task: int = 1000, gpus_per_task: int = 0,
               command: str = "./run.sh", exclusive: bool = False,
               oom_bomb: bool = False, partition: str = "normal",
               at: float | None = None) -> Job:
        spec = JobSpec(user=self.user(username), name=name, ntasks=ntasks,
                       cores_per_task=cores_per_task,
                       mem_mb_per_task=mem_mb_per_task,
                       gpus_per_task=gpus_per_task, command=command,
                       workdir=f"/home/{username}", exclusive=exclusive,
                       oom_bomb=oom_bomb, partition=partition)
        return self.scheduler.submit(spec, duration, at=at)

    def submit_array(self, username: str, *, durations: list[float],
                     name: str = "array", at: float | None = None,
                     **spec_kw) -> list[Job]:
        """sbatch --array convenience (one element per duration)."""
        spec = JobSpec(user=self.user(username), name=name,
                       workdir=f"/home/{username}", **spec_kw)
        return self.scheduler.submit_array(spec, durations, at=at)

    def run(self, until: float | None = None) -> float:
        """Advance virtual time."""
        return self.engine.run(until)

    def job_session(self, job: Job) -> Session:
        """A shell inside a running job (srun --pty style): the first task's
        node, same credentials the tasks run with."""
        if not job.allocations:
            raise InvalidArgument(f"job {job.job_id} is not running")
        node = self.node(job.allocations[0].node)
        creds = self.userdb.credentials_for(job.spec.user)
        if self.config.file_permission_handler and self.config.smask:
            creds = creds.with_smask(self.config.smask)
        proc = node.procs.spawn(creds, ["job-shell"], job_id=job.job_id)
        return Session(cluster=self, user=job.spec.user, node=node,
                       sys=self._facade(node, proc))
