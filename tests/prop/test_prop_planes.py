"""Property: attaching the optional planes never changes enforcement.

A random short program of user operations runs twice: on a bare cluster
and on one carrying all six optional planes — the security-event log,
telemetry, forensics, the separation oracle (full sampling, fail-fast),
the health monitor and persistence — attached in a Hypothesis-chosen
order.  Every operation must have the same outcome on both clusters (its
value, or the class of the kernel error it raised) and both must end with
the same control-plane state digest.

How the digests are compared: :func:`~repro.persist.snapshot.state_digest`
includes the health monitor's rows only when a monitor is attached, and
only the armed cluster has one.  The armed cluster is therefore digested
with ``health=None``, and its monitor's rows are checked on their own:
no fault is ever injected, so every node must still be UP with no missed
heartbeat, no quarantine and no purge.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, LLSC
from repro.kernel.errors import KernelError
from repro.kernel.syscalls import SyscallInterface
from repro.monitor import instrument_cluster
from repro.net import ConnState, FiveTuple, Packet, Proto
from repro.obs import attach_forensics, attach_telemetry
from repro.oracle import attach_oracle
from repro.persist import attach_persistence, state_digest
from repro.portal import launch_webapp
from repro.sched.health import NodeHealth, attach_health

USERS = ("alice", "bob", "carol")
PROJECTS = {"proj": ("alice", "bob")}

PLANES = {
    "log": instrument_cluster,
    "telemetry": attach_telemetry,
    "forensics": attach_forensics,
    "oracle": lambda c: attach_oracle(c, fail_fast=True),
    "health": lambda c: attach_health(c).start(),
    "persistence": attach_persistence,
}


@pytest.fixture(autouse=True, scope="module")
def _no_env_oracle():
    """Keep ``REPRO_ORACLE`` from arming the bare cluster too (the CI
    oracle job exports it for the whole suite)."""
    with pytest.MonkeyPatch.context() as mp:
        for var in ("REPRO_ORACLE", "REPRO_ORACLE_RATE",
                    "REPRO_ORACLE_SHADOW", "REPRO_ORACLE_FAILFAST"):
            mp.delenv(var, raising=False)
        yield


def build() -> Cluster:
    return Cluster.build(LLSC, n_compute=3, gpus_per_node=1, users=USERS,
                         staff=("sam",), projects=PROJECTS)


class World:
    """One cluster plus the handles a program creates on it lazily, in
    program order, so both clusters create them identically."""

    def __init__(self, cluster: Cluster):
        self.c = cluster
        self.shells: dict = {}
        self.jobs: list = []
        self.listeners: dict = {}
        self.apps: dict = {}

    def shell(self, user):
        if user not in self.shells:
            self.shells[user] = self.c.login(user)
        return self.shells[user]

    def proc(self, user, node):
        host = self.c.node(node)
        creds = self.c.userdb.credentials_for(self.c.user(user))
        return host, host.procs.spawn(creds, ["rank"])

    def listener(self, user):
        """*user*'s server socket on c1 (one per user, bound once)."""
        if user not in self.listeners:
            host, proc = self.proc(user, "c1")
            port = 6000 + USERS.index(user)
            self.listeners[user] = (port,
                                    host.net.listen(host.net.bind(proc,
                                                                  port)))
        return self.listeners[user]

    def app(self, user):
        """*user*'s web app on c2, registered with the portal."""
        if user not in self.apps:
            host, proc = self.proc(user, "c2")
            app = launch_webapp(host, proc, 8000 + USERS.index(user),
                                f"lab-{user}")
            self.apps[user] = self.c.portal.register(app)
        return self.apps[user]

    # -- operations -------------------------------------------------------

    def op_submit(self, user, gpus, duration):
        job = self.c.submit(user, duration=duration, gpus_per_task=gpus)
        self.jobs.append(job)
        return job.job_id

    def op_array(self, user, n):
        jobs = self.c.submit_array(user, durations=[5.0] * n)
        self.jobs.extend(jobs)
        return [j.job_id for j in jobs]

    def op_run(self, dt):
        self.c.run(until=self.c.engine.now + dt)
        return [(j.job_id, j.state.name, tuple(j.nodes)) for j in self.jobs]

    def op_login(self, user):
        s = self.c.login(user)
        return s.creds.uid, s.creds.egid, s.creds.smask

    def op_ssh(self, user, node):
        s = self.c.ssh(user, f"c{node}")
        return s.node.name, s.creds.uid

    def job_nodes(self, user, *, gpus=False):
        """Nodes running one of *user*'s (GPU) jobs, in job order."""
        return [n for j in self.jobs
                if j.spec.user.name == user and j.state.name == "RUNNING"
                and (j.spec.gpus_per_task or not gpus)
                for n in j.nodes]

    def op_ssh_job(self, user):
        """ssh to a node running one of *user*'s jobs, if there is one."""
        nodes = self.job_nodes(user)
        s = self.c.ssh(user, nodes[0] if nodes else "c1")
        return s.node.name, s.creds.uid

    def op_create(self, user, owner, name):
        path = f"/home/{owner}/{name}"
        return oct(self.shell(user).sys.create(path, mode=0o666).mode)

    def op_chmod(self, user, owner, name, mode):
        return oct(self.shell(user).sys.chmod(f"/home/{owner}/{name}",
                                              mode))

    def op_read(self, user, owner, name):
        return self.shell(user).sys.open_read(f"/home/{owner}/{name}")

    def op_ps(self, user):
        return sorted((e.pid, e.uid) for e in self.shell(user).sys.ps())

    def op_cmdline(self, user, other):
        pid = self.shell(other).process.pid
        return self.shell(user).sys.read_proc_cmdline(pid)

    def op_connect(self, user, owner):
        port, sock = self.listener(owner)
        host, proc = self.proc(user, "c2")
        host.net.connect(proc, "c1", port)
        self.c.fabric.host("c1").accept(sock)
        return "ACCEPT"

    def op_burst(self, user, owner, other):
        """One ``evaluate_batch`` burst from two initiators."""
        port, _ = self.listener(owner)
        pkts = []
        for who, node in ((user, "c2"), (other, "c3")):
            host, proc = self.proc(who, node)
            sock = host.net.bind_ephemeral(proc, Proto.TCP)
            pkts.append(Packet(FiveTuple(Proto.TCP, node, sock.port, "c1",
                                         port),
                               ConnState.NEW, src_uid=proc.creds.uid))
        fw = self.c.fabric.host("c1").firewall
        return [v.name for v in fw.evaluate_batch(pkts)]

    def op_portal(self, user, with_token):
        app = self.app(user)
        token = self.c.portal.login(user).token if with_token else None
        return self.c.portal.connect(token, app)

    def op_gpu_read(self, user, node):
        """Open a GPU: on a node the user's GPU job holds, if any."""
        nodes = self.job_nodes(user, gpus=True)
        host, proc = self.proc(user, nodes[0] if nodes else f"c{node}")
        return len(SyscallInterface(host, proc).open_read("/dev/nvidia0"))

    def op_revoke(self):
        self.c.userdb.remove_from_project(
            "proj", self.c.user("bob"), approver=self.c.user("alice"))
        return sorted(self.c.userdb.group("proj").members)

    def apply(self, op):
        """The op's outcome: its value, or its kernel error's class."""
        try:
            return getattr(self, "op_" + op[0])(*op[1:])
        except KernelError as exc:
            return type(exc).__name__


user = st.sampled_from(USERS)
node = st.integers(1, 3)
name = st.sampled_from(("f", "g"))
OPS = st.one_of(
    st.tuples(st.just("submit"), user, st.integers(0, 1),
              st.sampled_from((5.0, 40.0))),
    st.tuples(st.just("array"), user, st.integers(1, 3)),
    st.tuples(st.just("run"), st.sampled_from((1.0, 10.0, 60.0))),
    st.tuples(st.just("login"), user),
    st.tuples(st.just("ssh"), user, node),
    st.tuples(st.just("ssh_job"), user),
    st.tuples(st.just("create"), user, user, name),
    st.tuples(st.just("chmod"), user, user, name,
              st.sampled_from((0o777, 0o640))),
    st.tuples(st.just("read"), user, user, name),
    st.tuples(st.just("ps"), user),
    st.tuples(st.just("cmdline"), user, user),
    st.tuples(st.just("connect"), user, user),
    st.tuples(st.just("burst"), user, user, user),
    st.tuples(st.just("portal"), user, st.booleans()),
    st.tuples(st.just("gpu_read"), user, node),
    st.tuples(st.just("revoke")),
)


@settings(max_examples=50)
@given(program=st.lists(OPS, min_size=1, max_size=14),
       order=st.permutations(sorted(PLANES)))
def test_planes_never_change_outcomes_or_state(program, order):
    bare, armed = build(), build()
    for plane in order:
        PLANES[plane](armed)
    worlds = World(bare), World(armed)
    for op in program:
        want, got = (w.apply(op) for w in worlds)
        assert got == want, op

    rows = armed.health.nodes.values()
    assert all(lc.state is NodeHealth.UP and lc.missed == 0
               and not lc.quarantined_until and not lc.purged
               for lc in rows)
    armed_view = SimpleNamespace(scheduler=armed.scheduler,
                                 userdb=armed.userdb, health=None)
    assert state_digest(armed_view) == state_digest(bare)
    assert not armed.oracle.violations
