"""Property test: every denial in a chaos run has a resolvable attribution.

The forensic acceptance bar (ISSUE 6 / experiment E26): after an arbitrary
interleaving of job submissions, cross-user probes, fault injections, and
node failures, **every** deny-kind audit record carrying a real uid must
resolve — via the audit query API alone — to a causal root: the submit
record of the offending job, or the login record of the offending session.
Hypothesis drives random interleavings; the invariant must hold on all of
them, not just the golden scenario of the unit tests.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, LLSC
from repro.faults import FaultKind
from repro.kernel.errors import KernelError, TimedOut
from repro.monitor import instrument_cluster
from repro.monitor.events import EventKind
from repro.obs import attach_forensics

USERS = ("alice", "bob", "mallory")
DENY_KINDS = {EventKind.NET_DENY, EventKind.PAM_DENY, EventKind.FS_DENY,
              EventKind.PROC_DENY, EventKind.SCHED_DENY, EventKind.GPU_DENY,
              EventKind.PORTAL_DENY}

actions = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 2),
                  st.integers(5, 50), st.integers(0, 1)),
        st.tuples(st.just("advance"), st.integers(1, 20)),
        st.tuples(st.just("gpu_probe"), st.integers(0, 2)),
        st.tuples(st.just("ssh_probe"), st.integers(0, 2),
                  st.integers(1, 3)),
        st.tuples(st.just("net_probe"), st.integers(0, 2)),
        st.tuples(st.just("fault"), st.integers(1, 3)),
        st.tuples(st.just("fail"), st.integers(1, 3)),
    ),
    min_size=4, max_size=14)


def _drive(cluster, sessions, plan):
    """Execute *plan* against *cluster*; exceptions denials raise are the
    point, not a failure."""
    port = 5000
    jobs = []
    for step in plan:
        kind = step[0]
        if kind == "submit":
            _, u, duration, gpus = step
            jobs.append(cluster.submit(USERS[u], duration=float(duration),
                                       gpus_per_task=gpus))
            cluster.run(until=cluster.engine.now + 1.0)
        elif kind == "advance":
            cluster.run(until=cluster.engine.now + float(step[1]))
        elif kind == "gpu_probe":
            victim = USERS[step[1]]
            for job in jobs:
                if job.spec.user.name == victim and job.state.name == \
                        "RUNNING" and job.spec.gpus_per_task == 0:
                    try:
                        cluster.job_session(job).sys.open_read(
                            "/dev/nvidia0")
                    except KernelError:
                        pass
                    break
        elif kind == "ssh_probe":
            _, u, node = step
            try:
                cluster.ssh(USERS[u], f"c{node}")
            except KernelError:
                pass
        elif kind == "net_probe":
            attacker = USERS[step[1]]
            for job in jobs:
                if job.state.name == "RUNNING" and \
                        job.spec.user.name != attacker:
                    shell = cluster.job_session(job)
                    port += 1
                    shell.node.net.listen(
                        shell.node.net.bind(shell.process, port))
                    try:
                        sessions[attacker].socket().connect(
                            shell.node.name, port)
                    except (TimedOut, KernelError):
                        pass
                    break
        elif kind == "fault":
            cluster.fabric.faults.inject(
                FaultKind.IDENTD_UNRESPONSIVE, f"c{step[1]}")
        elif kind == "fail":
            name = f"c{step[1]}"
            if name in cluster.scheduler.nodes and \
                    not cluster.scheduler.nodes[name].failed:
                cluster.scheduler.fail_node(name)
    cluster.run(until=cluster.engine.now + 5.0)


@settings(max_examples=12)
@given(plan=actions)
def test_every_denial_resolves_to_job_or_session(plan):
    cluster = Cluster.build(LLSC, n_compute=3, gpus_per_node=1,
                            users=USERS, staff=("sam",))
    log = instrument_cluster(cluster)
    bundle = attach_forensics(cluster)
    # every principal logs in first, so even a job-less probe has a
    # causal root (its interactive session) to resolve to
    sessions = {u: cluster.login(u) for u in USERS}
    _drive(cluster, sessions, plan)

    denies = [r for r in bundle.audit.records
              if r.action == "deny" and r.uid >= 0]
    # every deny-kind *event* with a real uid landed in the trail ...
    n_deny_events = sum(1 for e in log.events
                        if e.kind in DENY_KINDS and e.subject_uid >= 0)
    assert len(denies) == n_deny_events
    # ... and 100% of them resolve through the query API to a causal root
    for rec in denies:
        res = bundle.audit.resolution(rec)
        assert res["resolved"], (rec, res)
        assert res["root"].action in ("submit", "login")
        assert res["uid"] == rec.uid
