"""Property test: every denial in a chaos run has a resolvable attribution.

The forensic acceptance bar (ISSUE 6 / experiment E26): after an arbitrary
interleaving of job submissions, cross-user probes, fault injections, and
node failures, **every** deny-kind audit record carrying a real uid must
resolve — via the audit query API alone — to a causal root: the submit
record of the offending job, or the login record of the offending session.
Hypothesis drives random interleavings; the invariant must hold on all of
them, not just the golden scenario of the unit tests.

A second property pins *which* context resolves: ``resolve`` reads
placement from the scheduler, and through submits, node failures with
requeue, control-plane crashes and recoveries it must answer exactly as
an index of who runs where kept eagerly from the scheduler's start and
finish decisions.
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
from repro.observer import Observer
from repro.persist import attach_persistence

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


# -- resolve against an eagerly kept placement index --------------------------

class EagerIndex(Observer):
    """Reference for :meth:`AttributionRegistry.resolve`: an index of who
    runs where kept from the scheduler's start/finish decisions, with the
    same preference order — the newest live job of the uid on that node,
    then its newest live job anywhere, then its session there, then any
    session of it.  Subscribed after the registry, so every job it indexes
    already has a context."""

    def __init__(self, registry):
        self.registry = registry
        self.on_node: dict[str, dict[int, set[int]]] = {}
        self.anywhere: dict[int, set[int]] = {}
        self.placed: dict[int, set[str]] = {}

    def job_started(self, job, charged, useful):
        nodes = self.placed[job.job_id] = {a.node for a in job.allocations}
        for node in nodes:
            self.on_node.setdefault(node, {}).setdefault(
                job.uid, set()).add(job.job_id)
        self.anywhere.setdefault(job.uid, set()).add(job.job_id)

    def job_finished(self, job, state):
        for node in self.placed.pop(job.job_id, ()):
            self.on_node[node][job.uid].discard(job.job_id)
        self.anywhere.get(job.uid, set()).discard(job.job_id)

    def resolve(self, uid, node):
        jobs, sessions = self.registry.jobs, self.registry.sessions
        for jids in (self.on_node.get(node, {}).get(uid),
                     self.anywhere.get(uid)):
            if jids:
                return jobs[max(jids)]
        if (uid, node) in sessions:
            return sessions[(uid, node)]
        return next((ctx for (s_uid, _), ctx in sessions.items()
                     if s_uid == uid), None)


placement_steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 2), st.integers(1, 3),
                  st.sampled_from((1, 8, 16)), st.integers(5, 40)),
        st.tuples(st.just("advance"), st.integers(1, 20)),
        st.tuples(st.just("fail"), st.integers(1, 3)),
        st.tuples(st.just("resume"), st.integers(1, 3)),
        st.just(("crash",)),
        st.just(("recover",)),
    ),
    min_size=3, max_size=16)


@settings(max_examples=25)
@given(logins=st.lists(st.booleans(), min_size=3, max_size=3),
       plan=placement_steps)
def test_resolve_matches_an_eager_placement_index(logins, plan):
    cluster = Cluster.build(LLSC, n_compute=3, users=USERS)
    cluster.scheduler.config.requeue_on_node_fail = True
    attach_persistence(cluster)
    registry = attach_forensics(cluster).registry
    index = EagerIndex(registry)
    cluster.subscribe(index)
    for name, login in zip(USERS, logins):
        if login:
            cluster.login(name)
    sched = cluster.scheduler
    uids = [cluster.user(u).uid for u in USERS]
    nodes = [*sched.nodes, cluster.login_nodes[0].name,
             cluster.portal_node.name, None]
    for step in plan:
        kind = step[0]
        if kind == "submit" and not sched.crashed:
            _, u, ntasks, cores, duration = step
            cluster.submit(USERS[u], ntasks=ntasks, cores_per_task=cores,
                           duration=float(duration))
        elif kind == "advance":
            cluster.run(until=cluster.engine.now + float(step[1]))
        elif kind == "fail" and not sched.crashed:
            sched.fail_node(f"c{step[1]}")
        elif kind == "resume" and not sched.crashed:
            sched.resume(f"c{step[1]}")
        elif kind == "crash" and not sched.crashed:
            cluster.chaos().crash_scheduler()
        elif kind == "recover" and sched.crashed:
            cluster.recover()
        for uid in uids:
            for node in nodes:
                assert registry.resolve(uid, node) is \
                    index.resolve(uid, node), (step, uid, node)
