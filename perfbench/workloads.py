"""The benchmark's four workloads, generated from a seed.

Every workload runs the ``LLSC`` preset with 32 users in three project
groups and is a closed loop: one caller issues the next operation only
after the previous one returned.  A *round* builds a fresh cluster,
loads the generated inputs and runs every operation once; the runner
repeats rounds for as long as a run lasts, cycling through a few input
*variants* derived from the seed, so that one run averages over several
inputs; every round of one (seed, variant) does identical work and every
per-round count repeats exactly.

A workload is made of *parts*, each owning one kind of traffic:

* :class:`BatchPart` — a job stream drained by ``Engine.step``;
* :class:`WirePart` — MPI-style wire-up through ``HostStack.connect``
  and ``Firewall.evaluate_batch`` into the UBF daemons;
* :class:`InteractivePart` — user requests through PAM, procfs, the VFS,
  ``squeue`` and the portal.

``batch``, ``wireup`` and ``interactive`` each run one part on a cluster
shaped for it; ``armed`` mixes all three at a fixed ratio on one cluster
that carries every optional plane.  Each part knows the outcome every
operation must have from how it generated the input alone, so a wrong
verdict counts as a failed operation and changes the outcome digest.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro import LLSC, Cluster
from repro.kernel.errors import KernelError
from repro.net.firewall import ConnState, FiveTuple, Packet, Proto
from repro.persist.store import MemoryRunStore
from repro.portal.webapp import launch_webapp
from repro.sched.jobs import JobState

USERS = tuple(f"u{i:02d}" for i in range(32))
PROJECTS = {"p0": USERS[:11], "p1": USERS[11:22], "p2": USERS[22:]}
PROJECT_OF = {u: p for p, members in PROJECTS.items() for u in members}
STAFF = ("sam",)
CORES = 16


@dataclass
class Op:
    """One timed call: ``view(fn())`` must equal ``expected``.

    ``fn`` is the only part that is timed; ``view`` reduces what it
    returned (or raised) to the outcome that is checked and digested.
    ``n`` is the number of operations the call attempts (a burst attempts
    several); ``expected`` is ``None`` for calls whose outcome is checked
    when the round ends (engine steps).
    """

    kind: str
    fn: Callable[[], object]
    expected: object = None
    n: int = 1
    view: Callable[[object], object] | None = None


def outcome(result: object) -> object:
    """An error is an outcome too: map it to its class name."""
    if isinstance(result, KernelError):
        return type(result).__name__
    return result


class Digest:
    """Order-sensitive digest of (kind, outcome) pairs."""

    def __init__(self) -> None:
        self._h = hashlib.blake2b(digest_size=8)

    def add(self, item: object) -> None:
        self._h.update(repr(item).encode())
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _build(n_compute: int, *, gpus: int = 0, n_debug: int = 0) -> Cluster:
    return Cluster.build(LLSC, n_compute=n_compute, cores=CORES,
                         gpus_per_node=gpus, n_debug=n_debug, users=USERS,
                         staff=STAFF, projects=PROJECTS)


# -- batch ------------------------------------------------------------------

@dataclass(frozen=True)
class JobReq:
    user: str
    at: float
    duration: float
    ntasks: int
    cores_per_task: int
    gpus_per_task: int
    array: tuple[float, ...] = ()


def strata(rng: random.Random, n: int) -> list[float]:
    """*n* points of [0, 1), one per equal stratum, in seeded order.

    Inputs are drawn stratified rather than independently so that every
    seed gets the same mix (GPU share, array share, job sizes, offered
    load) in a different order: otherwise the spread of the mix between
    seeds, not the program, dominates the spread of the measurements.
    """
    points = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(points)
    return points


def cycle(rng: random.Random, items, n: int) -> list:
    """*n* items: shuffled copies of *items*, one copy after another."""
    out: list = []
    while len(out) < n:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


#: submissions per block of the job stream: one ``--array`` burst of
#: ARRAY_SIZE elements, GPU_JOBS one-GPU-per-task jobs, the rest CPU jobs
BLOCK, ARRAY_SIZE, GPU_JOBS = 20, 8, 5


def job_stream(rng: random.Random, n_jobs: int, n_nodes: int,
               load: float = 0.7) -> list[JobReq]:
    """A near-capacity stream of Poisson arrivals in which about 20% of
    jobs use GPUs and 30% arrive in ``--array`` bursts.

    *load* is the offered share of the cores; whole-node-per-user
    placement strands the rest of a node, so 0.7 keeps a queue.
    """
    out: list[JobReq] = []
    t, n = 0.0, 0
    shapes = [(a, b) for a in (1, 2, 4) for b in (1, 2, 4)]
    while n < n_jobs:
        kinds = cycle(rng, ["array"] + ["gpu"] * GPU_JOBS
                      + ["cpu"] * (BLOCK - 1 - GPU_JOBS), BLOCK)
        sizes = cycle(rng, shapes, BLOCK)
        durations = [10.0 + 50.0 * p for p in strata(rng, BLOCK)]
        block: list[JobReq] = []
        for kind, (ntasks, cpt), dur in zip(kinds, sizes, durations):
            user = rng.choice(USERS)
            if kind == "array":
                block.append(JobReq(user, 0.0, 0.0, 1, cpt % 4 or 1, 0, tuple(
                    round(5.0 + 25.0 * p, 3)
                    for p in strata(rng, ARRAY_SIZE))))
            else:
                block.append(JobReq(user, 0.0, round(dur, 3), ntasks, cpt,
                                    int(kind == "gpu")))
        core_s = sum(r.ntasks * r.cores_per_task * (sum(r.array)
                     or r.duration) for r in block)
        mean_gap = core_s / (BLOCK * load * n_nodes * CORES)
        for r, p in zip(block, strata(rng, BLOCK)):
            t += -mean_gap * math.log(1.0 - p)
            out.append(JobReq(r.user, round(t, 6), r.duration, r.ntasks,
                              r.cores_per_task, r.gpus_per_task, r.array))
            n += len(r.array) or 1
            if n >= n_jobs:
                break
    return out


class BatchPart:
    """Submit a job stream at set-up; each op is one ``Engine.step``.

    The part's operations are completed jobs, so a step reports how many
    jobs it finished.  Placements and accounting rows are digested when
    the stream has drained.
    """

    def __init__(self, rng: random.Random, n_jobs: int, n_nodes: int):
        self.stream = job_stream(rng, n_jobs, n_nodes)
        self.n_jobs = sum(len(r.array) or 1 for r in self.stream)
        self.jobs: list = []

    def load(self, cluster: Cluster) -> None:
        self.cluster = cluster
        submit, submit_array = cluster.submit, cluster.submit_array
        t0 = cluster.engine.now
        for r in self.stream:
            if r.array:
                self.jobs.extend(submit_array(
                    r.user, durations=list(r.array), at=t0 + r.at,
                    ntasks=r.ntasks, cores_per_task=r.cores_per_task))
            else:
                self.jobs.append(submit(
                    r.user, duration=r.duration, ntasks=r.ntasks,
                    cores_per_task=r.cores_per_task,
                    gpus_per_task=r.gpus_per_task, at=t0 + r.at))
        self._done = cluster.metrics.counter("jobs_completed")
        self._seen = self._done.value

    def ops(self) -> Iterator[Op]:
        op = Op("step", self.cluster.engine.step)
        done = self._done
        target = self._seen + self.n_jobs
        while done.value < target:
            yield op

    def completed(self) -> int:
        """Jobs finished since the last call (read after each step)."""
        now = self._done.value
        n, self._seen = now - self._seen, now
        return n

    def failures(self) -> int:
        return sum(1 for j in self.jobs if j.state is not JobState.COMPLETED)

    def placement_digest(self) -> str:
        """Placements plus accounting rows of every job of the stream."""
        d = Digest()
        for j in self.jobs:
            d.add((j.job_id, j.start_time, j.end_time,
                   [(a.node, a.tasks, a.cores, tuple(a.gpu_indices))
                    for a in j.allocations]))
        for r in self.cluster.scheduler.accounting.all_records():
            d.add((r.job_id, r.uid, r.state.name, r.start_time, r.end_time,
                   r.core_seconds, r.nodes))
        return d.hexdigest()


# -- wire-up ----------------------------------------------------------------

class WirePart:
    """MPI-style wire-up of a sequence of jobs across compute nodes.

    Per job with k ranks on k distinct nodes: each rank listens and
    connects to its ring neighbour (one op each, including two sends
    over the new connection, which ride conntrack); one
    ``evaluate_batch`` burst of k-1 peers plus one stranger towards rank
    0; one cross-user probe (must DROP) and one connect to a listener
    running under a project-group egid (must ACCEPT).  Every
    ``MEMBERSHIP_EVERY`` jobs an account change bumps the database
    generation, which flushes every decision cache.
    """

    MEMBERSHIP_EVERY = 80
    BASE_PORT = 20_000

    def __init__(self, rng: random.Random, n_jobs: int, n_nodes: int):
        self.plan = []
        # a few users run most jobs (Zipf-like), so decisions repeat
        ranked = list(USERS)
        rng.shuffle(ranked)
        weights = [1.0 / (r + 1) ** 1.5 for r in range(len(ranked))]
        for k in cycle(rng, (4, 8, 16), n_jobs):
            owner = rng.choices(ranked, weights)[0]
            nodes = rng.sample(range(1, n_nodes + 1), k)
            stranger = rng.choice([u for u in USERS
                                   if PROJECT_OF[u] != PROJECT_OF[owner]])
            peer = rng.choice([u for u in PROJECTS[PROJECT_OF[owner]]
                               if u != owner])
            far = rng.randrange(1, n_nodes + 1)
            self.plan.append((owner, [f"c{n}" for n in nodes], stranger,
                              peer, f"c{far}"))

    def load(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._member = cluster.user(STAFF[0])
        self._steward = {p: cluster.user(m[0]) for p, m in PROJECTS.items()}

    def _proc(self, node: str, user: str, egid: int | None = None):
        c = self.cluster
        creds = c.userdb.credentials_for(c.user(user))
        if egid is not None:
            creds = creds.with_egid(egid)
        host = c.node(node)
        return host, host.procs.spawn(creds, ["rank"])

    def ops(self) -> Iterator[Op]:
        c = self.cluster
        for j, (owner, nodes, stranger, peer, far) in enumerate(self.plan):
            if j and j % self.MEMBERSHIP_EVERY == 0:
                self._toggle_membership(j)
            port = self.BASE_PORT + j % 1000
            ranks = [self._proc(n, owner) for n in nodes]
            listeners = [host.net.listen(host.net.bind(p, port))
                         for host, p in ranks]
            conns = []
            k = len(ranks)
            for i in range(k):
                dst = (i + 1) % k
                yield Op("ring", self._connect_fn(
                    ranks[i], nodes[dst], port, listeners[dst], conns),
                    "ACCEPT")
            burst, teardown = self._burst(ranks, nodes, port, stranger, far)
            yield burst
            teardown()
            s_host, s_proc = self._proc(far, stranger)
            yield Op("probe", self._connect_fn(
                (s_host, s_proc), nodes[0], port, listeners[0], conns),
                "TimedOut")
            gid = c.userdb.group(PROJECT_OF[owner]).gid
            g_host, g_proc = self._proc(nodes[-1], owner, egid=gid)
            g_listener = g_host.net.listen(g_host.net.bind(g_proc, port + 1))
            p_host, p_proc = self._proc(far, peer)
            yield Op("egid", self._connect_fn(
                (p_host, p_proc), nodes[-1], port + 1, g_listener, conns),
                "ACCEPT")
            for end in conns:
                end.close()
            for sock in listeners + [g_listener]:
                sock.closed = True
            for host, proc in ranks + [(s_host, s_proc), (g_host, g_proc),
                                       (p_host, p_proc)]:
                host.procs.reap(proc.pid)

    def _toggle_membership(self, j: int) -> None:
        """Add or remove the staff account from a project group."""
        db = self.cluster.userdb
        pname = sorted(PROJECTS)[(j // self.MEMBERSHIP_EVERY) % 3]
        grp = db.group(pname)
        if self._member.uid in grp.members:
            db.remove_from_project(grp, self._member,
                                   approver=self._steward[pname])
        else:
            db.add_to_project(grp, self._member,
                              approver=self._steward[pname])

    @staticmethod
    def _connect_fn(src, dst_node: str, port: int, listener, conns):
        host, proc = src
        dst = host.net.fabric.host(dst_node)

        def connect() -> str:
            end = host.net.connect(proc, dst_node, port)
            conns.append(end)
            server = dst.accept(listener)
            end.send(b"hello")
            end.send(b"data")
            server.recv()
            server.recv()
            return "ACCEPT"
        return connect

    def _burst(self, ranks, nodes, port, stranger, far):
        """k-1 peers and one stranger hit rank 0's listener together;
        returns the op and the untimed teardown to run after it."""
        s_host, s_proc = self._proc(far, stranger)
        senders = ranks[1:] + [(s_host, s_proc)]
        fw = self.cluster.fabric.host(nodes[0]).firewall
        pkts, socks = [], []
        for host, proc in senders:
            sock = host.net.bind_ephemeral(proc, Proto.TCP)
            socks.append((host, sock))
            pkts.append(Packet(FiveTuple(Proto.TCP, host.name, sock.port,
                                         nodes[0], port),
                               ConnState.NEW, src_uid=proc.creds.uid))
        expected = ("ACCEPT",) * (len(pkts) - 1) + ("DROP",)

        def burst() -> tuple[str, ...]:
            return tuple(v.name for v in fw.evaluate_batch(pkts))

        def teardown() -> None:
            for pkt in pkts:
                fw.conntrack.evict(pkt.flow, reason="close")
            for host, sock in socks:
                sock.closed = True
            s_host.procs.reap(s_proc.pid)
        return Op("burst", burst, expected, n=len(pkts)), teardown


# -- interactive -----------------------------------------------------------

class InteractivePart:
    """User requests against a cluster with running jobs.

    At set-up every user gets one long job — whole-node on the normal
    partition for the first ``n_normal`` users of a seeded order, shared
    on the debug partition for the rest — a web app inside it registered
    with the portal, a portal token and a login shell.  Request kinds
    come in the proportions of ``KINDS``, shuffled block by block.
    """

    KINDS = (("login_ps", 2), ("ssh_pids", 2), ("vfs", 3),
             ("xlistdir", 1), ("squeue", 2), ("portal", 2))
    APP_PORT = 9_000
    JOB_S = 3_500.0

    def __init__(self, rng: random.Random, n_requests: int,
                 n_normal: int):
        self.order = list(USERS)
        rng.shuffle(self.order)
        self.normal = set(self.order[:n_normal])
        kinds = [k for k, w in self.KINDS for _ in range(w)]
        self.requests = []
        for n, kind in enumerate(cycle(rng, kinds, n_requests)):
            user = rng.choice(USERS)
            other = rng.choice([u for u in USERS if u != user])
            self.requests.append((kind, user, other, n))

    def load(self, cluster: Cluster) -> None:
        c = self.cluster = cluster
        self.jobs = {}
        for u in self.order:
            normal = u in self.normal
            self.jobs[u] = c.submit(
                u, duration=self.JOB_S, ntasks=4 if normal else 2,
                partition="normal" if normal else "debug", name="ijob")
        c.run(until=c.engine.now + 1.0)
        self.apps, self.tokens, self.shells = {}, {}, {}
        for i, u in enumerate(USERS):
            job = self.jobs[u]
            node = c.node(job.allocations[0].node)
            proc = node.procs.spawn(
                c.userdb.credentials_for(c.user(u)), ["jupyter-lab"],
                job_id=job.job_id)
            app = launch_webapp(node, proc, self.APP_PORT + i, f"lab-{u}")
            self.apps[u] = c.portal.register(app)
            self.tokens[u] = c.portal.login(u).token
            self.shells[u] = c.login(u)

    def ops(self) -> Iterator[Op]:
        for kind, user, other, n in self.requests:
            yield getattr(self, "_" + kind)(user, other, n)

    def _login_ps(self, user, other, n) -> Op:
        c = self.cluster
        uid = c.user(user).uid

        def login_ps():
            s = c.login(user)
            rows = s.sys.ps()
            s.sys.exit()
            return rows
        # the persistent shell and this one
        return Op("login_ps", login_ps, ("own", 2), view=lambda rows: (
            _own(r.uid == uid for r in rows), len(rows)))

    def _ssh_pids(self, user, other, n) -> Op:
        c = self.cluster
        job = self.jobs[user]
        node = c.node(job.allocations[0].node)
        uid = c.user(user).uid

        def ssh_pids():
            s = c.ssh(user, node.name)
            pids = s.sys.list_proc_pids()
            s.sys.exit()
            return pids
        # the job's tasks, its web app and this shell
        return Op("ssh_pids", ssh_pids, ("own", job.spec.ntasks + 2),
                  view=lambda pids: (_own(node.procs.get(p).creds.uid == uid
                                          for p in pids), len(pids)))

    def _vfs(self, user, other, n) -> Op:
        sys = self.shells[user].sys
        path = f"/home/{user}/f{n}"

        def vfs():
            created = sys.create(path, mode=0o666).mode
            sys.chmod(path, 0o777)
            st = sys.stat(path).mode
            sys.unlink(path)
            return created, st
        # umask 022 then smask 007; chmod 777 is cut back to 770 by smask
        return Op("vfs", vfs, ("0o640", "0o770"),
                  view=lambda modes: tuple(oct(m & 0o777) for m in modes))

    def _xlistdir(self, user, other, n) -> Op:
        sys = self.shells[user].sys
        return Op("xlistdir", lambda: sys.listdir(f"/home/{other}"),
                  "AccessDenied")

    def _squeue(self, user, other, n) -> Op:
        view = self.cluster.scheduler_view
        u = self.cluster.user(user)
        job_id = self.jobs[user].job_id
        return Op("squeue", lambda: view.squeue(u), ("own", True),
                  view=lambda rows: (_own(r.user_name == user for r in rows),
                                     any(r.job_id == job_id for r in rows)))

    def _portal(self, user, other, n) -> Op:
        portal = self.cluster.portal
        token, app = self.tokens[user], self.apps[user]
        marker = f"uid={self.cluster.user(user).uid}".encode()
        return Op("portal", lambda: portal.connect(token, app), True,
                  view=lambda page: marker in page)


def _own(checks) -> str:
    return "own" if all(checks) else "leak"


# -- rounds -----------------------------------------------------------------

class Round:
    """One fresh cluster with its parts' inputs loaded; see module doc."""

    #: armed mix: relative weights of the parts' next operation
    MIX = (3, 3, 2)
    #: outcomes that are kernel permission denials (EACCES / EPERM)
    DENIALS = ("AccessDenied", "PermissionError_")

    def __init__(self, workload: str, seed: int, size: float = 1.0,
                 variant: int = 0):
        rng = random.Random(f"{workload}:{seed}:{variant}")
        self.workload = workload
        n = lambda base: max(1, int(base * size))  # noqa: E731
        self.batch = self.wire = self.interactive = None
        if workload == "batch":
            self.batch = BatchPart(rng, n(700), 64)
        elif workload == "wireup":
            self.wire = WirePart(rng, n(160), 32)
        elif workload == "interactive":
            self.interactive = InteractivePart(rng, n(4000), 12)
        elif workload == "armed":
            self.batch = BatchPart(rng, n(600), 32)
            self.wire = WirePart(rng, n(24), 32)
            self.interactive = InteractivePart(rng, n(800), 0)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        self._mix_rng = random.Random(f"mix:{seed}:{variant}")
        self.attempted = 0
        self.failed = 0
        self.denials = 0
        self.actual = Digest()
        self.expected = Digest()

    def setup(self, store_factory=MemoryRunStore, on_build=None) -> Cluster:
        """Build the cluster and load the generated inputs.

        ``on_build(cluster)`` runs after the cluster (and, for ``armed``,
        its optional planes) exists and before any input is loaded.
        """
        w = self.workload
        if w == "batch":
            c = _build(64, gpus=2)
        elif w == "wireup":
            c = _build(32)
        elif w == "interactive":
            c = _build(16, n_debug=4)
        else:
            c = _build(32, gpus=2, n_debug=4)
            _arm(c, store_factory())
        if on_build is not None:
            on_build(c)
        # the interactive jobs go first so the debug partition is theirs
        for part in (self.interactive, self.batch, self.wire):
            if part is not None:
                part.load(c)
        self.cluster = c
        return c

    def ops(self) -> Iterator[Op]:
        parts = [p for p in (self.batch, self.wire, self.interactive)
                 if p is not None]
        if len(parts) == 1:
            yield from parts[0].ops()
            return
        streams = [p.ops() for p in parts]
        mix = [i for i, w in enumerate(self.MIX) for _ in range(w)]
        live = set(range(len(streams)))
        rng = self._mix_rng
        while live:
            for i in cycle(rng, mix, len(mix)):
                if i in live:
                    op = next(streams[i], None)
                    if op is None:
                        live.discard(i)
                    else:
                        yield op

    def settle(self, op: Op, result: object) -> int:
        """Check one call's outcome; returns the operations it completed."""
        if op.kind == "step":
            return self.batch.completed()
        if op.view is not None and not isinstance(result, KernelError):
            result = op.view(result)
        result = outcome(result)
        self.actual.add((op.kind, result))
        self.expected.add((op.kind, op.expected))
        self.attempted += op.n
        if result in self.DENIALS:
            self.denials += 1
        if result != op.expected:
            if op.kind == "burst":
                self.failed += sum(a != e for a, e in
                                   zip(result, op.expected))
            else:
                self.failed += op.n
        return op.n

    def finish(self) -> None:
        """End-of-round checks: the job stream and the oracle."""
        if self.batch is not None:
            self.attempted += self.batch.n_jobs
            self.failed += self.batch.failures()
        oracle = self.cluster.oracle
        if oracle is not None and oracle.violations:
            self.failed += len(oracle.violations)

    def counts(self) -> dict[str, float]:
        """The round's exact per-layer counts, from the program itself."""
        c = self.cluster
        m = c.metrics

        def total(name: str) -> int:
            return sum(x.value for x in m.family(name))

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0
        fast = total("conntrack_fastpath_packets")
        telemetry, forensics = c.telemetry, c.forensics
        return {
            "sim.events": c.engine.events_processed,
            "sched.nodes_examined_per_job": ratio(
                total("sched_dispatch_scan"), total("jobs_started")),
            "kernel.denials": self.denials,
            "net.conntrack_fastpath_ratio": ratio(
                fast, fast + total("rule_walks")),
            "ubf.cache_hit_ratio": ratio(total("ubf_cache_hits"),
                                         total("nfqueue_decisions")),
            "ubf.full_decisions": total("ubf_full_decisions"),
            "ubf.ident_round_trips": total("ident_round_trips"),
            "oracle.checks": total("oracle_checks_total"),
            "obs.audit_records": len(forensics.audit) if forensics else 0,
            "obs.spans": len(telemetry.tracer.finished_spans())
            if telemetry else 0,
        }


def _arm(c: Cluster, store) -> None:
    """Attach every optional plane, in the documented order."""
    from repro.monitor import instrument_cluster
    from repro.obs import attach_forensics, attach_telemetry
    from repro.oracle import attach_oracle
    from repro.persist import attach_persistence
    instrument_cluster(c)
    attach_telemetry(c)
    attach_forensics(c)
    attach_oracle(c, sampling_rate=0.01)
    attach_persistence(c, store)


def reference_digest(seed: int, size: float, variant: int) -> str:
    """The job stream's placements, replayed under the separation oracle.

    The oracle runs at full sampling and fail-fast: every start is
    checked against the whole-node-per-user and capacity rules and
    shadowed by the reference first-fit placement the indexed dispatcher
    is differentially tested against, and every GPU prolog/epilog against
    its custody rules.  The measured rounds must reproduce the digest of
    this certified replay.
    """
    from repro.oracle import SeparationViolation, attach_oracle
    rnd = Round("batch", seed, size, variant)
    rnd.setup(on_build=lambda c: attach_oracle(c, fail_fast=True))
    try:
        for op in rnd.ops():
            op.fn()
            rnd.settle(op, None)
    except SeparationViolation as exc:
        return f"violation: {exc}"
    return rnd.batch.placement_digest()
