"""Multi-zone cluster simulation: one scheduler zone per simulation zone.

This is the cluster-shaped :class:`~repro.sim.shard.SimZone` the sharded
engine scales out (DESIGN.md "Sharded simulation architecture").  Each zone
is a self-contained slice of the paper's system — its own
:class:`~repro.sched.scheduler.Scheduler`, compute nodes, user database,
RNG substream and (optionally) a sampled fail-fast separation oracle — and
interacts with other zones only through the narrow cross-zone message
kinds the real deployment exhibits:

``job_transfer``
    a job generated in one zone is submitted in another (users spanning
    partitions);
``ident_query`` / ``ident_reply``
    the UBF's cross-node "does uid X have a job on node Y?" question,
    answered from the remote zone's scheduler registry;
``portal_fwd`` / ``portal_reply``
    a web-portal request forwarded to another zone's scheduler and
    answered with queue/running counts (PrivateData-sized, not raw rows);
``dead_host_purge``
    a zone that fences a failed node broadcasts the purge so peers can
    drop cached state for the dead host.

All randomness is drawn from ``substream(seed, zone_id)`` and every
observable step folds into a per-zone blake2b digest built from
``repr``-formatted fields — never ``hash()`` — so the digest is a pure
function of (seed, zone count) under any ``PYTHONHASHSEED``, shard count
or worker count.  Long-horizon hygiene (the 1e7-event regime of E28):
arrivals are generated in bounded chunks scheduled just-in-time, finished
jobs are pruned from the scheduler's job table by observing its finishes,
and accounting retention is bounded (grand totals stay exact).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from repro.kernel import LinuxNode, NodeSpec, UserDB
from repro.kernel.errors import NoSuchEntity
from repro.observer import Observer
from repro.sched.accounting import AccountingDB
from repro.sched.jobs import JobSpec, JobState
from repro.sched.nodes import ComputeNode
from repro.sched.policies import NodeSharing
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sim.engine import Engine
from repro.sim.rng import substream
from repro.sim.shard import Outbox, ShardMessage

#: average core-seconds per job under the generator below
#: (ntasks avg 2.0 x cores/task avg 1.5 x duration avg 27.5s) — the same
#: workload shape as benchmark E24, sliced per zone.
_MEAN_CORE_SECONDS = 2.0 * 1.5 * 27.5


@dataclass(frozen=True)
class ZoneConfig:
    """Everything one zone needs to build itself (picklable, hashable).

    A frozen config — not a live zone — is what crosses the process
    boundary to multiprocessing workers, keeping the spawn pickle-light.
    """

    zone_id: int
    n_zones: int
    seed: int
    n_nodes: int = 32
    n_users: int = 8
    cores: int = 8
    mem_mb: int = 16_000
    #: local jobs this zone generates over the whole run
    n_jobs: int = 500
    #: arrivals are generated this many jobs at a time, just-in-time, so
    #: memory never holds the full 1e7-event horizon at once
    chunk_jobs: int = 2_000
    #: arrival rate as a fraction of the zone's core capacity
    load: float = 0.95
    #: fraction of generated jobs submitted in a *different* zone
    transfer_frac: float = 0.05
    #: per-job probability of emitting an ident probe / portal forward
    probe_frac: float = 0.02
    #: per-chunk probability of a node failure (+ purge broadcast + later
    #: separation-safe resume); 0 disables churn
    churn_per_chunk: float = 0.0
    policy: NodeSharing = NodeSharing.SHARED
    #: accounting rows retained per zone (grand totals stay exact)
    accounting_retention: int = 4_096
    #: sampled fail-fast separation oracle rate; 0 disables the oracle
    oracle_rate: float = 0.0


class ZoneSim(Observer):
    """One zone of the multi-zone cluster, steppable under ShardedEngine.

    Construction is cheap (just the config); the heavy build — user
    database, ``n_nodes`` Linux nodes, scheduler — happens in :meth:`bind`
    on whichever engine (serial shard or worker process) hosts the zone.
    """

    def __init__(self, cfg: ZoneConfig):
        self.cfg = cfg
        self.zone_id = cfg.zone_id
        self.transfers_out = 0
        self.transfers_in = 0
        self.ident_queries = 0
        self.ident_served = 0
        self.ident_replies = 0
        self.portal_fwds = 0
        self.portal_served = 0
        self.portal_replies = 0
        self.purges_sent = 0
        self.purges_seen = 0
        self.fail_injections = 0
        self.finished = 0
        self._probe_id = 0
        self._digest = hashlib.blake2b(digest_size=16)
        self.engine: Engine | None = None
        self.outbox: Outbox | None = None
        self.sched: Scheduler | None = None
        self.oracle = None

    # -- build ------------------------------------------------------------

    def bind(self, engine: Engine, outbox: Outbox) -> None:
        """Build the zone's cluster slice on the hosting engine."""
        cfg = self.cfg
        self.engine = engine
        self.outbox = outbox
        self.rng = substream(cfg.seed, cfg.zone_id)
        self.userdb = UserDB()
        self.users = [self.userdb.add_user(f"z{cfg.zone_id}u{i}")
                      for i in range(cfg.n_users)]
        nodes = [
            ComputeNode.create(
                LinuxNode(f"z{cfg.zone_id}n{i}", self.userdb,
                          spec=NodeSpec(cores=cfg.cores,
                                        mem_mb=cfg.mem_mb)))
            for i in range(cfg.n_nodes)
        ]
        self.sched = Scheduler(
            engine, nodes,
            SchedulerConfig(policy=cfg.policy,
                            requeue_on_node_fail=cfg.churn_per_chunk > 0))
        self.sched.accounting = AccountingDB(
            max_records=cfg.accounting_retention)
        if cfg.oracle_rate > 0:
            from repro.oracle import SeparationOracle
            self.oracle = SeparationOracle(
                sampling_rate=cfg.oracle_rate, fail_fast=True,
                clock=lambda: engine.now)
            self.sched.observers.append(self.oracle)
        # last, so pruning follows every other observer of a finish
        self.sched.observers.append(self)
        rate = (cfg.n_nodes * cfg.cores / _MEAN_CORE_SECONDS) * cfg.load
        self._gap = 1.0 / rate
        self._jobs_left = cfg.n_jobs
        self._t_next = 0.0
        engine.at(0.0, self._gen_chunk)

    # -- helpers ----------------------------------------------------------

    def _record(self, *parts) -> None:
        """Fold one observable step into the zone digest (repr-formatted,
        so the digest is PYTHONHASHSEED-independent)."""
        self._digest.update(
            ("|".join(repr(p) for p in parts) + ";").encode())

    def _user(self, name: str):
        """Get-or-create a user — remote submitters appear on first
        transfer, in deterministic (message-order) sequence."""
        try:
            return self.userdb.user(name)
        except NoSuchEntity:
            return self.userdb.add_user(name)

    def _other_zone(self) -> int:
        dst = int(self.rng.integers(self.cfg.n_zones - 1))
        return dst + 1 if dst >= self.zone_id else dst

    # -- workload generation ----------------------------------------------

    def _draw_job(self) -> tuple[int, int, int, float]:
        """(user idx, ntasks, cores/task, duration) — E24's shape."""
        u = int(self.rng.integers(self.cfg.n_users))
        ntasks = (1, 1, 2, 4)[int(self.rng.integers(4))]
        cpt = (1, 2)[int(self.rng.integers(2))]
        duration = float(self.rng.uniform(5.0, 50.0))
        return u, ntasks, cpt, duration

    def _gen_chunk(self) -> None:
        """Generate the next bounded chunk of arrivals (and the cross-zone
        traffic riding along), then reschedule for the following chunk."""
        cfg = self.cfg
        n = min(cfg.chunk_jobs, self._jobs_left)
        self._jobs_left -= n
        t = self._t_next
        for _ in range(n):
            t += float(self.rng.exponential(self._gap))
            u, ntasks, cpt, duration = self._draw_job()
            if cfg.n_zones > 1 and \
                    float(self.rng.random()) < cfg.transfer_frac:
                dst = self._other_zone()
                self.outbox.send(dst, "job_transfer",
                                 (self.zone_id, u, ntasks, cpt,
                                  round(duration, 9)))
                self.transfers_out += 1
                self._record("xfer_out", dst, u, ntasks, cpt)
            else:
                self.sched.submit(
                    JobSpec(user=self.users[u], name="j", ntasks=ntasks,
                            cores_per_task=cpt, mem_mb_per_task=500),
                    duration, at=t)
            if cfg.n_zones > 1 and \
                    float(self.rng.random()) < cfg.probe_frac:
                self._send_ident_probe()
            if cfg.n_zones > 1 and \
                    float(self.rng.random()) < cfg.probe_frac:
                self._send_portal_fwd()
        if cfg.churn_per_chunk > 0 and \
                float(self.rng.random()) < cfg.churn_per_chunk:
            self._inject_node_failure()
        self._t_next = t
        if self._jobs_left > 0:
            # just-in-time: the next chunk materialises when simulated time
            # reaches this chunk's last arrival — memory stays O(chunk)
            self.engine.at(t, self._gen_chunk)

    def _send_ident_probe(self) -> None:
        uid = self.users[int(self.rng.integers(self.cfg.n_users))].uid
        node_idx = int(self.rng.integers(self.cfg.n_nodes))
        self.outbox.send(self._other_zone(), "ident_query",
                         (self.zone_id, self._probe_id, uid, node_idx))
        self._probe_id += 1
        self.ident_queries += 1

    def _send_portal_fwd(self) -> None:
        self.outbox.send(self._other_zone(), "portal_fwd",
                         (self.zone_id, self._probe_id))
        self._probe_id += 1
        self.portal_fwds += 1

    def _inject_node_failure(self) -> None:
        """Fail one healthy node, broadcast the dead-host purge, and
        schedule the separation-safe resume (remediate-then-rejoin)."""
        idx = int(self.rng.integers(self.cfg.n_nodes))
        name = f"z{self.zone_id}n{idx}"
        node = self.sched.nodes[name]
        repair = float(self.rng.uniform(60.0, 180.0))
        if node.failed or node.drained or node.needs_remediation:
            return
        victims = self.sched.fail_node(name)
        self.fail_injections += 1
        self._record("fail", name, len(victims), self.engine.now)
        for z in range(self.cfg.n_zones):
            if z != self.zone_id:
                self.outbox.send(z, "dead_host_purge",
                                 (self.zone_id, name))
                self.purges_sent += 1
        self.engine.after(repair, lambda: self.sched.resume(name))

    # -- cross-zone message handling --------------------------------------

    def handle(self, msg: ShardMessage) -> None:
        """Dispatch one delivered cross-zone message by kind."""
        handler = getattr(self, f"_on_{msg.kind}", None)
        if handler is None:
            raise ValueError(f"zone {self.zone_id}: unknown message kind "
                             f"{msg.kind!r}")
        handler(msg)

    def _on_job_transfer(self, msg: ShardMessage) -> None:
        src_zone, u, ntasks, cpt, duration = msg.payload
        user = self._user(f"z{src_zone}u{u}")
        self.transfers_in += 1
        self._record("xfer_in", msg.src, msg.seq, ntasks, cpt)
        self.sched.submit(
            JobSpec(user=user, name="xfer", ntasks=ntasks,
                    cores_per_task=cpt, mem_mb_per_task=500),
            duration)

    def _on_ident_query(self, msg: ShardMessage) -> None:
        src_zone, probe_id, uid, node_idx = msg.payload
        name = f"z{self.zone_id}n{node_idx % self.cfg.n_nodes}"
        present = self.sched.user_has_job_on(uid, name)
        self.ident_served += 1
        self.outbox.send(src_zone, "ident_reply", (probe_id, present))

    def _on_ident_reply(self, msg: ShardMessage) -> None:
        probe_id, present = msg.payload
        self.ident_replies += 1
        self._record("ident", msg.src, probe_id, present)

    def _on_portal_fwd(self, msg: ShardMessage) -> None:
        src_zone, probe_id = msg.payload
        self.portal_served += 1
        self.outbox.send(src_zone, "portal_reply",
                         (probe_id, len(self.sched.pending()),
                          len(self.sched.running()), self.finished))

    def _on_portal_reply(self, msg: ShardMessage) -> None:
        probe_id, n_pending, n_running, n_finished = msg.payload
        self.portal_replies += 1
        self._record("portal", msg.src, probe_id, n_pending, n_running,
                     n_finished)

    def _on_dead_host_purge(self, msg: ShardMessage) -> None:
        src_zone, node_name = msg.payload
        self.purges_seen += 1
        self._record("purge", src_zone, node_name)

    # -- lifecycle hooks ---------------------------------------------------

    def job_finished(self, job, state: JobState) -> None:
        """Observed finish: fold it into the trace digest and prune the
        job table so memory stays O(live jobs) over 1e7-event runs."""
        self.finished += 1
        self._record("fin", job.job_id, job.uid, state.name,
                     job.submit_time, job.start_time, job.end_time,
                     sorted(job.nodes))
        if state is not JobState.NODE_FAIL:
            # NODE_FAIL rows stay — the requeue path re-runs them; every
            # terminal state is safe to drop (accounting already recorded)
            self.sched.jobs.pop(job.job_id, None)

    # -- SimZone protocol ---------------------------------------------------

    def quiescent(self) -> bool:
        """No chunks left to generate, nothing queued, nothing running."""
        return (self._jobs_left == 0 and not self.sched._queue
                and not self.sched._running)

    def stats(self) -> dict:
        """Cheap per-epoch counters (picklable plain values)."""
        return {
            "zone": self.zone_id,
            "finished": self.finished,
            "transfers_out": self.transfers_out,
            "transfers_in": self.transfers_in,
            "ident_queries": self.ident_queries,
            "ident_served": self.ident_served,
            "portal_fwds": self.portal_fwds,
            "portal_served": self.portal_served,
            "purges_seen": self.purges_seen,
            "fail_injections": self.fail_injections,
            "oracle_checks": (self.oracle.total_checks
                              if self.oracle is not None else 0),
            "oracle_violations": (len(self.oracle.violations)
                                  if self.oracle is not None else 0),
        }

    def fingerprint(self) -> dict:
        """Deterministic end-of-run identity: digest + exact totals."""
        acct = self.sched.accounting
        return {
            "zone": self.zone_id,
            "digest": self._digest.hexdigest(),
            "finished": self.finished,
            "records_total": acct.records_total,
            "core_seconds": round(acct.core_seconds_total, 6),
            "transfers_in": self.transfers_in,
            "transfers_out": self.transfers_out,
            "ident_replies": self.ident_replies,
            "portal_replies": self.portal_replies,
            "purges_seen": self.purges_seen,
        }


def build_zone(cfg: ZoneConfig) -> ZoneSim:
    """Zone factory (module-level so it pickles to worker processes)."""
    return ZoneSim(cfg)


def make_zone_factories(n_zones: int, *, seed: int,
                        nodes_per_zone: int = 32,
                        users_per_zone: int = 8,
                        jobs_per_zone: int = 500,
                        chunk_jobs: int = 2_000,
                        transfer_frac: float = 0.05,
                        probe_frac: float = 0.02,
                        churn_per_chunk: float = 0.0,
                        oracle_rate: float = 0.0,
                        ) -> list:
    """One picklable factory per zone, ready for ShardedEngine."""
    return [
        functools.partial(build_zone, ZoneConfig(
            zone_id=z, n_zones=n_zones, seed=seed,
            n_nodes=nodes_per_zone, n_users=users_per_zone,
            n_jobs=jobs_per_zone, chunk_jobs=chunk_jobs,
            transfer_frac=transfer_frac, probe_frac=probe_frac,
            churn_per_chunk=churn_per_chunk, oracle_rate=oracle_rate))
        for z in range(n_zones)
    ]
