"""The write-ahead journal of mutating control-plane operations.

Every operation that changes scheduler, accounting, health, or account-
database state appends one versioned record here *as part of the operation
itself*: the :class:`Journal` is an :class:`~repro.observer.Observer` of
the scheduler, the health monitor and the account database, and its
typed writers are the observer methods of the decisions it records.  A
record is a flat JSON-able dict::

    {"v": 1, "seq": 184, "t": 120.5, "op": "dispatch", ...}

``seq`` is the global append index (dense, starting at 0) and the replay
order; ``t`` is the virtual time the operation ran at.  The op vocabulary
covers job lifecycle (``submit``/``arrive``/``cancel``/``dispatch``/
``finish``/``requeue``), node administration (``fence``/``drain``/
``resume``/``remediate``), account mutations (``user``/``pgroup``/
``member_add``/``member_del``/``sgroup``), GPU custody (``gpu_grant``/
``gpu_scrub`` — consumed by oracle invariant I8, replayed as no-ops), and
health-monitor state (``hb``/``residue``/``residue_clear``/``tick``/
``tick_fired``/``unreach``/``unreach_clear``/``ttl_purge``).

Replay (:mod:`repro.persist.recovery`) rebuilds **control-plane tables
only** from these records — it never re-executes data-plane effects
(allocations, processes, prolog/epilog hooks, audit/oracle callbacks),
because on a control-plane crash the data plane *survived*.

Every ``snapshot_every`` appends the journal synchronously asks its owner
(via :attr:`on_snapshot`) to capture a full snapshot, bounding the replay
suffix a recovery must process.
"""

from __future__ import annotations

from repro.observer import Observer

#: schema version stamped on every journal record and snapshot; bump on
#: any incompatible change to the record vocabulary or snapshot layout.
PERSIST_SCHEMA_VERSION = 1

#: store stream name the journal appends to.
JOURNAL_STREAM = "journal"


class Journal(Observer):
    """Typed writer of control-plane journal records over a RunStore.

    ``clock`` is what carries the virtual time as its ``now`` attribute:
    the cluster's :class:`~repro.sim.engine.Engine`.  Each record reads
    it once.
    """

    def __init__(self, store, clock, *, snapshot_every: int = 256):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.store = store
        self.clock = clock
        self.snapshot_every = snapshot_every
        #: callable() -> None capturing a snapshot; set by the persistence
        #: spine.  Invoked synchronously every ``snapshot_every`` appends.
        self.on_snapshot = None
        self.seq = store.length(JOURNAL_STREAM)
        self._since_snapshot = 0

    def append(self, op: str, **fields) -> dict:
        """Append one record; returns it (with envelope) for inspection.

        The envelope is stamped into the ``**fields`` dict in place and
        the store takes ownership of it (one dict build per record —
        this is the E30 hot path).
        """
        fields["op"] = op
        return self._append(fields)

    def _append(self, rec: dict) -> dict:
        """Stamp the envelope into *rec* (which already carries ``op``)
        and hand it to the store.  The typed writers below build one dict
        literal each and come straight here."""
        rec["v"] = PERSIST_SCHEMA_VERSION
        rec["seq"] = self.seq
        rec["t"] = self.clock.now
        self.store.append(JOURNAL_STREAM, rec)
        self.seq += 1
        self._since_snapshot += 1
        if self.on_snapshot is not None \
                and self._since_snapshot >= self.snapshot_every:
            self._since_snapshot = 0
            self.on_snapshot()
        return rec

    def records(self, start: int = 0) -> list[dict]:
        """Journal records from global index *start*, in append order."""
        return self.store.read(JOURNAL_STREAM, start)

    # -- job lifecycle ------------------------------------------------------

    def job_submitted(self, job) -> None:
        spec = job.spec
        self._append(
            {"op": "submit", "job_id": job.job_id, "user": spec.user.name,
             "name": spec.name, "ntasks": spec.ntasks,
             "cores_per_task": spec.cores_per_task,
             "mem_mb_per_task": spec.mem_mb_per_task,
             "gpus_per_task": spec.gpus_per_task, "command": spec.command,
             "workdir": spec.workdir, "exclusive": spec.exclusive,
             "oom_bomb": spec.oom_bomb, "partition": spec.partition,
             "has_script": spec.script is not None,
             "duration": job.duration, "submit_time": job.submit_time,
             "array_id": job.array_id, "array_index": job.array_index})

    def job_arrived(self, job) -> None:
        self._append({"op": "arrive", "job_id": job.job_id})

    def job_cancelled(self, job) -> None:
        self._append({"op": "cancel", "job_id": job.job_id})

    def job_started(self, job, charged: int, useful: int) -> None:
        rows = []
        for a in job.allocations:
            rows.append((a.node, a.tasks, a.cores, a.mem_mb,
                         tuple(a.gpu_indices)))
        self._append({"op": "dispatch", "job_id": job.job_id,
                      "charged": charged, "useful": useful, "rows": rows})

    def job_finished(self, job, state) -> None:
        # the state code is the member's ``_value_``: what the ``value``
        # property returns, without the property's descriptor call
        self._append({"op": "finish", "job_id": job.job_id,
                      "state": state._value_})

    def job_requeued(self, job) -> None:
        self._append({"op": "requeue", "job_id": job.job_id,
                      "attempt": job.attempt})

    def job_start_failed(self, job) -> None:
        # zero-charge dispatch: replay rebuilds the same failed row
        self.job_started(job, 0, 0)

    # -- node administration ------------------------------------------------

    def node_fenced(self, node_name: str, lost: int) -> None:
        self.append("fence", node=node_name)

    def node_drained(self, node_name: str) -> None:
        self.append("drain", node=node_name)

    def node_resumed(self, node_name: str) -> None:
        self.append("resume", node=node_name)

    def node_remediated(self, scheduler, node, summary) -> None:
        self.append("remediate", node=node.name)

    # -- GPU custody (I8 evidence; replayed as no-ops) ----------------------

    def prolog_ran(self, job, node, gpus) -> None:
        if gpus:
            self.append("gpu_grant", job_id=job.job_id, node=node.name,
                        gpus=list(gpus))

    def epilog_ran(self, job, node, gpus) -> None:
        if gpus:
            self.append("gpu_scrub", job_id=job.job_id, node=node.name,
                        gpus=list(gpus))

    # -- account database ---------------------------------------------------

    def user_added(self, user, generation: int) -> None:
        self.append("user", name=user.name, uid=user.uid,
                    gid=user.primary_gid, staff=user.is_support_staff,
                    gen=generation)

    def project_group_added(self, group, generation: int) -> None:
        self.append("pgroup", name=group.name, gid=group.gid,
                    members=sorted(group.members),
                    stewards=sorted(group.stewards), gen=generation)

    def member_added(self, group, uid: int, generation: int) -> None:
        self.append("member_add", gid=group.gid, uid=uid, gen=generation)

    def member_removed(self, group, uid: int, generation: int) -> None:
        self.append("member_del", gid=group.gid, uid=uid, gen=generation)

    def system_group_added(self, group, generation: int) -> None:
        self.append("sgroup", name=group.name, gid=group.gid,
                    members=sorted(group.members), gen=generation)

    # -- health monitor -----------------------------------------------------

    def heartbeat_state(self, lc) -> None:
        self.append("hb", node=lc.name, state=lc.state.value,
                    missed=lc.missed, quarantined_until=lc.quarantined_until,
                    rejoin_times=list(lc.rejoin_times), purged=lc.purged)

    def residue_recorded(self, residue) -> None:
        self.append("residue", node=residue.node,
                    recorded_at=residue.recorded_at,
                    jobs=list(residue.jobs),
                    orphan_pids=list(residue.orphan_pids),
                    dirty_gpus=list(residue.dirty_gpus),
                    assigned_devices=list(residue.assigned_devices),
                    peer_conntrack_flows=residue.peer_conntrack_flows)

    def residue_cleared(self, node_name: str) -> None:
        self.append("residue_clear", node=node_name)

    def tick_armed(self, fire_t: float) -> None:
        self.append("tick", fire_t=fire_t)

    def tick_fired(self) -> None:
        self.append("tick_fired")

    def host_unreachable(self, host: str, since: float) -> None:
        self.append("unreach", host=host, since=since)

    def host_reachable(self, host: str) -> None:
        self.append("unreach_clear", host=host)

    def dead_host_purged(self, host: str) -> None:
        self.append("ttl_purge", host=host)
