"""Journal semantics: envelope, cadence, vocabulary, replayability.

Every mutating control-plane operation must land exactly one versioned
record; every recorded op must have a replay handler (a record replay
cannot apply is a record recovery silently loses); and the synchronous
snapshot cadence must bound the replay suffix.
"""

from __future__ import annotations

import pytest

from repro.persist import (
    PERSIST_SCHEMA_VERSION,
    Journal,
    MemoryRunStore,
    state_digest,
)
from repro.persist.recovery import _REPLAY
from repro.sched.health import attach_health
from repro.sched.jobs import JobState
from repro.sim import Engine

from tests.persist.conftest import build_cluster, submit_batch


class TestEnvelope:
    def test_every_record_carries_the_envelope(self, persisted_cluster):
        submit_batch(persisted_cluster, 4)
        persisted_cluster.engine.run()
        records = persisted_cluster.persist.journal.records()
        assert records, "workload journaled nothing"
        for i, rec in enumerate(records):
            assert rec["v"] == PERSIST_SCHEMA_VERSION
            assert rec["seq"] == i          # dense, gap-free
            assert isinstance(rec["t"], float)
            assert rec["op"] in _REPLAY, \
                f"op {rec['op']!r} has no replay handler"

    def test_virtual_time_monotone(self, persisted_cluster):
        submit_batch(persisted_cluster, 4)
        persisted_cluster.engine.run()
        times = [r["t"] for r in persisted_cluster.persist.journal.records()]
        assert times == sorted(times)

    def test_snapshot_every_must_be_positive(self):
        with pytest.raises(ValueError):
            Journal(MemoryRunStore(), clock=Engine(), snapshot_every=0)


class TestOpVocabulary:
    def test_job_lifecycle_ops_recorded_in_order(self, persisted_cluster):
        submit_batch(persisted_cluster, 1)
        persisted_cluster.engine.run()
        ops = [r["op"] for r in persisted_cluster.persist.journal.records()
               if r.get("job_id") == 1]
        assert ops == ["submit", "arrive", "dispatch", "finish"]

    def test_cancel_recorded(self, persisted_cluster):
        job = persisted_cluster.submit("alice", name="doomed", ntasks=1,
                                       duration=50.0, at=100.0)
        persisted_cluster.scheduler.cancel(
            job, persisted_cluster.user("alice"))
        ops = [r["op"] for r in persisted_cluster.persist.journal.records()
               if r.get("job_id") == job.job_id]
        assert ops == ["submit", "cancel"]

    def test_account_mutations_carry_generation(self, persisted_cluster):
        db = persisted_cluster.userdb
        eve = db.add_user("eve")
        grp = db.group("fusion")
        steward = db._users_by_uid[next(iter(grp.stewards))]
        db.add_to_project(grp, eve, approver=steward)
        db.remove_from_project(grp, eve, approver=steward)
        tail = persisted_cluster.persist.journal.records()[-3:]
        assert [r["op"] for r in tail] == ["user", "member_add",
                                           "member_del"]
        gens = [r["gen"] for r in tail]
        assert gens == sorted(gens)
        assert gens[-1] == db.generation

    def test_node_admin_and_health_ops(self):
        cluster = build_cluster(requeue=True)
        attach_health(cluster).start()
        for i in range(6):  # exclusive → one per node, running at fence
            cluster.submit("alice" if i % 2 else "bob", name=f"j{i}",
                           ntasks=1, duration=60.0, exclusive=True,
                           at=i * 0.5)
        cluster.chaos().crash_node("c2", for_=40.0)
        cluster.engine.run()
        ops = {r["op"] for r in cluster.persist.journal.records()}
        assert {"fence", "resume", "remediate", "requeue",
                "hb", "residue", "residue_clear",
                "tick", "tick_fired", "unreach", "unreach_clear"} <= ops

    def test_gpu_custody_ops(self):
        cluster = build_cluster(gpus=2)
        submit_batch(cluster, 3, gpus_per_task=1)
        cluster.engine.run()
        records = cluster.persist.journal.records()
        grants = [r for r in records if r["op"] == "gpu_grant"]
        scrubs = [r for r in records if r["op"] == "gpu_scrub"]
        assert len(grants) == 3 and len(scrubs) == 3
        assert {(g["job_id"], g["node"]) for g in grants} \
            == {(s["job_id"], s["node"]) for s in scrubs}


class TestSnapshotCadence:
    def test_periodic_snapshot_bounds_the_replay_suffix(self):
        cluster = build_cluster(snapshot_every=10)
        submit_batch(cluster, 10)
        cluster.engine.run()
        journal = cluster.persist.journal
        snap = cluster.persist.store.get("snapshot")
        assert journal.seq > 10, "workload too small to trigger a snapshot"
        assert snap["seq"] >= 10          # genesis was superseded
        assert journal.seq - snap["seq"] < 10

    def test_snapshot_digest_stable_across_identical_runs(self):
        """Identical runs capture identical snapshots and reach the same
        state digest, which recovery computes and no snapshot carries."""
        snaps, digests = [], []
        for _ in range(2):
            cluster = build_cluster(snapshot_every=10)
            submit_batch(cluster, 10)
            cluster.engine.run()
            snaps.append(cluster.persist.store.get("snapshot"))
            digests.append(state_digest(cluster))
        assert "digest" not in snaps[0]
        assert snaps[0] == snaps[1]
        assert digests[0] == digests[1]


class TestReplayRebuild:
    def test_replay_rebuilds_job_tables(self):
        """Crash mid-run: replay must land jobs in their exact pre-crash
        states, with running jobs linked to live allocations."""
        cluster = build_cluster()
        submit_batch(cluster, 8)
        for _ in range(12):
            cluster.engine.step()
        pre = {j.job_id: j.state for j in cluster.scheduler.jobs.values()}
        pre_running = dict(cluster.scheduler._running)
        cluster.chaos().crash_scheduler()
        assert cluster.scheduler.jobs == {}
        report = cluster.recover()
        assert report.identical
        sched = cluster.scheduler
        assert {j.job_id: j.state for j in sched.jobs.values()} == pre
        assert set(sched._running) == set(pre_running)
        for jid, job in sched._running.items():
            node = sched.nodes[job.allocations[0].node]
            # re-linked to the *surviving* allocation object, not a copy
            assert job.allocations[0] is node.allocations[jid]

    def test_replayed_ids_never_collide(self):
        cluster = build_cluster()
        submit_batch(cluster, 5)
        cluster.engine.run()
        cluster.chaos().crash_scheduler()
        cluster.recover()
        new = cluster.submit("alice", name="after", ntasks=1, duration=1.0)
        assert new.job_id == 6
        cluster.engine.run()
        assert new.state is JobState.COMPLETED
