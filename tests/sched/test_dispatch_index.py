"""Unit tests for the free-capacity dispatch index (E24 tentpole).

The property suite (tests/prop/test_prop_dispatch.py) proves indexed ≡
naive on random streams; these tests pin the *mechanics*: what the index
contains after each lifecycle event, that the skip logic actually skips
(via the ``sched_dispatch_scan`` counter), and that the incrementally
maintained queues and core-second accumulators stay truthful.
"""

from __future__ import annotations

from repro.sched import JobState, NodeSharing, SchedulerConfig
from repro.sched.dispatch_index import PartitionIndex
from tests.sched.conftest import build_sched, spec


def _index(sched, part="normal") -> PartitionIndex:
    return sched._pindex[part]


class TestIndexMaintenance:
    def test_fresh_cluster_is_all_idle(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=3)
        idx = _index(sched)
        assert idx.idle == {0, 1, 2}
        assert idx.open_all == {0, 1, 2}
        assert idx.user_nodes == {}

    def test_allocation_moves_node_between_buckets(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=2, cores=8)
        sched.submit(spec(userdb, ntasks=3), duration=10.0)
        engine.run(until=1.0)
        idx = _index(sched)
        assert idx.idle == {1}
        # n1 has 5 free cores, n2 the full 8
        assert idx.by_cores == {5: {0}, 8: {1}}
        alice = userdb.user("alice").uid
        assert idx.user_nodes == {alice: {0}}

    def test_full_node_leaves_open_set(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=1, cores=4)
        sched.submit(spec(userdb, ntasks=4), duration=10.0)
        engine.run(until=1.0)
        idx = _index(sched)
        assert idx.open_all == set()
        assert idx.idle == set()
        engine.run()  # job completes, node returns
        assert idx.idle == {0}
        assert idx.by_cores == {4: {0}}

    def test_drain_and_fail_evict_resume_restores(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=3)
        idx = _index(sched)
        sched.drain("c2")
        assert idx.idle == {0, 2}
        sched.fail_node("c3")
        assert idx.idle == {0}
        sched.resume("c2")
        sched.resume("c3")
        assert idx.idle == {0, 1, 2}

    def test_mixed_uid_node_has_no_sole_owner(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=1, cores=8)
        sched.submit(spec(userdb, "alice"), duration=10.0)
        sched.submit(spec(userdb, "bob"), duration=10.0)
        engine.run(until=1.0)
        assert _index(sched).user_nodes == {}

    def test_candidates_preserve_declaration_order(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=4)
        names = _index(sched).candidates(
            policy=NodeSharing.SHARED, whole=False,
            uid=userdb.user("alice").uid, cores_per_task=1)
        assert names == ["c1", "c2", "c3", "c4"]


class TestDispatchBehaviour:
    def test_whole_node_user_packs_onto_own_node(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=2, cores=8,
                                    policy=NodeSharing.WHOLE_NODE_USER)
        a1 = sched.submit(spec(userdb, "alice"), duration=50.0)
        b1 = sched.submit(spec(userdb, "bob"), duration=50.0)
        a2 = sched.submit(spec(userdb, "alice"), duration=50.0, at=1.0)
        engine.run(until=2.0)
        assert a2.state is JobState.RUNNING
        assert a2.nodes == a1.nodes
        assert b1.nodes != a1.nodes

    def test_saturated_cluster_examines_no_nodes(self, userdb):
        """Once the cluster is full, further submissions must not rescan
        the node list — the whole point of the index."""
        engine, sched = build_sched(userdb, n_nodes=4, cores=2)
        for _ in range(4):
            sched.submit(spec(userdb, ntasks=2, mem_mb_per_task=0),
                         duration=100.0)
        engine.run(until=1.0)
        scanned_when_full = sched.metrics.counter("sched_dispatch_scan").value
        for i in range(20):
            sched.submit(spec(userdb, ntasks=1, mem_mb_per_task=0),
                         duration=5.0, at=2.0 + i * 0.01)
        engine.run(until=3.0)
        assert sched.metrics.counter("sched_dispatch_scan").value \
            == scanned_when_full

    def test_indexed_scans_fewer_nodes_than_naive(self, userdb):
        def churn(naive):
            engine, sched = build_sched(userdb, n_nodes=16, cores=2)
            sched.config.naive = naive
            for i in range(40):
                sched.submit(spec(userdb, ntasks=1), duration=3.0,
                             at=float(i % 7))
            engine.run()
            return sched.metrics.counter("sched_dispatch_scan").value
        assert churn(naive=False) < churn(naive=True)

    def test_running_and_pending_track_incrementally(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=1, cores=2)
        j1 = sched.submit(spec(userdb, ntasks=2), duration=10.0)
        j2 = sched.submit(spec(userdb, ntasks=2), duration=10.0)
        engine.run(until=1.0)
        assert [j.job_id for j in sched.running()] == [j1.job_id]
        assert [j.job_id for j in sched.pending()] == [j2.job_id]
        sched.cancel(j2, by=userdb.user("root"))
        assert sched.pending() == []
        engine.run()
        assert sched.running() == []
        assert j1.state is JobState.COMPLETED

    def test_requeued_job_redispatches_via_index(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=2, cores=2)
        sched.config.requeue_on_node_fail = True
        job = sched.submit(spec(userdb, ntasks=2, mem_mb_per_task=0),
                           duration=10.0)
        blocker = sched.submit(spec(userdb, ntasks=2, mem_mb_per_task=0),
                               duration=10.0)
        engine.run(until=1.0)
        assert job.state is JobState.RUNNING
        failed_on = job.nodes[0]
        sched.fail_node(failed_on)
        engine.run(until=2.0)
        # requeued instantly onto the surviving node once it frees
        engine.run()
        assert job.state is JobState.COMPLETED
        assert blocker.state is JobState.COMPLETED
        assert job.nodes[0] != failed_on

    def test_exclusive_job_waits_for_idle_node(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=2, cores=8)
        small = sched.submit(spec(userdb, "alice"), duration=5.0)
        sched.submit(spec(userdb, "bob", ntasks=8), duration=5.0)
        wide = sched.submit(spec(userdb, "carol", exclusive=True),
                            duration=5.0, at=1.0)
        engine.run(until=2.0)
        assert wide.state is JobState.PENDING  # no idle node yet
        engine.run()
        assert wide.state is JobState.COMPLETED
        assert small.state is JobState.COMPLETED

    def test_user_has_job_on_tracks_allocations(self, userdb):
        engine, sched = build_sched(userdb, n_nodes=2)
        job = sched.submit(spec(userdb, "alice"), duration=10.0)
        engine.run(until=1.0)
        node = job.nodes[0]
        alice = userdb.user("alice").uid
        bob = userdb.user("bob").uid
        assert sched.user_has_job_on(alice, node)
        assert not sched.user_has_job_on(bob, node)
        engine.run()
        assert not sched.user_has_job_on(alice, node)

    def test_partition_added_after_construction_dispatches(self, userdb):
        from repro.sched import Partition
        engine, sched = build_sched(userdb, n_nodes=3)
        sched.partitions["zone0"] = Partition("zone0", ("c3",))
        sched.reindex_partitions()
        job = sched.submit(spec(userdb, partition="zone0"), duration=10.0)
        engine.run()
        assert job.state is JobState.COMPLETED
        assert job.nodes == ["c3"]
