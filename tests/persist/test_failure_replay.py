"""Crash recovery across the scheduler's failure paths.

Each scenario runs twice, once uncrashed and once crashed and recovered
right after the failure, and the two must end in the same state digest.
Recovery replays the failure's journal records (a queued cancel, a cancel
before arrival, a prolog failure, a drain) or re-arms its timer (an OOM
bomb half-way through its run).
"""

from __future__ import annotations

from repro.persist import state_digest
from repro.sched.jobs import JobState

from tests.persist.conftest import build_cluster


def _ops(cluster, start: int = 0) -> list[dict]:
    return cluster.persist.journal.records(start=start)


def _crash_and_recover(cluster, ops: set[str]):
    """Crash now, recover, and check the snapshot the recovery started
    from left every op in *ops* to the replayed journal suffix."""
    cluster.chaos().crash_scheduler()
    report = cluster.recover()
    assert report.identical
    replayed = {r["op"] for r in _ops(cluster, report.snapshot_seq)}
    assert ops <= replayed


def _both_ways(scenario, ops: set[str]):
    """Run *scenario* twice, the second time crashed and recovered where
    it returns; returns both clusters, each run to the end."""
    reference = scenario()
    reference.engine.run()
    crashed = scenario()
    _crash_and_recover(crashed, ops)
    crashed.engine.run()
    assert state_digest(crashed) == state_digest(reference)
    return reference, crashed


def _fill_and_queue():
    """Two nodes full of long jobs, two more jobs waiting behind them,
    one of which the owner cancels while it is queued, and one job whose
    arrival is still in the future when its owner cancels it."""
    cluster = build_cluster(nodes=2)
    for i in range(2):
        cluster.submit("alice", name=f"long{i}", duration=50.0,
                       exclusive=True)
    queued = cluster.submit("bob", name="queued", duration=5.0,
                            exclusive=True)
    cluster.submit("bob", name="behind", duration=5.0, exclusive=True)
    future = cluster.submit("alice", name="future", duration=5.0, at=30.0)
    cluster.run(until=1.0)
    sched = cluster.scheduler
    assert queued in sched._queue
    sched.cancel(queued, by=queued.spec.user)
    assert future.state is JobState.PENDING and future not in sched._queue
    sched.cancel(future, by=future.spec.user)
    return cluster


class TestCancelReplay:
    def test_cancelled_jobs_stay_cancelled_across_a_crash(self):
        reference, crashed = _both_ways(_fill_and_queue, {"cancel"})
        for cluster in (reference, crashed):
            states = {j.spec.name: j.state
                      for j in cluster.scheduler.jobs.values()}
            assert states["queued"] is JobState.CANCELLED
            assert states["future"] is JobState.CANCELLED
            assert states["behind"] is JobState.COMPLETED

    def test_cancel_records_name_both_jobs(self):
        cluster = _fill_and_queue()
        names = {cluster.scheduler.jobs[r["job_id"]].spec.name
                 for r in _ops(cluster) if r["op"] == "cancel"}
        assert names == {"queued", "future"}


def _oom_bomb():
    cluster = build_cluster(nodes=2)
    cluster.submit("alice", name="bomb", duration=40.0, oom_bomb=True)
    cluster.submit("bob", name="calm", duration=10.0)
    cluster.run(until=5.0)
    return cluster


class TestOomTimerRearm:
    def test_recovery_rearms_the_oom_trigger(self):
        cluster = _oom_bomb()
        bomb = next(j for j in cluster.scheduler.jobs.values()
                    if j.spec.name == "bomb")
        assert bomb.state is JobState.RUNNING
        _crash_and_recover(cluster, {"dispatch"})
        # the re-armed completion and OOM timers of the running bomb
        (rebuilt,) = [j for j in cluster.scheduler.jobs.values()
                      if j.spec.name == "bomb"]
        assert len(cluster.scheduler._job_events[rebuilt.job_id]) == 2
        cluster.run(until=25.0)
        assert rebuilt.state is JobState.FAILED
        assert rebuilt.end_time == rebuilt.start_time + 20.0

    def test_oom_bomb_recovers_to_the_uncrashed_end_state(self):
        reference, _ = _both_ways(_oom_bomb, {"dispatch"})
        states = {j.spec.name: j.state
                  for j in reference.scheduler.jobs.values()}
        assert states == {"bomb": JobState.FAILED,
                          "calm": JobState.COMPLETED}


def _prolog_failure_and_drain():
    """The prolog refuses one job on c1; staff then drain c2."""
    cluster = build_cluster(nodes=2)
    sched = cluster.scheduler
    real = sched.prolog

    def prolog(job, node):
        if job.spec.name == "doomed":
            raise RuntimeError(f"prolog failed on {node.name}")
        real(job, node)

    sched.prolog = prolog
    cluster.submit("alice", name="doomed", duration=10.0, exclusive=True)
    cluster.run(until=1.0)
    sched.drain("c2")
    cluster.submit("bob", name="after", duration=10.0, at=2.0)
    cluster.run(until=3.0)
    return cluster


class TestPrologFailureAndDrainReplay:
    def test_failure_and_drain_are_journaled(self):
        cluster = _prolog_failure_and_drain()
        doomed = next(j for j in cluster.scheduler.jobs.values()
                      if j.spec.name == "doomed")
        assert doomed.state is JobState.FAILED
        records = [r for r in _ops(cluster)
                   if r.get("job_id") == doomed.job_id
                   and r["op"] in ("dispatch", "finish")]
        # the failed start journals a zero-charge dispatch, then the finish
        assert [(r["op"], r.get("charged"), r.get("useful"))
                for r in records] == [("dispatch", 0, 0),
                                      ("finish", None, None)]
        assert records[1]["state"] == JobState.FAILED.value
        assert [r["node"] for r in _ops(cluster)
                if r["op"] == "drain"] == ["c2"]

    def test_failure_and_drain_replay_to_the_uncrashed_end_state(self):
        reference, crashed = _both_ways(_prolog_failure_and_drain,
                                        {"dispatch", "finish", "drain"})
        for cluster in (reference, crashed):
            nodes = cluster.scheduler.nodes
            # the hook failure drained c1, staff drained c2: "after" waits
            assert nodes["c1"].drained and nodes["c1"].needs_remediation
            assert nodes["c2"].drained
            (after,) = [j for j in cluster.scheduler.jobs.values()
                        if j.spec.name == "after"]
            assert after.state is JobState.PENDING
