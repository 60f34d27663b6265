"""Tests: what the planes record on failure and escalation paths.

A failed epilog reaches telemetry (an ``sched.epilog`` span in the job's
trace, finished as an error) and the event log (a NODE_LIFECYCLE record attributed to the job
and node); ``audited_smask_relax`` leaves an ADMIN record; and an audited
façade's refusals keep their kind, target, detail, node and time.
"""

import pytest

from repro import Cluster, LLSC
from repro.kernel.errors import KernelError, PermissionError_
from repro.monitor import (
    EventKind,
    audited_session,
    audited_smask_relax,
    instrument_cluster,
)
from repro.obs import attach_telemetry


@pytest.fixture
def cluster():
    return Cluster.build(LLSC, n_compute=2, users=("alice", "bob"),
                         staff=("sam",))


class TestEpilogFailure:
    def test_failed_epilog_reaches_telemetry_and_the_log(self, cluster):
        tele = attach_telemetry(cluster)
        log = instrument_cluster(cluster)

        def epilog(job, node):
            raise RuntimeError("scrub timed out")

        cluster.scheduler.epilog = epilog
        job = cluster.submit("alice", duration=10.0)
        cluster.run(until=50.0)
        assert job.state.name == "COMPLETED"
        node = cluster.scheduler.nodes[job.nodes[0]]
        assert node.drained and node.needs_remediation
        assert cluster.metrics.counter("hook_failures_total",
                                       hook="epilog").value == 1

        (root,) = tele.tracer.by_name("job")
        (span,) = tele.tracer.by_name("sched.epilog")
        assert span.trace_id == root.trace_id and span.finished
        assert span.tags == {"node": node.name, "status": "error",
                             "error": "RuntimeError"}

        (event,) = log.by_kind(EventKind.NODE_LIFECYCLE)
        assert (event.time, event.subject_uid, event.target) == \
            (10.0, -1, node.name)
        assert (event.job_id, event.node) == (job.job_id, node.name)
        assert event.detail == (
            f"epilog failed for job {job.job_id}: "
            "RuntimeError('scrub timed out'); "
            "node drained pending remediation")


class TestAdminEscalation:
    def test_audited_smask_relax_records_admin(self, cluster):
        log = instrument_cluster(cluster)
        cluster.run(until=7.0)
        sam = cluster.login("sam")
        assert audited_smask_relax(cluster, sam, smask=0o002) is sam
        assert sam.creds.smask == 0o002
        (event,) = log.by_kind(EventKind.ADMIN)
        assert (event.time, event.subject_uid, event.target, event.node) \
            == (7.0, sam.user.uid, sam.node.name, sam.node.name)
        assert event.detail == "smask_relax shell opened"

    def test_refused_smask_relax_records_nothing(self, cluster):
        log = instrument_cluster(cluster)
        with pytest.raises(PermissionError_):
            audited_smask_relax(cluster, cluster.login("bob"))
        assert log.by_kind(EventKind.ADMIN) == []


class TestAuditedFacade:
    def test_proc_denial_keeps_kind_target_node_and_time(self, cluster):
        log = instrument_cluster(cluster)
        cluster.run(until=3.0)
        victim = cluster.login("alice")
        bob = cluster.login("bob")
        with pytest.raises(PermissionError_):
            audited_session(bob, log).kill(victim.process.pid)
        (event,) = log.events
        assert event.kind is EventKind.PROC_DENY
        assert (event.target, event.detail) == \
            (str(victim.process.pid), "EPERM")
        assert (event.time, event.subject_uid, event.node) == \
            (3.0, bob.user.uid, bob.node.name)

    def test_only_audited_facades_report_denials(self, cluster):
        log = instrument_cluster(cluster)
        bob = cluster.login("bob")
        with pytest.raises(KernelError):
            bob.sys.listdir("/home/alice")
        assert log.events == []
        with pytest.raises(KernelError):
            audited_session(bob, log).listdir("/home/alice")
        assert [e.kind for e in log.events] == [EventKind.FS_DENY]
