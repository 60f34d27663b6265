"""Integration tests: attach_telemetry instrumentation on a built cluster.

The invariant under test throughout: telemetry is *additive*.  Enforcement
outcomes (what is allowed, what raises) are identical with and without it;
only counters, spans and exports appear.
"""

import io
import json

import pytest

from repro import Cluster, LLSC
from repro.kernel.errors import AccessDenied
from repro.monitor import instrument_cluster
from repro.obs import attach_telemetry, event_lines


def exported_events(tele) -> list[str]:
    """The security-event lines of *tele*'s JSONL export, in order."""
    sink = io.StringIO()
    tele.export_jsonl(sink)
    return [ln for ln in sink.getvalue().splitlines()
            if json.loads(ln)["type"] == "event"]


@pytest.fixture
def cluster():
    return Cluster.build(LLSC, n_compute=3, gpus_per_node=1,
                         users=("alice", "bob", "mallory"), staff=("sam",))


@pytest.fixture
def tele(cluster):
    return attach_telemetry(cluster)


def counter_value(cluster, name, **labels):
    return cluster.metrics.counter(name, **labels).value


class TestAttachment:
    def test_idempotent(self, cluster):
        first = attach_telemetry(cluster)
        assert attach_telemetry(cluster) is first
        assert cluster.telemetry is first

    def test_idempotent_wrapping_no_double_counting(self, cluster):
        attach_telemetry(cluster)
        attach_telemetry(cluster)
        cluster.login("alice")
        assert counter_value(cluster, "pam_decisions_total",
                             result="allow") == 1

    def test_shares_cluster_metricset(self, cluster, tele):
        assert tele.metrics is cluster.metrics

    def test_picks_up_existing_event_log(self, cluster):
        log = instrument_cluster(cluster)
        tele = attach_telemetry(cluster)
        with pytest.raises(AccessDenied):
            cluster.ssh("bob", "c1")
        assert exported_events(tele) == list(event_lines(log)) != []


class TestSyscallFacade:
    def test_allow_and_deny_counted(self, cluster, tele):
        alice = cluster.login("alice")
        alice.sys.create("/home/alice/f", mode=0o600, data=b"x")
        assert alice.sys.open_read("/home/alice/f") == b"x"
        bob = cluster.login("bob")
        with pytest.raises(AccessDenied):
            bob.sys.open_read("/home/alice/f")
        assert counter_value(cluster, "syscalls_total", result="allow") >= 2
        assert counter_value(cluster, "syscalls_total", result="deny") == 1

    def test_enforcement_unchanged(self, cluster, tele):
        """The observed façade forwards arguments, results and exceptions."""
        bob = cluster.login("bob")
        with pytest.raises(AccessDenied):
            bob.sys.open_read("/home/alice/anything")
        bob.sys.create("/home/bob/mine", mode=0o600, data=b"ok")
        assert bob.sys.open_read("/home/bob/mine") == b"ok"

    def test_facade_properties_forwarded(self, cluster, tele):
        alice = cluster.login("alice")
        assert alice.sys.creds.uid == cluster.user("alice").uid
        assert alice.sys.node is alice.node


class TestPamAndGpu:
    def test_pam_decisions_counted(self, cluster, tele):
        cluster.login("alice")
        with pytest.raises(AccessDenied):
            cluster.ssh("bob", "c1")  # no job there: pam_slurm refuses
        assert counter_value(cluster, "pam_decisions_total",
                             result="allow") == 1
        assert counter_value(cluster, "pam_decisions_total",
                             result="deny") == 1

    def test_gpu_grants_and_scrubs_counted(self, cluster, tele):
        job = cluster.submit("alice", duration=10.0, gpus_per_task=1)
        cluster.run(until=100.0)
        assert job.state.name == "COMPLETED"
        assert counter_value(cluster, "gpu_grants_total") == 1
        assert counter_value(cluster, "gpu_scrubs_total") == 1


class TestTracing:
    def test_job_lifecycle_spans(self, cluster, tele):
        job = cluster.submit("alice", duration=10.0)
        cluster.run(until=100.0)
        tracer = tele.tracer
        (root,) = tracer.by_name("job")
        assert root.tags["job_id"] == job.job_id
        assert root.tags["state"] == "completed"
        for child_name in ("sched.queue", "sched.prolog", "job.run",
                           "sched.epilog"):
            spans = tracer.by_name(child_name)
            assert spans, f"missing {child_name} span"
            assert all(s.trace_id == root.trace_id for s in spans)
            assert all(s.finished for s in spans)

    def test_run_span_covers_duration(self, cluster, tele):
        cluster.submit("alice", duration=10.0)
        cluster.run(until=100.0)
        (run,) = tele.tracer.by_name("job.run")
        assert run.duration == pytest.approx(10.0)

    def test_ubf_decision_spans(self, cluster, tele):
        job = cluster.submit("alice", duration=100.0)
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        shell.node.net.listen(shell.node.net.bind(shell.process, 5000))
        cluster.login("alice").socket().connect(shell.node.name, 5000)
        spans = tele.tracer.by_name("ubf.decide")
        assert spans and spans[0].tags["verdict"] == "accept"


class TestExports:
    def test_prometheus_covers_instrumented_areas(self, cluster, tele):
        instrument_cluster(cluster)
        cluster.submit("alice", duration=10.0, gpus_per_task=1)
        cluster.run(until=100.0)
        alice = cluster.login("alice")
        alice.sys.create("/home/alice/f", mode=0o600, data=b"x")
        with pytest.raises(AccessDenied):
            cluster.ssh("bob", "c1")
        text = tele.prometheus()
        for series in ("syscalls_total", 'pam_decisions_total{result="deny"}',
                       "gpu_grants_total", "gpu_scrubs_total",
                       "sched_queue_depth", "sched_wait_seconds_bucket",
                       "jobs_submitted"):
            assert series in text, f"missing {series}"

    def test_export_jsonl_merges_events_and_spans(self, cluster, tele):
        instrument_cluster(cluster)
        cluster.submit("alice", duration=10.0)
        cluster.run(until=100.0)
        with pytest.raises(AccessDenied):
            cluster.ssh("bob", "c1")  # instrumented pam denial -> event
        sink = io.StringIO()
        n = tele.export_jsonl(sink)
        records = [json.loads(ln) for ln in
                   sink.getvalue().strip().splitlines()]
        assert n == len(records) > 0
        assert {r["type"] for r in records} == {"event", "span"}
