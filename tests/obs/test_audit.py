"""Tests: attribution registry + audit trail — recording, resolution,
queries, and the versioned JSONL export (golden file)."""

import io
import json
from pathlib import Path
from types import SimpleNamespace

from repro.monitor.events import EventKind, SecurityEvent
from repro.net.firewall import Verdict
from repro.net.ubf import DecisionReason
from repro.obs.audit import AUDIT_SCHEMA_VERSION, AuditTrail
from repro.obs.context import AttributionRegistry
from repro.sched.jobs import JobState

GOLDEN = Path(__file__).with_name("golden_audit.jsonl")


def fake_job(job_id=1, uid=1000, name="alice", nodes=("c1",), gpus=()):
    """A minimal stand-in for a scheduler Job with one allocation/node."""
    return SimpleNamespace(
        job_id=job_id, uid=uid, attempt=1, state=JobState.PENDING,
        spec=SimpleNamespace(user=SimpleNamespace(name=name), ntasks=1,
                             partition="normal"),
        allocations=[SimpleNamespace(node=n, gpu_indices=tuple(gpus))
                     for n in nodes])


class FakeScheduler:
    """A stand-in for the placement ``resolve`` reads from a scheduler:
    each node's allocation table and the per-uid live-job index.  Like
    the real one, it updates both before telling its observers."""

    crashed = False

    def __init__(self, *node_names, clock=None):
        self.nodes = {n: SimpleNamespace(allocations={}) for n in node_names}
        self._live = {}
        self.registry = AttributionRegistry(self, clock)

    def submit(self, job):
        self._live.setdefault(job.uid, {})[job.job_id] = job
        self.registry.job_submitted(job)

    def start(self, job):
        job.state = JobState.RUNNING
        for alloc in job.allocations:
            self.nodes[alloc.node].allocations[job.job_id] = alloc
        self.registry.job_started(job)

    def finish(self, job, state):
        job.state = state
        self._live[job.uid].pop(job.job_id)
        for alloc in job.allocations:
            del self.nodes[alloc.node].allocations[job.job_id]
        self.registry.job_finished(job, state)


def fake_user(uid=1000, name="alice"):
    return SimpleNamespace(uid=uid, name=name)


def flow(src_host, dst_host, dst_port):
    """The fields of a UBF flow the trail reads."""
    return SimpleNamespace(src_host=src_host, dst_host=dst_host,
                           dst_port=dst_port)


class Clock:
    """Settable deterministic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_trail():
    """The deterministic scenario behind the golden export."""
    clock = Clock()
    sched = FakeScheduler("c1", "c2", "c3", clock=clock)
    registry = sched.registry
    trail = AuditTrail(clock, registry)
    registry.audit = trail

    clock.now = 1.0
    job = fake_job(gpus=(0,))
    sched.submit(job)
    clock.now = 2.0
    sched.start(job)
    clock.now = 3.0
    registry.session_opened(fake_user(1001, "bob"), "login1")
    # a denial arrives through the event-log sink path
    trail.observe_event(SecurityEvent(
        4.0, EventKind.NET_DENY, 1000, "c2:8888", "cross-user listener",
        node="c1"))
    # a clean UBF accept through the verdict chokepoint
    clock.now = 5.0
    trail.ubf_verdict(None, flow("c1", "c3", 2049), 1000, Verdict.ACCEPT,
                      "rule: same-user", DecisionReason.SAME_USER)
    clock.now = 6.0
    sched.finish(job, JobState.COMPLETED)
    return registry, trail


class TestRecording:
    def test_lifecycle_records_attributed(self):
        registry, trail = build_trail()
        recs = trail.by_job(1)
        assert [(r.mechanism, r.action) for r in recs] == [
            ("sched", "submit"), ("sched", "dispatch"), ("gpu", "assign"),
            ("ubf", "deny"), ("ubf", "allow"), ("sched", "finish")]
        assert all(r.trace_id == "a000001" for r in recs)

    def test_event_sink_resolves_uid_node_to_job(self):
        _, trail = build_trail()
        (deny,) = trail.query(mechanism="ubf", action="deny")
        assert deny.uid == 1000
        assert deny.job_id == 1            # resolved via the live index
        assert deny.trace_id == "a000001"
        assert deny.time == 4.0            # the event's time, not clock now

    def test_ubf_verdict_records_accepts_only(self):
        _, trail = build_trail()
        n = len(trail)
        x = flow("c1", "x", 1)
        trail.ubf_verdict(None, x, 1000, Verdict.DROP, "r",
                          DecisionReason.CROSS_USER)
        trail.ubf_verdict(None, x, 1000, Verdict.ACCEPT,
                          "degraded: identd down", DecisionReason.DEGRADED)
        trail.ubf_verdict(None, x, None, Verdict.ACCEPT, "root-owned service",
                          DecisionReason.ROOT_SERVICE)
        assert len(trail) == n
        (allow,) = trail.query(mechanism="ubf", action="allow")
        assert (allow.job_id, allow.node, allow.target) == (1, "c1", "c3:2049")

    def test_session_login_recorded(self):
        _, trail = build_trail()
        (login,) = trail.query(mechanism="session")
        assert (login.uid, login.node, login.action) == \
            (1001, "login1", "login")
        assert login.trace_id == "a000002"

    def test_seq_is_append_order(self):
        _, trail = build_trail()
        assert [r.seq for r in trail.records] == list(range(len(trail)))


class TestQueries:
    def test_by_uid_and_node(self):
        _, trail = build_trail()
        assert {r.mechanism for r in trail.by_uid(1001)} == {"session"}
        assert all(r.node == "c1" for r in trail.by_node("c1"))

    def test_conjunctive_query(self):
        _, trail = build_trail()
        got = trail.query(uid=1000, mechanism="sched", action="dispatch")
        assert len(got) == 1 and got[0].node == "c1"
        assert trail.query(uid=1001, mechanism="sched") == []

    def test_chain_and_resolution(self):
        _, trail = build_trail()
        (deny,) = trail.query(mechanism="ubf", action="deny")
        chain = trail.chain(deny)
        assert [r.action for r in chain] == ["submit", "dispatch",
                                             "assign", "deny"]
        res = trail.resolution(deny)
        assert res["resolved"] and res["job_id"] == 1
        assert res["root"].action == "submit"

    def test_unattributed_record_not_resolved(self):
        trail = AuditTrail()
        trail.record(mechanism="ubf", action="deny", uid=4242, target="x")
        rec = trail.records[-1]
        assert trail.chain(rec) == [rec]
        assert not trail.resolution(rec)["resolved"]


class TestExport:
    def test_golden_jsonl(self):
        _, trail = build_trail()
        buf = io.StringIO()
        n = trail.export_jsonl(buf)
        assert n == len(trail.records)
        assert buf.getvalue() == GOLDEN.read_text()

    def test_schema_version_stamped(self):
        _, trail = build_trail()
        for line in trail.lines():
            d = json.loads(line)
            assert d["type"] == "audit"
            assert d["v"] == AUDIT_SCHEMA_VERSION
            assert set(d) == {"type", "v", "seq", "time", "mechanism",
                              "action", "uid", "job_id", "node",
                              "trace_id", "target", "detail"}

    def test_export_to_path(self, tmp_path):
        _, trail = build_trail()
        path = str(tmp_path / "audit.jsonl")
        n = trail.export_jsonl(path)
        assert len(Path(path).read_text().splitlines()) == n


class TestRegistryResolution:
    def test_prefers_live_job_on_node(self):
        sched = FakeScheduler("c1", "c2")
        for j in (fake_job(1, 1000, nodes=("c1",)),
                  fake_job(2, 1000, nodes=("c2",))):
            sched.submit(j)
            sched.start(j)
        assert sched.registry.resolve(1000, "c2").job_id == 2
        assert sched.registry.resolve(1000, "c1").job_id == 1

    def test_falls_back_newest_job_then_session(self):
        sched = FakeScheduler("c1")
        registry = sched.registry
        j = fake_job(7, 1000)
        sched.submit(j)
        sched.start(j)
        # unknown node: newest live job anywhere
        assert registry.resolve(1000, "login1").job_id == 7
        sched.finish(j, JobState.COMPLETED)
        assert registry.resolve(1000, "login1") is None
        registry.session_opened(fake_user(1000, "alice"), "login1")
        ctx = registry.resolve(1000, "login1")
        assert ctx.kind == "session"
        # no node given: any session of the uid
        assert registry.resolve(1000).kind == "session"

    def test_negative_uid_never_resolves(self):
        registry = FakeScheduler().registry
        registry.session_opened(fake_user(1000, "alice"), "login1")
        assert registry.resolve(-1, "login1") is None

    def test_requeue_keeps_context_live(self):
        sched = FakeScheduler("c1")
        j = fake_job(3, 1000)
        sched.submit(j)
        sched.start(j)
        sched.finish(j, JobState.NODE_FAIL)
        j.attempt = 2
        sched.registry.job_requeued(j)
        ctx = sched.registry.jobs[3]
        assert ctx.live and ctx.attempts == 2
