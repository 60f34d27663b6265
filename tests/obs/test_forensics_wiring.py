"""Tests: attach_forensics wiring — idempotency, handshakes with the other
observability spines, hook placement, and end-to-end attribution."""

import pytest

from repro import Cluster, LLSC
from repro.faults import FaultKind
from repro.kernel.errors import AccessDenied
from repro.monitor import EventKind, instrument_cluster
from repro.obs import attach_forensics, attach_telemetry, ops_dashboard
from repro.observer import Observer
from repro.persist import attach_persistence
from repro.transfer import scp


@pytest.fixture
def cluster():
    return Cluster.build(LLSC, n_compute=3, gpus_per_node=1,
                         users=("alice", "bob", "mallory"), staff=("sam",))


class TestIdempotency:
    def test_second_call_returns_same_bundle(self, cluster):
        bundle = attach_forensics(cluster)
        assert attach_forensics(cluster) is bundle
        assert cluster.forensics is bundle

    def test_audit_records_not_duplicated(self, cluster):
        instrument_cluster(cluster)
        bundle = attach_forensics(cluster)
        attach_forensics(cluster)  # must not re-subscribe the sinks
        with pytest.raises(AccessDenied):
            cluster.ssh("bob", "c1")
        assert len(bundle.audit.query(mechanism="pam", action="deny")) == 1


class TestHandshakes:
    """attach_forensics composes with the other spines in either order."""

    @staticmethod
    def _span_ids(spans):
        return [s["span_id"] if isinstance(s, dict) else s.span_id
                for s in spans]

    def test_telemetry_first_shares_tracer(self, cluster):
        tele = attach_telemetry(cluster)
        bundle = attach_forensics(cluster)
        cluster.submit("alice", duration=5.0)
        cluster.run(until=1.0)
        spans = bundle.flight.snapshot().spans
        assert spans and self._span_ids(spans) == \
            self._span_ids(tele.tracer.spans)

    def test_forensics_first_gets_tracer_later(self, cluster):
        bundle = attach_forensics(cluster)
        assert bundle.flight.snapshot().spans == []
        tele = attach_telemetry(cluster)
        cluster.submit("alice", duration=5.0)
        cluster.run(until=1.0)
        spans = bundle.flight.snapshot().spans
        assert spans and self._span_ids(spans) == \
            self._span_ids(tele.tracer.spans)

    def test_instrument_first_trail_starts_at_attachment(self, cluster):
        log = instrument_cluster(cluster)
        with pytest.raises(AccessDenied):
            cluster.ssh("mallory", "c2")  # recorded before attachment
        bundle = attach_forensics(cluster)
        # like the flight recorder's rings, the trail models what the
        # plane saw from attachment onward
        assert bundle.audit.query(mechanism="pam", action="deny") == []
        assert len(bundle.flight.snapshot().events) == 0
        with pytest.raises(AccessDenied):
            cluster.ssh("mallory", "c2")
        (rec,) = bundle.audit.query(mechanism="pam", action="deny")
        assert rec.uid == cluster.user("mallory").uid
        assert len(log.by_kind(EventKind.PAM_DENY)) == 2


class TestHooks:
    def test_all_hooks_point_at_the_bundle(self, cluster):
        """The four components, not the bundle, are on every point."""
        bundle = attach_forensics(cluster)
        components = [bundle.registry, bundle.audit, bundle.flight,
                      bundle.alerts]
        assert not isinstance(bundle, Observer)
        points = [cluster, cluster.scheduler, cluster.portal,
                  cluster.fabric.faults, *cluster.ubf_daemons.values()]
        for point in points:
            assert [o for o in point.observers if o in components] \
                == components
        assert bundle.registry.audit is bundle.audit

    def test_login_opens_session_context(self, cluster):
        """A login is recorded once; scp's PAM session is no login."""
        bundle = attach_forensics(cluster)
        session = cluster.login("alice")
        session.sys.create("/tmp/f", mode=0o600, data=b"x")
        scp(cluster, session, "/tmp/f", "login1:/tmp/g")
        uid = session.user.uid
        key = (uid, session.node.name)
        assert key in bundle.registry.sessions
        (rec,) = bundle.audit.query(mechanism="session", action="login")
        assert rec.uid == uid and rec.node == session.node.name

    def test_fault_injection_snapshots_flight_dump(self, cluster):
        bundle = attach_forensics(cluster)
        cluster.fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        (dump,) = bundle.flight.dumps_for("fault-injected")
        assert dump.node == "c1"


class TestEndToEnd:
    def test_gpu_deny_attributed_to_submitting_job(self, cluster):
        instrument_cluster(cluster)
        bundle = attach_forensics(cluster)
        job = cluster.submit("bob", duration=100.0)  # no GPUs requested
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        with pytest.raises(AccessDenied):
            shell.sys.open_read("/dev/nvidia0")
        (rec,) = bundle.audit.query(mechanism="gpu", action="deny")
        assert rec.uid == cluster.user("bob").uid
        assert rec.job_id == job.job_id
        res = bundle.audit.resolution(rec)
        assert res["resolved"] and res["root"].action == "submit"

    def test_crash_window_login_action_resolves_to_running_job(
            self, cluster):
        # a control-plane crash empties the scheduler's job tables but not
        # the nodes': a login-node action by a user whose job still runs
        # belongs to that job, not to the user's shell session
        attach_persistence(cluster)
        registry = attach_forensics(cluster).registry
        cluster.login("alice")
        job = cluster.submit("alice", duration=100.0)
        cluster.run(until=1.0)
        uid = cluster.user("alice").uid
        login1 = cluster.login_nodes[0].name
        cluster.chaos().crash_scheduler()
        assert cluster.scheduler.jobs == {}
        ctx = registry.resolve(uid, login1)
        assert (ctx.kind, ctx.job_id) == ("job", job.job_id)
        cluster.recover()
        assert registry.resolve(uid, login1) is ctx

    def test_node_fence_snapshots_flight_dump(self, cluster):
        instrument_cluster(cluster)
        bundle = attach_forensics(cluster)
        cluster.submit("alice", duration=100.0)
        cluster.run(until=1.0)
        cluster.scheduler.fail_node("c1")
        (dump,) = bundle.flight.dumps_for("node-fenced")
        assert dump.node == "c1"
        assert dump.gpus  # GPU forensic state sampled into the dump

    def test_dashboard_renders_forensic_sections(self, cluster):
        attach_forensics(cluster)
        cluster.submit("alice", duration=5.0)
        cluster.run(until=10.0)
        text = ops_dashboard(cluster)
        assert "## Alerts" in text
        assert "## Forensic audit plane" in text

    def test_dashboard_notes_missing_plane(self, cluster):
        cluster.submit("alice", duration=5.0)
        cluster.run(until=10.0)
        assert "attach_forensics" in ops_dashboard(cluster)
