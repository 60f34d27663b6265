"""Tests: instrument_cluster wiring — idempotency, round-trips, new kinds."""

import pytest

from repro import Cluster, LLSC
from repro.kernel.errors import AccessDenied, KernelError, TimedOut
from repro.monitor import (
    EventKind,
    audited_seepid,
    audited_session,
    instrument_cluster,
)
from repro.net import ConnState, FiveTuple, Packet, Proto, Verdict
from repro.obs import attach_telemetry


@pytest.fixture
def cluster():
    return Cluster.build(LLSC, n_compute=3, gpus_per_node=1,
                         users=("alice", "bob", "mallory"), staff=("sam",))


@pytest.fixture
def log(cluster):
    return instrument_cluster(cluster)


class TestIdempotency:
    def test_second_call_returns_same_log(self, cluster, log):
        assert instrument_cluster(cluster) is log

    def test_pam_denial_not_duplicated(self, cluster, log):
        instrument_cluster(cluster)  # second call must not re-wrap
        with pytest.raises(AccessDenied):
            cluster.ssh("bob", "c1")
        assert len(log.by_kind(EventKind.PAM_DENY)) == 1

    def test_ubf_denial_not_duplicated(self, cluster, log):
        instrument_cluster(cluster)
        job = cluster.submit("alice", duration=100.0)
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        shell.node.net.listen(shell.node.net.bind(shell.process, 5000))
        with pytest.raises(TimedOut):
            cluster.login("bob").socket().connect(shell.node.name, 5000)
        assert len(log.by_kind(EventKind.NET_DENY)) == 1


class TestRoundTrips:
    """Each enforcement point's refusal lands in the log as its own kind."""

    def test_ubf_deny_to_net_deny(self, cluster, log):
        job = cluster.submit("alice", duration=100.0)
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        shell.node.net.listen(shell.node.net.bind(shell.process, 5000))
        bob = cluster.login("bob")
        with pytest.raises(TimedOut):
            bob.socket().connect(shell.node.name, 5000)
        (e,) = log.by_kind(EventKind.NET_DENY)
        assert e.subject_uid == bob.user.uid

    def test_pam_refusal_to_pam_deny(self, cluster, log):
        with pytest.raises(AccessDenied):
            cluster.ssh("mallory", "c1")
        (e,) = log.by_kind(EventKind.PAM_DENY)
        assert e.subject_uid == cluster.user("mallory").uid
        assert e.target == "c1"

    def test_audited_seepid_to_admin(self, cluster, log):
        audited_seepid(cluster, cluster.login("sam"))
        (e,) = log.by_kind(EventKind.ADMIN)
        assert e.subject_uid == cluster.user("sam").uid


def _alice_listener(cluster, port=5000):
    job = cluster.submit("alice", duration=100.0)
    cluster.run(until=1.0)
    shell = cluster.job_session(job)
    shell.node.net.listen(shell.node.net.bind(shell.process, port))
    return shell.node.name


class TestUbfEvents:
    """UBF daemons report through the log themselves — burst path
    included — instead of having their nfqueue handler rebound."""

    def test_burst_drop_emits_one_net_deny(self, cluster, log):
        host = _alice_listener(cluster)
        bob = cluster.login("bob")
        sock = bob.node.net.bind_ephemeral(bob.process, Proto.TCP)
        burst = [Packet(FiveTuple(Proto.TCP, bob.node.name, sock.port,
                                  host, 5000),
                        ConnState.NEW, src_uid=bob.user.uid)]
        fw = cluster.fabric.host(host).firewall
        assert fw.evaluate_batch(burst) == [Verdict.DROP]
        (e,) = log.by_kind(EventKind.NET_DENY)
        assert e.subject_uid == bob.user.uid
        assert e.target == f"{host}:5000"

    def test_crashed_daemon_still_fails_closed_after_instrumenting(
            self, cluster):
        host = _alice_listener(cluster)
        daemon = cluster.ubf_daemons[host]
        daemon.crash()
        instrument_cluster(cluster)
        with pytest.raises(TimedOut):  # nobody to ask: NEW flows DROP
            cluster.login("alice").socket().connect(host, 5000)
        assert not daemon.alive


class TestGpuDeny:
    def test_unassigned_gpu_open_emits_gpu_deny(self, cluster, log):
        job = cluster.submit("bob", duration=100.0)  # no GPUs requested
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        with pytest.raises(AccessDenied):
            shell.sys.open_read("/dev/nvidia0")
        (e,) = log.by_kind(EventKind.GPU_DENY)
        assert e.subject_uid == cluster.user("bob").uid
        assert e.target == f"{job.nodes[0]}:/dev/nvidia0"

    def test_assigned_gpu_open_not_logged(self, cluster, log):
        job = cluster.submit("alice", duration=100.0, gpus_per_task=1)
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        shell.sys.open_read("/dev/nvidia0")  # prolog granted it
        assert log.by_kind(EventKind.GPU_DENY) == []


class TestPortalDeny:
    def test_auth_failure_emits_portal_deny(self, cluster, log):
        with pytest.raises(AccessDenied):
            cluster.portal.connect("tok-bogus", 7)
        (e,) = log.by_kind(EventKind.PORTAL_DENY)
        assert e.subject_uid == -1  # refused before authentication
        assert e.target == "portal:app/7"

    def test_successful_forward_not_logged(self, cluster, log):
        from repro.portal import launch_webapp
        job = cluster.submit("alice", duration=100.0)
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        app = launch_webapp(shell.node, shell.process, 8888, "jupyter")
        cluster.portal.register(app)
        session = cluster.portal.login("alice")
        assert b"jupyter" in cluster.portal.connect(session.token,
                                                    app.app_id)
        assert log.by_kind(EventKind.PORTAL_DENY) == []


class TestTelemetryHandshake:
    """instrument_cluster and attach_telemetry compose in either order:
    telemetry's export sees every event the log records."""

    def test_instrument_then_attach(self, cluster):
        log = instrument_cluster(cluster)
        tele = attach_telemetry(cluster)
        with pytest.raises(AccessDenied):
            cluster.ssh("bob", "c1")
        assert tele.events.events == log.events != []

    def test_attach_then_instrument(self, cluster):
        tele = attach_telemetry(cluster)
        assert tele.events.events == []
        log = instrument_cluster(cluster)
        with pytest.raises(AccessDenied):
            cluster.ssh("bob", "c1")
        assert tele.events.events == log.events != []

    def test_probe_detection_unaffected_by_telemetry(self, cluster):
        attach_telemetry(cluster)
        log = instrument_cluster(cluster)
        mallory = cluster.login("mallory")
        msys = audited_session(mallory, log)
        for victim in ("alice", "bob"):
            for f in ("a", "b", "c"):
                try:
                    msys.open_read(f"/home/{victim}/{f}")
                except KernelError:
                    pass
        from repro.monitor import detect_probe_patterns
        (alert,) = detect_probe_patterns(log)
        assert alert.subject_uid == mallory.user.uid


class TestChildSyscalls:
    def test_child_denial_is_counted_and_audited(self, cluster):
        """A child spawned through an audited, telemetry-counted session
        keeps both wrappers: its refused listdir is one FS_DENY under the
        child's uid and node, and one deny count."""
        tele = attach_telemetry(cluster)
        log = instrument_cluster(cluster)
        bob = cluster.login("bob")
        deny = tele.metrics.counter("syscalls_total", result="deny")
        before = deny.value
        child = audited_session(bob, log).spawn_child(["bob-tool"])
        assert child.process.ppid == bob.process.pid
        with pytest.raises(AccessDenied):
            child.listdir("/home/alice")
        (event,) = log.by_kind(EventKind.FS_DENY)
        assert event.subject_uid == child.creds.uid == bob.user.uid
        assert event.node == bob.node.name
        assert event.target == "/home/alice"
        assert deny.value == before + 1
