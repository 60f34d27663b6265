"""Integration tests: how the UBF data path degrades and recovers.

The acceptance story (experiment E23): with identd down on one peer, new
cross-host connections fail closed, established flows keep flowing via
conntrack, and recovery after the fault clears needs no manual flush.
"""

import pytest

from repro import Cluster, LLSC
from repro.faults import FaultKind
from repro.kernel.errors import TimedOut
from repro.monitor import EventKind, detect_probe_patterns, instrument_cluster
from repro.net import Proto, Verdict

from tests.net.conftest import build_fabric, proc_on


def serve(nodes, userdb, host, user, port):
    p = proc_on(nodes, host, userdb, user, argv=("server",))
    net = nodes[host].net
    return net.listen(net.bind(p, port)), p


class TestFailClosed:
    def test_identd_down_blast_radius_and_recovery(self, userdb):
        """The headline contract, cache disabled so every decision needs
        ident: established flows survive, NEW fails closed, clearance alone
        restores service."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                        cache=False)
        serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        fault = fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        conn.send(b"still flowing")  # conntrack fast path: untouched
        with pytest.raises(TimedOut):  # NEW needs ident: fail closed
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                    "c2", 5000)
        assert fabric.metrics.counter("ubf_degraded_verdicts",
                                      policy="fail-closed").value == 1
        fabric.faults.clear(fault)
        conn2 = nodes["c1"].net.connect(  # no manual flush needed
            proc_on(nodes, "c1", userdb, "alice"), "c2", 5000)
        assert conn2.open

    def test_cached_principal_survives_identd_outage(self, userdb):
        """Resilience bonus of the fixed cache: a principal whose decision
        is cached needs no RTT, so the outage doesn't touch them — while an
        uncached principal fails closed."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                        cache=True)
        serve(nodes, userdb, "c2", "alice", 5000)
        alice = proc_on(nodes, "c1", userdb, "alice")
        nodes["c1"].net.connect(alice, "c2", 5000)  # populates the cache
        fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        assert nodes["c1"].net.connect(alice, "c2", 5000).open  # cache hit
        with pytest.raises(TimedOut):  # carol is uncached: fail closed
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "carol"),
                                    "c2", 5000)

    def test_degraded_verdict_is_not_cached(self, userdb):
        """A fail-closed DROP reflects the fault, not the principal; it must
        vanish with the fault instead of poisoning the cache."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                        cache=True)
        serve(nodes, userdb, "c2", "alice", 5000)
        alice = proc_on(nodes, "c1", userdb, "alice")
        fault = fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(alice, "c2", 5000)
        fabric.faults.clear(fault)
        assert nodes["c1"].net.connect(alice, "c2", 5000).open

    def test_fail_open_ablation_accepts(self, userdb):
        """fail_open=True trades separation for availability: even a
        cross-user connection is admitted while identity is unknowable."""
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                              cache=False)
        daemons["c2"].fail_open = True
        serve(nodes, userdb, "c2", "alice", 5000)
        fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "bob"),
                                       "c2", 5000)
        assert conn.open
        assert fabric.metrics.counter("ubf_degraded_verdicts",
                                      policy="fail-open").value == 1


class TestRetryWithBackoff:
    def test_retry_rides_out_slow_identd(self, userdb):
        """fail_attempts=2 < 3 total attempts: the third answers, the
        connection goes through, and nobody saw a degraded verdict."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                        cache=False)
        serve(nodes, userdb, "c2", "alice", 5000)
        fabric.faults.inject(FaultKind.IDENTD_SLOW, "c1", fail_attempts=2)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        assert conn.open
        rep = fabric.metrics.report()
        assert rep["ubf_ident_retries"] == 2
        assert rep["ubf_ident_timeouts"] == 2
        assert not any(k.startswith("ubf_degraded_verdicts") for k in rep)
        backoffs = fabric.metrics.samples("ubf_ident_backoff_us").values
        assert backoffs == [200.0, 400.0]  # exponential

    def test_retries_exhausted_degrades(self, userdb):
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                        cache=False)
        serve(nodes, userdb, "c2", "alice", 5000)
        fabric.faults.inject(FaultKind.IDENTD_SLOW, "c1", fail_attempts=99)
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                    "c2", 5000)
        rep = fabric.metrics.report()
        assert rep["ubf_ident_timeouts"] == 3  # first try + 2 retries
        assert rep["ubf_ident_retries"] == 2

    def test_unknown_peer_degrades_without_retries(self, userdb):
        """A packet claiming an unknown source host cannot get better by
        waiting: one degraded DROP, no retry loop, no daemon crash."""
        from repro.net.firewall import ConnState, FiveTuple, Packet

        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"],
                                              ubf=True)
        serve(nodes, userdb, "c2", "alice", 5000)
        pkt = Packet(FiveTuple(Proto.TCP, "ghost", 50000, "c2", 5000),
                     ConnState.NEW)
        assert daemons["c2"].decide(pkt) is Verdict.DROP
        assert daemons["c2"].log[-1].reason.startswith("degraded")
        assert "ident_round_trips" not in fabric.metrics.report()


class TestCrashRestart:
    def test_crash_fails_closed_established_survive(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"],
                                              ubf=True)
        serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        daemons["c2"].crash()
        assert not daemons["c2"].alive
        conn.send(b"x")  # conntrack survives the daemon
        with pytest.raises(TimedOut):  # NEW: nobody to ask → DROP
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                    "c2", 5000)

    def test_restart_resyncs_without_manual_flush(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"],
                                              ubf=True)
        serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        assert len(daemons["c2"]._cache) == 1  # the decision is cached
        daemons["c2"].crash()
        daemons["c2"].restart()
        assert daemons["c2"].alive
        assert len(daemons["c2"]._cache) == 0  # stale identity state dropped
        conn.send(b"x")  # survivor untouched
        assert nodes["c1"].net.connect(  # NEW decisions run again
            proc_on(nodes, "c1", userdb, "alice"), "c2", 5000).open
        rep = fabric.metrics.report()
        assert rep["ubf_crashes"] == 1 and rep["ubf_restarts"] == 1
        assert fabric.metrics.gauge("ubf_resync_flows").value >= 1

    def test_crash_and_restart_are_idempotent(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"],
                                              ubf=True)
        daemons["c2"].crash()
        daemons["c2"].crash()
        daemons["c2"].restart()
        daemons["c2"].restart()
        assert fabric.metrics.report()["ubf_crashes"] == 1
        assert fabric.metrics.report()["ubf_restarts"] == 1


@pytest.fixture
def cluster():
    c = Cluster.build(LLSC, n_compute=2,
                      users=("alice", "bob"), staff=("sam",))
    instrument_cluster(c)
    return c


def _alice_service(cluster, port=5000):
    job = cluster.submit("alice", duration=1000.0)
    cluster.run(until=1.0)
    shell = cluster.job_session(job)
    shell.node.net.listen(shell.node.net.bind(shell.process, port))
    return shell.node.name


class TestChaosController:
    def test_kill_ubf_preserves_monitoring_wrapper(self, cluster):
        """The restart must rebind the *instrumented* handler: a cross-user
        denial after heal_all still lands in the security log."""
        host = _alice_service(cluster)
        chaos = cluster.chaos()
        chaos.kill_ubf(host)
        alice = cluster.login("alice")
        with pytest.raises(TimedOut):  # daemon dead: fail closed
            alice.socket().connect(host, 5000)
        chaos.heal_all()
        assert cluster.ubf_daemons[host].alive
        assert alice.socket().connect(host, 5000).open
        bob = cluster.login("bob")
        with pytest.raises(TimedOut):
            bob.socket().connect(host, 5000)
        denials = cluster.security_log.by_kind(EventKind.NET_DENY)
        assert any(e.subject_uid == bob.user.uid for e in denials)

    def test_timed_fault_auto_clears(self, cluster):
        host = _alice_service(cluster)
        chaos = cluster.chaos()
        login = cluster.login_nodes[0].name
        chaos.identd_down(login, for_=10.0)
        alice = cluster.login("alice")
        with pytest.raises(TimedOut):
            alice.socket().connect(host, 5000)
        cluster.run(until=20.0)
        assert chaos.active() == []
        assert alice.socket().connect(host, 5000).open

    def test_degraded_events_not_blamed_on_principal(self, cluster):
        """Degraded DROPs surface as DEGRADED (infrastructure), never as
        NET_DENY, and never trip the probe heuristic."""
        host = _alice_service(cluster)
        chaos = cluster.chaos()
        chaos.identd_down(cluster.login_nodes[0].name)
        alice = cluster.login("alice")
        for _ in range(3):
            with pytest.raises(TimedOut):
                alice.socket().connect(host, 5000)
        log = cluster.security_log
        assert len(log.by_kind(EventKind.DEGRADED)) >= 1
        assert not log.by_kind(EventKind.NET_DENY)
        assert detect_probe_patterns(log, min_denials=1,
                                     min_distinct_targets=1) == []

    def test_conntrack_pressure_applies_and_restores(self, cluster):
        host = cluster.compute_nodes[0].name
        table = cluster.fabric.host(host).firewall.conntrack
        chaos = cluster.chaos()
        fault = chaos.conntrack_pressure(host, capacity=2)
        assert table.capacity == 2
        chaos.clear(fault)
        assert table.capacity == LLSC.conntrack_max
        assert chaos.active() == []

    def test_partition_blocks_even_established(self, cluster):
        host = _alice_service(cluster)
        chaos = cluster.chaos()
        alice = cluster.login("alice")
        conn = alice.socket().connect(host, 5000)
        chaos.partition(host)
        with pytest.raises(TimedOut):
            conn.send(b"x")
        chaos.heal_all()
        conn.send(b"x")


class TestDashboardPosture:
    def test_degradation_section_renders(self, cluster):
        from repro.obs.dashboard import ops_dashboard

        text = ops_dashboard(cluster)
        assert "## Degradation posture" in text
        assert "No active faults." in text
        chaos = cluster.chaos()
        host = cluster.compute_nodes[0].name
        chaos.identd_down(host)
        chaos.kill_ubf(host)
        text = ops_dashboard(cluster)
        assert "identd-unresponsive" in text
        assert f"UBF daemons down: {host}" in text
        chaos.heal_all()
        assert "No active faults." in ops_dashboard(cluster)
