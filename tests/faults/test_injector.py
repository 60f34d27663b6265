"""Unit tests: the fault injector's registry and data-path predicates."""

import pytest

from repro.faults import Fault, FaultInjector, FaultKind
from repro.kernel.errors import ConnectionRefused, TimedOut
from repro.net import Proto

from tests.net.conftest import build_fabric, proc_on


@pytest.fixture
def injector():
    from repro.sim.metrics import MetricSet
    return FaultInjector(MetricSet(), seed=7)


class TestRegistry:
    def test_inject_and_clear(self, injector):
        fault = injector.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        assert fault.active
        assert injector.active() == [fault]
        assert injector.metrics.gauge("faults_active").value == 1
        injector.clear(fault)
        assert not fault.active
        assert injector.active() == []
        assert injector.metrics.gauge("faults_active").value == 0

    def test_clear_is_idempotent(self, injector):
        fault = injector.inject(FaultKind.HOST_UNREACHABLE, "c1")
        injector.clear(fault)
        injector.clear(fault)
        assert injector.metrics.counter(
            "faults_cleared_total", kind=fault.kind.value).value == 1

    def test_active_filters(self, injector):
        a = injector.inject(FaultKind.HOST_UNREACHABLE, "c1")
        b = injector.inject(FaultKind.IDENTD_UNRESPONSIVE, "c2")
        assert injector.active(FaultKind.HOST_UNREACHABLE) == [a]
        assert injector.active(host="c2") == [b]
        assert set(injector.active()) == {a, b}

    def test_clear_all(self, injector):
        injector.inject(FaultKind.HOST_UNREACHABLE, "c1")
        injector.inject(FaultKind.PACKET_LOSS, "c2", loss_rate=0.5)
        injector.clear_all()
        assert injector.active() == []

    def test_describe_hides_private_params(self):
        fault = Fault(1, FaultKind.CONNTRACK_PRESSURE, "c1",
                      {"capacity": 4, "_prev_capacity": None})
        assert fault.describe() == "conntrack-pressure on c1 (capacity=4)"


class TestPredicates:
    def test_unreachable_blocks_ident_too(self, injector):
        injector.inject(FaultKind.HOST_UNREACHABLE, "c1")
        assert injector.host_unreachable("c1")
        assert not injector.ident_attempt_ok("c1")
        assert not injector.host_unreachable("c2")
        assert injector.ident_attempt_ok("c2")

    def test_identd_down_host_still_reachable(self, injector):
        injector.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        assert not injector.ident_attempt_ok("c1")
        assert not injector.host_unreachable("c1")

    def test_slow_identd_consumes_attempt_budget(self, injector):
        injector.inject(FaultKind.IDENTD_SLOW, "c1", fail_attempts=2)
        assert not injector.ident_attempt_ok("c1")
        assert not injector.ident_attempt_ok("c1")
        assert injector.ident_attempt_ok("c1")  # budget spent: recovers

    def test_packet_loss_is_seeded(self):
        from repro.sim.metrics import MetricSet

        def draws(seed):
            inj = FaultInjector(MetricSet(), seed=seed)
            inj.inject(FaultKind.PACKET_LOSS, "c1", loss_rate=0.5)
            return [inj.drop_packet("c1") for _ in range(50)]

        assert draws(7) == draws(7)  # deterministic
        assert any(draws(7)) and not all(draws(7))  # rate actually partial
        assert draws(7) != draws(8)  # seed actually matters

    def test_cluster_loss_draws_are_seeded_by_default(self):
        """A cluster's injector is seeded without being asked: two
        identically built clusters lose the same packets."""
        from repro import Cluster, LLSC

        def losses():
            fabric = Cluster.build(LLSC, n_compute=2,
                                   users=("alice",)).fabric
            fabric.faults.inject(FaultKind.PACKET_LOSS, "c1", loss_rate=0.5)
            lost = []
            for _ in range(64):
                try:
                    fabric.check_transit("login1", "c1")
                    lost.append(False)
                except TimedOut:
                    lost.append(True)
            return lost

        first = losses()
        assert any(first) and not all(first)
        assert losses() == first

    def test_zero_loss_never_drops(self, injector):
        injector.inject(FaultKind.PACKET_LOSS, "c1", loss_rate=0.0)
        assert not any(injector.drop_packet("c1") for _ in range(20))

    def test_healthy_injector_answers_without_listing(self, injector,
                                                      monkeypatch):
        """With no fault active, fresh or after a clear, every predicate
        gives its no-fault answer without listing faults or drawing."""
        from repro.sim.metrics import MetricSet

        def listed(*args, **kwargs):
            raise AssertionError("FaultInjector.active with nothing active")

        injector.clear(injector.inject(FaultKind.NODE_CRASH, "c1"))
        monkeypatch.setattr(FaultInjector, "active", listed)
        for host in ("c1", "c2"):
            assert not injector.host_unreachable(host)
            assert not injector.node_crashed(host)
            assert injector.heartbeat_ok(host)
            assert injector.ident_attempt_ok(host)
            assert injector.spoofed_reply(host) is None
            assert not injector.drop_packet(host)
        assert injector._rng.random() \
            == FaultInjector(MetricSet(), seed=7)._rng.random()


class TestTransit:
    def test_healthy_path_never_lists_faults(self, userdb, monkeypatch):
        """With nothing injected, connect, send and a decide that asks the
        initiator's identd never list the active faults."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"],
                                        ubf=True, cache=False)
        srv = proc_on(nodes, "c2", userdb, "alice")
        nodes["c2"].net.listen(nodes["c2"].net.bind(srv, 5000))

        def listed(*args, **kwargs):
            raise AssertionError("FaultInjector.active on the data path")

        monkeypatch.setattr(FaultInjector, "active", listed)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        conn.send(b"x")
        conn.send(b"y")
        assert fabric.metrics.report()["ident_round_trips"] == 1

    def test_unreachable_host_times_out_connect(self, userdb):
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=False)
        fabric.faults.inject(FaultKind.HOST_UNREACHABLE, "c2")
        alice = proc_on(nodes, "c1", userdb, "alice")
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(alice, "c2", 5000)
        assert fabric.metrics.report()["fault_unreachable_drops"] == 1

    def test_local_delivery_exempt_from_transit(self, userdb):
        """A host partitioned off the fabric can still talk to itself."""
        fabric, nodes, _ = build_fabric(userdb, ["c1"], ubf=False)
        fabric.faults.inject(FaultKind.HOST_UNREACHABLE, "c1")
        alice = proc_on(nodes, "c1", userdb, "alice")
        inbox = nodes["c1"].net.bind(alice, 6000, Proto.UDP)
        nodes["c1"].net.sendto(alice, "c1", 6000, b"loop")
        assert nodes["c1"].net.recvfrom(inbox).data == b"loop"

    def test_established_flow_killed_by_partition(self, userdb):
        """Partition severs even conntrack-established traffic — conntrack
        survives *daemon* faults, not the wire itself."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=False)
        alice_srv = proc_on(nodes, "c2", userdb, "alice")
        nodes["c2"].net.listen(nodes["c2"].net.bind(alice_srv, 5000))
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        fault = fabric.faults.inject(FaultKind.HOST_UNREACHABLE, "c2")
        with pytest.raises(TimedOut):
            conn.send(b"x")
        fabric.faults.clear(fault)
        conn.send(b"x")  # flow was never evicted; heals instantly

    def test_refused_send_not_counted_as_fault(self, userdb):
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=False)
        alice = proc_on(nodes, "c1", userdb, "alice")
        with pytest.raises(ConnectionRefused):
            nodes["c1"].net.connect(alice, "c2", 5000)
        assert "fault_unreachable_drops" not in fabric.metrics.report()
