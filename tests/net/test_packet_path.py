"""The packet path's bookkeeping: counter series held at their first
bump, and no reference cycle left behind by a connection or a flow."""

import gc
import weakref

import pytest

from repro import LLSC, Cluster
from repro.kernel.errors import TimedOut
from repro.net import ConnState, Firewall, FiveTuple, Packet, Proto
from repro.net.firewall import HeldCounters
from repro.observer import Observer
from repro.sim.metrics import MetricSet

from tests.net.conftest import build_fabric, proc_on


def flow(dport=5000):
    return FiveTuple(Proto.TCP, "c1", 50000, "c2", dport)


class TestHeldSeries:
    def test_keys_name_the_series_asking_by_name_gives(self):
        m = MetricSet()
        held = HeldCounters(m)
        assert m.all_counters() == []  # nothing resolves before a bump
        held["rule_walks"].value += 1
        held["ubf_verdicts_total", "verdict", "drop",
             "reason", "cross-user"].value += 2
        assert held["rule_walks"] is m.counter("rule_walks")
        assert m.counter("ubf_verdicts_total", reason="cross-user",
                         verdict="drop").value == 2
        assert len(m.all_counters()) == 2

    def test_packet_series_register_at_their_first_bump(self):
        """A fresh cluster has none of the packet path's series; each
        appears with the first packet that bumps it, as when every bump
        asked the registry by name."""
        cluster = Cluster.build(LLSC, n_compute=2)
        metrics = cluster.fabric.metrics

        def present():
            return {name for name in (
                "connect_attempts", "rule_walks", "ubf_verdicts_total",
                "conntrack_fastpath_packets", "conntrack_evictions_total")
                if metrics.family(name)}

        def proc(node, user):
            creds = cluster.userdb.credentials_for(cluster.user(user))
            return cluster.node(node).procs.spawn(creds, ["app"])

        assert present() == set()
        c2 = cluster.node("c2").net
        c2.listen(c2.bind(proc("c2", "alice"), 5000))
        end = cluster.node("c1").net.connect(proc("c1", "alice"), "c2", 5000)
        assert present() == {"connect_attempts", "rule_walks",
                             "ubf_verdicts_total"}
        end.send(b"established")
        assert "conntrack_fastpath_packets" in present()
        assert "conntrack_evictions_total" not in present()
        end.close()
        assert metrics.counter("conntrack_evictions_total",
                               reason="close").value == 2  # both hosts

    def test_a_rewired_registry_counts_the_next_packet(self):
        """An owner holds its series against its current registry: a
        firewall (and its conntrack) rewired after bumping counts the
        next packet in the new registry."""
        fw = Firewall()
        old = fw.metrics
        fw.evaluate(Packet(flow(5000), ConnState.NEW))
        fw.conntrack.evict(flow(5000))
        fw.metrics = fw.conntrack.metrics = new = MetricSet()
        fw.evaluate(Packet(flow(6000), ConnState.NEW))
        fw.conntrack.evict(flow(6000))
        for m in (old, new):
            assert m.counter("rule_walks").value == 1
            assert m.counter("conntrack_evictions_total",
                             reason="close").value == 1


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees anything inside the test."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


class FlowWatcher(Observer):
    """Weak references to every flow a UBF daemon decides."""

    def __init__(self):
        self.flows = []

    def ubf_verdict(self, daemon, flow, uid, verdict, reason, code):
        self.flows.append(weakref.ref(flow))


class TestNoCycles:
    def test_a_closed_connection_and_its_flows_are_freed(self, userdb,
                                                          no_cyclic_gc):
        """A connect, a send each way and a close leave the connection,
        its flow and the flow's twin to reference counting."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        srv = proc_on(nodes, "c2", userdb, "alice")
        listener = nodes["c2"].net.listen(nodes["c2"].net.bind(srv, 5000))
        client = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb,
                                                 "alice"), "c2", 5000)
        server = nodes["c2"].net.accept(listener)
        client.send(b"ping")
        server.send(b"pong")  # the reply direction links the twin
        conn = client._conn
        refs = [weakref.ref(x) for x in (conn, conn.flow,
                                         conn.flow.reversed())]
        client.close()
        del client, server, conn
        assert [r() for r in refs] == [None, None, None]

    def test_a_dropped_connect_leaves_its_flow_collectable(self, userdb,
                                                           no_cyclic_gc):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"],
                                              ubf=True)
        watcher = FlowWatcher()
        daemons["c2"].observers.append(watcher)
        srv = proc_on(nodes, "c2", userdb, "alice")
        nodes["c2"].net.listen(nodes["c2"].net.bind(srv, 5000))
        bob = proc_on(nodes, "c1", userdb, "bob")
        try:
            nodes["c1"].net.connect(bob, "c2", 5000)
        except TimedOut:
            pass
        else:
            raise AssertionError("a cross-user connect was accepted")
        assert len(watcher.flows) == 1
        assert watcher.flows[0]() is None
