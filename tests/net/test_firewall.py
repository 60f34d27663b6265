"""Unit tests: rules, conntrack, nfqueue plumbing."""

from repro.net import (
    ConnState,
    ConntrackTable,
    Firewall,
    FiveTuple,
    Packet,
    Proto,
    Rule,
    Verdict,
    ubf_ruleset,
)


def flow(dport=5000, proto=Proto.TCP, src_port=50000):
    return FiveTuple(proto, "c1", src_port, "c2", dport)


class TestFiveTuple:
    def test_hash_is_the_field_tuple_hash(self):
        f = flow()
        assert hash(f) == hash((Proto.TCP, "c1", 50000, "c2", 5000))

    def test_reverse_is_built_once_and_linked(self):
        f = flow()
        rev = f.reversed()
        assert rev == FiveTuple(Proto.TCP, "c2", 5000, "c1", 50000)
        assert f.reversed() is rev
        assert rev.reversed() is f

    def test_separately_built_flows_are_equal_keys(self):
        a, b = flow(), flow()
        assert a is not b and a == b and hash(a) == hash(b)
        a.reversed()  # a linked twin changes neither equality nor hash
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_only_the_five_flow_fields_are_fields(self):
        import dataclasses
        f = flow()
        f.reversed()
        assert [x.name for x in dataclasses.fields(f)] == [
            "proto", "src_host", "src_port", "dst_host", "dst_port"]
        assert dataclasses.asdict(f) == {
            "proto": Proto.TCP, "src_host": "c1", "src_port": 50000,
            "dst_host": "c2", "dst_port": 5000}
        assert repr(f) == ("FiveTuple(proto=<Proto.TCP: 'tcp'>, "
                           "src_host='c1', src_port=50000, dst_host='c2', "
                           "dst_port=5000)")


class TestRules:
    def test_port_range_match(self):
        r = Rule(Verdict.NFQUEUE, dport_min=1024)
        assert r.matches(Packet(flow(5000), ConnState.NEW))
        assert not r.matches(Packet(flow(22), ConnState.NEW))

    def test_proto_match(self):
        r = Rule(Verdict.DROP, proto=Proto.UDP)
        assert r.matches(Packet(flow(proto=Proto.UDP), ConnState.NEW))
        assert not r.matches(Packet(flow(proto=Proto.TCP), ConnState.NEW))

    def test_state_match(self):
        r = Rule(Verdict.NFQUEUE, state=ConnState.NEW)
        assert not r.matches(Packet(flow(), ConnState.ESTABLISHED))

    def test_first_matching_rule_wins(self):
        fw = Firewall(rules=[
            Rule(Verdict.DROP, dport_min=5000, dport_max=5000),
            Rule(Verdict.ACCEPT),
        ])
        assert fw.evaluate(Packet(flow(5000), ConnState.NEW)) is Verdict.DROP
        assert fw.evaluate(Packet(flow(6000), ConnState.NEW)) is Verdict.ACCEPT

    def test_default_policy_when_no_match(self):
        fw = Firewall(rules=[Rule(Verdict.DROP, proto=Proto.UDP)],
                      default_policy=Verdict.ACCEPT)
        assert fw.evaluate(Packet(flow(), ConnState.NEW)) is Verdict.ACCEPT


class TestConntrack:
    def test_lookup_both_directions(self):
        ct = ConntrackTable()
        f = flow()
        ct.commit(f)
        assert ct.lookup(f) is not None
        assert ct.lookup(f.reversed()) is not None

    def test_disabled_table_never_hits(self):
        ct = ConntrackTable(enabled=False)
        ct.commit(flow())
        assert ct.lookup(flow()) is None

    def test_recommit_preserves_live_counters(self):
        # re-committing a tracked flow must not zero its packet/byte
        # counters with a fresh entry
        ct = ConntrackTable()
        f = flow()
        entry = ct.commit(f)
        entry.packets, entry.bytes = 7, 700
        again = ct.commit(f)
        assert again is entry
        assert again.packets == 7 and again.bytes == 700
        assert len(ct) == 1

    def test_reverse_commit_shares_the_entry(self):
        # both directions of a connection are one tracked flow: a commit
        # of the reverse direction must not double occupancy
        ct = ConntrackTable()
        f = flow()
        entry = ct.commit(f)
        entry.packets = 3
        assert ct.commit(f.reversed()) is entry
        assert len(ct) == 1
        # and purge sees exactly one entry for the connection
        assert ct.purge_host("c1") == 1

    def test_recommit_is_an_lru_touch(self):
        ct = ConntrackTable(capacity=2)
        f1, f2 = flow(5000), flow(5001)
        ct.commit(f1)
        ct.commit(f2)
        ct.commit(f1)          # touch: f1 now MRU
        ct.commit(flow(5002))  # evicts f2, not f1
        assert ct.lookup(f1) is not None
        assert ct.lookup(f2) is None

    def test_evict(self):
        ct = ConntrackTable()
        ct.commit(flow())
        ct.evict(flow().reversed())
        assert ct.lookup(flow()) is None

    def test_fastpath_skips_rules(self):
        fw = Firewall(rules=[Rule(Verdict.DROP)])  # drop everything new
        fw.conntrack.commit(flow())
        pkt = Packet(flow(), ConnState.NEW, payload_len=100)
        assert fw.evaluate(pkt) is Verdict.ACCEPT
        assert fw.metrics.report()["conntrack_fastpath_packets"] == 1
        entry = fw.conntrack.lookup(flow())
        assert entry.packets == 1 and entry.bytes == 100

    def test_accept_commits_to_conntrack(self):
        fw = Firewall(rules=[Rule(Verdict.ACCEPT)])
        fw.evaluate(Packet(flow(), ConnState.NEW))
        assert fw.conntrack.lookup(flow()) is not None

    def test_drop_not_committed(self):
        fw = Firewall(rules=[Rule(Verdict.DROP)])
        fw.evaluate(Packet(flow(), ConnState.NEW))
        assert fw.conntrack.lookup(flow()) is None


class TestConntrackBound:
    def test_capacity_enforced_lru(self):
        from repro.sim.metrics import MetricSet
        m = MetricSet()
        ct = ConntrackTable(capacity=3, metrics=m)
        flows = [flow(src_port=50000 + i) for i in range(5)]
        for f in flows:
            ct.commit(f)
        assert len(ct) == 3
        # oldest two fell off; newest three survive
        assert ct.lookup(flows[0]) is None
        assert ct.lookup(flows[1]) is None
        assert all(ct.lookup(f) is not None for f in flows[2:])
        assert m.counter("conntrack_evictions_total", reason="lru").value == 2

    def test_lookup_refreshes_lru_order(self):
        ct = ConntrackTable(capacity=2)
        a, b, c = (flow(src_port=50000 + i) for i in range(3))
        ct.commit(a)
        ct.commit(b)
        ct.lookup(a)  # a is now most-recently-used
        ct.commit(c)  # evicts b, not a
        assert ct.lookup(a) is not None
        assert ct.lookup(b) is None

    def test_set_capacity_trims_and_counts(self):
        from repro.sim.metrics import MetricSet
        m = MetricSet()
        ct = ConntrackTable(metrics=m)
        for i in range(6):
            ct.commit(flow(src_port=50000 + i))
        evicted = ct.set_capacity(2, reason="pressure")
        assert evicted == 4 and len(ct) == 2
        assert m.counter("conntrack_evictions_total",
                         reason="pressure").value == 4
        assert m.gauge("conntrack_table_size").value == 2

    def test_eviction_reasons_labeled(self):
        from repro.sim.metrics import MetricSet
        m = MetricSet()
        ct = ConntrackTable(metrics=m)
        ct.commit(flow())
        ct.evict(flow(), reason="close")
        ct.commit(flow(src_port=50001))
        ct.evict(flow(src_port=50001), reason="refused")
        ct.evict(flow(src_port=50001), reason="refused")  # no-op: gone
        assert m.counter("conntrack_evictions_total",
                         reason="close").value == 1
        assert m.counter("conntrack_evictions_total",
                         reason="refused").value == 1

    def test_evicted_flow_is_new_again(self):
        """An LRU-evicted flow's next packet misses the fast path and
        re-runs the rules — the degradation is a re-decision, not a drop."""
        fw = Firewall(rules=[Rule(Verdict.ACCEPT)])
        fw.conntrack.capacity = 1
        fw.evaluate(Packet(flow(src_port=50000), ConnState.NEW))
        fw.evaluate(Packet(flow(src_port=50001), ConnState.NEW))  # evicts #1
        assert fw.conntrack.lookup(flow(src_port=50000)) is None
        assert fw.evaluate(
            Packet(flow(src_port=50000), ConnState.NEW)) is Verdict.ACCEPT
        assert fw.conntrack.lookup(flow(src_port=50000)) is not None


class TestNfqueue:
    def test_handler_verdict_respected(self):
        fw = Firewall(rules=[Rule(Verdict.NFQUEUE)])
        fw.bind_nfqueue(lambda pkt: Verdict.DROP)
        assert fw.evaluate(Packet(flow(), ConnState.NEW)) is Verdict.DROP
        fw.bind_nfqueue(lambda pkt: Verdict.ACCEPT)
        assert fw.evaluate(Packet(flow(src_port=50001), ConnState.NEW)) is Verdict.ACCEPT

    def test_accepting_handler_commits_conntrack(self):
        fw = Firewall(rules=[Rule(Verdict.NFQUEUE)])
        calls = []
        fw.bind_nfqueue(lambda pkt: (calls.append(pkt), Verdict.ACCEPT)[1])
        fw.evaluate(Packet(flow(), ConnState.NEW))
        fw.evaluate(Packet(flow(), ConnState.NEW))  # same flow again
        assert len(calls) == 1  # second packet rode conntrack

    def test_queue_without_daemon_fails_closed(self):
        fw = Firewall(rules=[Rule(Verdict.NFQUEUE)])
        assert fw.evaluate(Packet(flow(), ConnState.NEW)) is Verdict.DROP

    def test_unbind_returns_handler_and_fails_closed(self):
        """unbind_nfqueue hands back the bound callable (so a restart can
        rebind a wrapped handler) and leaves the queue failing closed."""
        fw = Firewall(rules=[Rule(Verdict.NFQUEUE)])
        handler = lambda pkt: Verdict.ACCEPT  # noqa: E731
        fw.bind_nfqueue(handler)
        assert fw.unbind_nfqueue() is handler
        assert fw.unbind_nfqueue() is None
        assert fw.evaluate(Packet(flow(), ConnState.NEW)) is Verdict.DROP


class TestUbfRuleset:
    def test_user_ports_queued(self):
        fw = Firewall(rules=ubf_ruleset())
        fw.bind_nfqueue(lambda pkt: Verdict.ACCEPT)
        fw.evaluate(Packet(flow(8888), ConnState.NEW))
        assert fw.metrics.report()["nfqueue_decisions"] == 1

    def test_privileged_ports_not_queued(self):
        fw = Firewall(rules=ubf_ruleset())
        fw.bind_nfqueue(lambda pkt: Verdict.DROP)  # would drop if queued
        assert fw.evaluate(Packet(flow(22), ConnState.NEW)) is Verdict.ACCEPT
