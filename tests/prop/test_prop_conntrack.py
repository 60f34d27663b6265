"""Property-based tests: conntrack table semantics under arbitrary
commit/lookup/evict interleavings, with and without an LRU bound, and
both hosts' tables under random connections on a live UBF fabric."""

from hypothesis import given
from hypothesis import strategies as st

from repro.net import ConntrackTable, FiveTuple, Proto
from repro.sim.metrics import MetricSet


def flow(i: int) -> FiveTuple:
    return FiveTuple(Proto.TCP, "c1", 50000 + i, "c2", 5000)


flow_ids = st.integers(min_value=0, max_value=20)


class TestConntrackProperties:
    @given(ids=st.lists(flow_ids, max_size=40))
    def test_bidirectional_lookup(self, ids):
        ct = ConntrackTable()
        for i in ids:
            ct.commit(flow(i))
        for i in set(ids):
            assert ct.lookup(flow(i)) is not None
            assert ct.lookup(flow(i).reversed()) is not None

    @given(ids=st.lists(flow_ids, max_size=40),
           capacity=st.integers(min_value=1, max_value=8))
    def test_capacity_never_exceeded(self, ids, capacity):
        """Bound invariant, checked against an independent LRU oracle."""
        from collections import OrderedDict

        m = MetricSet()
        ct = ConntrackTable(capacity=capacity, metrics=m)
        oracle: OrderedDict = OrderedDict()
        expected_evictions = 0
        for i in ids:
            ct.commit(flow(i))
            assert len(ct) <= capacity
            oracle[flow(i)] = True
            oracle.move_to_end(flow(i))
            while len(oracle) > capacity:
                oracle.popitem(last=False)
                expected_evictions += 1
        assert ct.flows() == list(oracle)
        assert m.counter("conntrack_evictions_total",
                         reason="lru").value == expected_evictions

    @given(ids=st.lists(flow_ids, max_size=40),
           capacity=st.integers(min_value=1, max_value=8))
    def test_survivors_are_most_recent(self, ids, capacity):
        ct = ConntrackTable(capacity=capacity)
        for i in ids:
            ct.commit(flow(i))
        # dedupe keeping last occurrence: the LRU survivors
        recent = list(dict.fromkeys(reversed(ids)))[:capacity]
        for i in recent:
            assert ct.lookup(flow(i)) is not None

    @given(ids=st.lists(flow_ids, max_size=40),
           evict_ids=st.lists(flow_ids, max_size=40),
           reversed_evict=st.booleans())
    def test_evicted_flows_are_gone_others_stay(self, ids, evict_ids,
                                                reversed_evict):
        ct = ConntrackTable()
        for i in ids:
            ct.commit(flow(i))
        for i in evict_ids:
            ct.evict(flow(i).reversed() if reversed_evict else flow(i),
                     reason="close")
        for i in set(ids):
            if i in evict_ids:
                assert ct.lookup(flow(i)) is None
            else:
                assert ct.lookup(flow(i)) is not None

    @given(ids=st.lists(flow_ids, max_size=40))
    def test_disabled_table_stays_empty(self, ids):
        ct = ConntrackTable(enabled=False)
        for i in ids:
            ct.commit(flow(i))
            assert ct.lookup(flow(i)) is None
        assert len(ct) == 0

    @given(ids=st.lists(flow_ids, max_size=40),
           capacity=st.integers(min_value=0, max_value=8))
    def test_set_capacity_returns_trim_count(self, ids, capacity):
        ct = ConntrackTable()
        for i in ids:
            ct.commit(flow(i))
        before = len(ct)
        evicted = ct.set_capacity(capacity, reason="pressure")
        assert evicted == max(0, before - capacity)
        assert len(ct) == min(before, capacity)


# -- both hosts of a live fabric ---------------------------------------------

#: (client, server, server's sg group, accepted by the UBF?)
PAIRS = {
    "same-user": ("alice", "alice", None, True),
    "sg-group": ("dave", "carol", "fusion", True),
    "non-member": ("alice", "carol", "fusion", False),
    "cross-user": ("bob", "alice", None, False),
}

attempts = st.lists(st.fixed_dictionaries({
    "pair": st.sampled_from(sorted(PAIRS)),
    "proto": st.sampled_from([Proto.TCP, Proto.UDP]),
    "client_host": st.sampled_from(["c1", "c2"]),
    "server_host": st.sampled_from(["c1", "c2"]),
    "listening": st.booleans(),
    "replies": st.integers(1, 3),
    "close": st.sampled_from([None, "client", "server"]),
}), min_size=1, max_size=8)


def _touching(stack, host: str, port: int) -> list:
    """Flows in *stack*'s conntrack with (host, port) at either end."""
    return [f for f in stack.firewall.conntrack.flows()
            if (f.src_host, f.src_port) == (host, port)
            or (f.dst_host, f.dst_port) == (host, port)]


class TestInitiatorTracking:
    """The host that opens a connection tracks it once the destination
    accepts it, so replies ride conntrack on both hosts."""

    @given(attempts=attempts)
    def test_replies_ride_conntrack_and_failures_leave_nothing(self,
                                                               attempts):
        from repro.kernel.errors import KernelError
        from tests.conftest import make_userdb
        from tests.net.conftest import build_fabric, proc_on, recorded

        userdb = make_userdb()
        _, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True)
        seen = {h: recorded(d) for h, d in daemons.items()}
        for port, a in enumerate(attempts, start=5000):
            client, server, sg, allowed = PAIRS[a["pair"]]
            chost, shost = a["client_host"], a["server_host"]
            cnet, snet = nodes[chost].net, nodes[shost].net
            srv = proc_on(nodes, shost, userdb, server, argv=("server",))
            if sg is not None:
                srv.creds = srv.creds.with_egid(userdb.group(sg).gid)
            cli = proc_on(nodes, chost, userdb, client)
            if a["proto"] is Proto.TCP:
                sock = snet.bind(srv, port)
                if a["listening"]:
                    snet.listen(sock)
            else:
                sock = snet.bind(srv, port, Proto.UDP) \
                    if a["listening"] else None
            src = cnet.bind_ephemeral(cli, Proto.UDP) \
                if a["proto"] is Proto.UDP else None
            try:
                if a["proto"] is Proto.TCP:
                    conn = cnet.connect(cli, shost, port)
                else:
                    cnet.sendto(cli, shost, port, b"q", src_sock=src)
            except KernelError:
                assert not (allowed and a["listening"])
                for stack in (cnet, snet):
                    assert _touching(stack, shost, port) == []
                continue
            assert allowed and a["listening"]
            for stack in (cnet, snet):
                assert len(_touching(stack, shost, port)) == 1
            decided = len(seen[chost])
            if a["proto"] is Proto.TCP:
                server_end = snet.accept(sock)
                for i in range(a["replies"]):
                    server_end.send(b"r%d" % i)
                    assert conn.recv() == b"r%d" % i
            else:
                dgram = snet.recvfrom(sock)
                for i in range(a["replies"]):
                    snet.sendto(srv, chost, dgram.src_port, b"r%d" % i,
                                src_sock=sock)
                    assert cnet.recvfrom(src).data == b"r%d" % i
            assert len(seen[chost]) == decided  # no decision on replies
            if a["close"] is not None:
                if a["proto"] is Proto.TCP:
                    (conn if a["close"] == "client" else server_end).close()
                else:  # a datagram flow dies with either end's socket
                    if a["close"] == "client":
                        cnet.close(src)
                    else:
                        snet.close(sock)
                for stack in (cnet, snet):
                    assert _touching(stack, shost, port) == []
