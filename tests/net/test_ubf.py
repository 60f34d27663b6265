"""Unit + integration tests: the User-Based Firewall decision rule,
conntrack amortisation, cache, and cross-user denial semantics."""

from contextlib import nullcontext

import pytest

from repro.faults.injector import FaultKind
from repro.kernel.errors import (
    ConnectionRefused,
    NoSuchEntity,
    NotConnected,
    TimedOut,
)
from repro.net import Proto, Verdict, firewall_cost_us
from repro.net.stack import EPHEMERAL_START

from tests.net.conftest import build_fabric, proc_on, recorded, traced


def serve(nodes, userdb, host, user, port, proto=Proto.TCP):
    p = proc_on(nodes, host, userdb, user, argv=("server",))
    net = nodes[host].net
    if proto is Proto.TCP:
        return net.listen(net.bind(p, port)), p
    return net.bind(p, port, proto), p


class TestDecisionRule:
    def test_same_user_allowed(self, ubf_fabric, userdb):
        _, nodes, _ = ubf_fabric
        listener, _ = serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        conn.send(b"mine")
        assert nodes["c2"].net.accept(listener).recv() == b"mine"

    def test_cross_user_dropped(self, ubf_fabric, userdb):
        _, nodes, _ = ubf_fabric
        serve(nodes, userdb, "c2", "alice", 5000)
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "bob"),
                                    "c2", 5000)

    def test_group_member_allowed_when_listener_sg(self, ubf_fabric, userdb):
        """carol listens with egid=fusion (via sg); dave (member) connects."""
        _, nodes, _ = ubf_fabric
        fusion = userdb.group("fusion").gid
        carol = proc_on(nodes, "c2", userdb, "carol")
        carol.creds = carol.creds.with_egid(fusion)
        listener = nodes["c2"].net.listen(nodes["c2"].net.bind(carol, 5000))
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "dave"),
                                       "c2", 5000)
        conn.send(b"group data")
        assert nodes["c2"].net.accept(listener).recv() == b"group data"

    def test_group_rule_is_opt_in(self, ubf_fabric, userdb):
        """Without sg, carol's listener has her private egid: dave denied —
        sharing via the network is opt-in exactly like the paper says."""
        _, nodes, _ = ubf_fabric
        serve(nodes, userdb, "c2", "carol", 5000)
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "dave"),
                                    "c2", 5000)

    def test_non_member_denied_despite_sg(self, ubf_fabric, userdb):
        _, nodes, _ = ubf_fabric
        fusion = userdb.group("fusion").gid
        carol = proc_on(nodes, "c2", userdb, "carol")
        carol.creds = carol.creds.with_egid(fusion)
        nodes["c2"].net.listen(nodes["c2"].net.bind(carol, 5000))
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                    "c2", 5000)

    def test_root_services_reachable(self, ubf_fabric, userdb):
        """A root-owned service on a user port accepts any user (e.g. a
        system daemon); the rule only bites for user-owned listeners."""
        _, nodes, _ = ubf_fabric
        listener, _ = serve(nodes, userdb, "c2", "root", 8080)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "bob"),
                                       "c2", 8080)
        assert conn.open

    def test_udp_cross_user_dropped(self, ubf_fabric, userdb):
        _, nodes, _ = ubf_fabric
        serve(nodes, userdb, "c2", "alice", 6000, Proto.UDP)
        with pytest.raises(TimedOut):
            nodes["c1"].net.sendto(proc_on(nodes, "c1", userdb, "bob"),
                                   "c2", 6000, b"x")

    def test_udp_same_user_allowed(self, ubf_fabric, userdb):
        _, nodes, _ = ubf_fabric
        inbox, _ = serve(nodes, userdb, "c2", "alice", 6000, Proto.UDP)
        nodes["c1"].net.sendto(proc_on(nodes, "c1", userdb, "alice"),
                               "c2", 6000, b"dg")
        assert nodes["c2"].net.recvfrom(inbox).data == b"dg"

    def test_open_fabric_has_no_protection(self, open_fabric, userdb):
        """Baseline: cross-user connections succeed without the UBF."""
        _, nodes, _ = open_fabric
        listener, _ = serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "bob"),
                                       "c2", 5000)
        assert conn.open


class TestDenialObservability:
    def test_denial_logged(self, ubf_fabric, userdb):
        _, nodes, daemons = ubf_fabric
        seen = recorded(daemons["c2"])
        serve(nodes, userdb, "c2", "alice", 5000)
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "bob"),
                                    "c2", 5000)
        denials = [reason for verdict, reason in seen
                   if verdict is Verdict.DROP]
        assert denials == ["cross-user connection denied"]

    def test_denied_flow_not_in_conntrack(self, ubf_fabric, userdb):
        _, nodes, _ = ubf_fabric
        serve(nodes, userdb, "c2", "alice", 5000)
        before = len(nodes["c2"].net.firewall.conntrack)
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "bob"),
                                    "c2", 5000)
        assert len(nodes["c2"].net.firewall.conntrack) == before


class TestConntrackAmortisation:
    def test_established_flow_skips_daemon(self, ubf_fabric, userdb):
        fabric, nodes, daemons = ubf_fabric
        seen = recorded(daemons["c2"])
        listener, _ = serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        decisions_after_setup = len(seen)
        assert decisions_after_setup == 1
        for _ in range(100):
            conn.send(b"payload")
        assert len(seen) == decisions_after_setup
        assert fabric.metrics.report()["conntrack_fastpath_packets"] >= 100

    def test_cost_concentrated_in_setup(self, userdb):
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        listener, _ = serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        setup_cost = firewall_cost_us(fabric.metrics)
        for _ in range(1000):
            conn.send(b"x")
        total_cost = firewall_cost_us(fabric.metrics)
        per_packet = (total_cost - setup_cost) / 1000
        assert per_packet < 1.0  # fast path is sub-microsecond
        assert setup_cost > 100  # setup paid the ident RTT

    def test_conntrack_disabled_reaches_daemon_repeatedly(self, userdb):
        """Ablation: with conntrack off, TCP *setup* of each new connection
        pays the full decision every time (no flow memory at all)."""
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                              conntrack=False, cache=False)
        listener, _ = serve(nodes, userdb, "c2", "alice", 5000)
        for _ in range(5):
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                    "c2", 5000)
        assert fabric.metrics.report()["ident_round_trips"] == 5


class TestDecisionCache:
    def test_cache_skips_ident(self, userdb):
        """A cache hit must answer without the ident RTT — the whole point
        of the cache (regression: the RTT used to be paid before the cache
        was even consulted)."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                        cache=True)
        serve(nodes, userdb, "c2", "alice", 5000)
        client = proc_on(nodes, "c1", userdb, "alice")
        for _ in range(4):
            nodes["c1"].net.connect(client, "c2", 5000)
        rep = fabric.metrics.report()
        assert rep["ident_round_trips"] == 1  # only the first (the miss)
        assert rep["ubf_cache_hits"] == 3
        assert rep["ubf_full_decisions"] == 1

    def test_cache_hit_adds_no_round_trip(self, userdb):
        """The RTT counter is frozen across a hit, not merely slower-growing."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                        cache=True)
        serve(nodes, userdb, "c2", "alice", 5000)
        client = proc_on(nodes, "c1", userdb, "alice")
        nodes["c1"].net.connect(client, "c2", 5000)  # miss: pays the RTT
        rtts_after_miss = fabric.metrics.report()["ident_round_trips"]
        nodes["c1"].net.connect(client, "c2", 5000)  # hit
        rep = fabric.metrics.report()
        assert rep["ident_round_trips"] == rtts_after_miss
        assert rep["ubf_cache_hits"] == 1

    def test_cached_denial_still_denies(self, userdb):
        """Hits serve DROPs too: bob is denied on the miss and on the hit,
        and the hit pays no RTT."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                        cache=True)
        serve(nodes, userdb, "c2", "alice", 5000)
        bob = proc_on(nodes, "c1", userdb, "bob")
        for _ in range(2):
            with pytest.raises(TimedOut):
                nodes["c1"].net.connect(bob, "c2", 5000)
        rep = fabric.metrics.report()
        assert rep["ident_round_trips"] == 1
        assert rep["ubf_cache_hits"] == 1
        assert rep["ubf_denials"] == 2

    def test_cache_does_not_leak_across_users(self, userdb):
        """alice's cached ACCEPT must not answer for bob from the same
        host: the key includes the initiator's identity."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                        cache=True)
        serve(nodes, userdb, "c2", "alice", 5000)
        nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                "c2", 5000)
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "bob"),
                                    "c2", 5000)
        # bob's decision was a fresh full one, not alice's cached entry
        assert fabric.metrics.report()["ubf_full_decisions"] == 2

    def test_cache_disabled_full_decision_each_time(self, userdb):
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                        cache=False)
        serve(nodes, userdb, "c2", "alice", 5000)
        client = proc_on(nodes, "c1", userdb, "alice")
        for _ in range(4):
            nodes["c1"].net.connect(client, "c2", 5000)
        assert fabric.metrics.report()["ubf_full_decisions"] == 4

    def test_sg_changes_cache_key(self, userdb):
        """After the listener switches egid, cached cross-user denials do not
        mask the now-legitimate group decision."""
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                              cache=True)
        fusion = userdb.group("fusion").gid
        carol = proc_on(nodes, "c2", userdb, "carol")
        nodes["c2"].net.listen(nodes["c2"].net.bind(carol, 5000))
        dave = proc_on(nodes, "c1", userdb, "dave")
        with pytest.raises(TimedOut):
            nodes["c1"].net.connect(dave, "c2", 5000)
        carol.creds = carol.creds.with_egid(fusion)  # sg fusion
        conn = nodes["c1"].net.connect(dave, "c2", 5000)
        assert conn.open


class TestConntrackHygiene:
    def test_udp_refusal_leaves_no_stale_entry(self, userdb):
        """Regression: an accepted-but-refused datagram (no receiver) used
        to leave its conntrack entry behind.  Whoever bound that port later
        was then reachable via the fast path with **no UBF decision** —
        here bob binds after alice's refusal, and alice must still be
        denied by the UBF, not silently delivered."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        alice = proc_on(nodes, "c1", userdb, "alice")
        src = nodes["c1"].net.bind_ephemeral(alice, Proto.UDP)
        with pytest.raises(ConnectionRefused):
            nodes["c1"].net.sendto(alice, "c2", 7000, b"x", src_sock=src)
        assert len(nodes["c2"].net.firewall.conntrack) == 0
        # bob now binds the port alice probed
        inbox, _ = serve(nodes, userdb, "c2", "bob", 7000, Proto.UDP)
        with pytest.raises(TimedOut):  # fresh UBF decision: cross-user DROP
            nodes["c1"].net.sendto(alice, "c2", 7000, b"x", src_sock=src)
        assert not inbox.datagrams

    def test_tcp_refusal_leaves_no_stale_entry(self, userdb):
        """The TCP twin: a refused connect must evict its conntrack entry."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        alice = proc_on(nodes, "c1", userdb, "alice")
        with pytest.raises(ConnectionRefused):
            nodes["c1"].net.connect(alice, "c2", 7000)
        assert len(nodes["c2"].net.firewall.conntrack) == 0

    def test_close_evicts_both_hosts(self, userdb):
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        listener, _ = serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        assert len(nodes["c2"].net.firewall.conntrack) == 1
        conn.close()
        assert len(nodes["c1"].net.firewall.conntrack) == 0
        assert len(nodes["c2"].net.firewall.conntrack) == 0

    def test_udp_sender_close_then_rebind_is_decided_afresh(self, userdb):
        """alice sends from c1:6000 to her own receiver on c2:5000, so both
        hosts track the flow.  She closes c1:6000 and bob binds it: her
        c2:5000 socket's datagram to c1:6000 is NEW again, and the UBF
        drops it as cross-user instead of delivering it to bob."""
        _, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        alice_c1 = proc_on(nodes, "c1", userdb, "alice")
        inbox, alice_c2 = serve(nodes, userdb, "c2", "alice", 5000, Proto.UDP)
        src = nodes["c1"].net.bind(alice_c1, 6000, Proto.UDP)
        nodes["c1"].net.sendto(alice_c1, "c2", 5000, b"x", src_sock=src)
        assert len(nodes["c1"].net.firewall.conntrack) == 1
        nodes["c1"].net.close(src)
        assert len(nodes["c1"].net.firewall.conntrack) == 0
        assert len(nodes["c2"].net.firewall.conntrack) == 0
        bob_sock, _ = serve(nodes, userdb, "c1", "bob", 6000, Proto.UDP)
        with pytest.raises(NotConnected):  # nor can the old socket re-track
            nodes["c1"].net.sendto(alice_c1, "c2", 5000, b"z", src_sock=src)
        with pytest.raises(TimedOut):
            nodes["c2"].net.sendto(alice_c2, "c1", 6000, b"y", src_sock=inbox)
        assert not bob_sock.datagrams

    def test_udp_receiver_close_then_rebind_is_decided_afresh(self, userdb):
        """The receiver's twin: alice closes her c2:5000 receiver and bob
        binds it; her next datagram from the same c1 port must not ride
        the old entry into bob's inbox."""
        _, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        alice_c1 = proc_on(nodes, "c1", userdb, "alice")
        inbox, _ = serve(nodes, userdb, "c2", "alice", 5000, Proto.UDP)
        src = nodes["c1"].net.bind(alice_c1, 6000, Proto.UDP)
        nodes["c1"].net.sendto(alice_c1, "c2", 5000, b"x", src_sock=src)
        nodes["c2"].net.close(inbox)
        assert len(nodes["c1"].net.firewall.conntrack) == 0
        assert len(nodes["c2"].net.firewall.conntrack) == 0
        bob_sock, _ = serve(nodes, userdb, "c2", "bob", 5000, Proto.UDP)
        with pytest.raises(TimedOut):
            nodes["c1"].net.sendto(alice_c1, "c2", 5000, b"y", src_sock=src)
        assert not bob_sock.datagrams

    def test_implicit_socket_sends_never_run_out_of_ports(self, userdb):
        """A send without a socket leaves from an implicit ephemeral one
        that nobody holds, released when the send ends: more sends than
        the 16,384-port ephemeral range all succeed, and neither host
        keeps a flow."""
        _, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        inbox, _ = serve(nodes, userdb, "c2", "alice", 5000, Proto.UDP)
        alice = proc_on(nodes, "c1", userdb, "alice")
        for _ in range(16_400):
            nodes["c1"].net.sendto(alice, "c2", 5000, b"x")
        assert len(inbox.datagrams) == 16_400
        assert len(nodes["c1"].net.firewall.conntrack) == 0
        assert len(nodes["c2"].net.firewall.conntrack) == 0

    @pytest.mark.parametrize("dst, port, unreachable, raised", [
        ("c2", 5000, False, None),
        ("c2", 5001, False, TimedOut),           # bob's port: UBF drop
        ("c2", 5002, False, ConnectionRefused),  # nobody bound
        ("c2", 5000, True, TimedOut),            # lost in transit
        ("c9", 5000, False, NoSuchEntity),
    ], ids=["delivered", "dropped", "refused", "lost", "unknown-host"])
    def test_implicit_socket_released_on_every_exit(self, userdb, dst, port,
                                                    unreachable, raised):
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        serve(nodes, userdb, "c2", "alice", 5000, Proto.UDP)
        serve(nodes, userdb, "c2", "bob", 5001, Proto.UDP)
        alice = proc_on(nodes, "c1", userdb, "alice")
        if unreachable:
            fabric.faults.inject(FaultKind.HOST_UNREACHABLE, "c2")
        with pytest.raises(raised) if raised else nullcontext():
            nodes["c1"].net.sendto(alice, dst, port, b"x")
        assert nodes["c1"].net.lookup(Proto.UDP, EPHEMERAL_START) is None
        assert len(nodes["c1"].net.firewall.conntrack) == 0
        assert len(nodes["c2"].net.firewall.conntrack) == 0

class TestReplies:
    """The initiating host commits its own connection to conntrack once
    the destination accepts it (as Linux conntrack tracks an outgoing SYN
    or datagram), so replies arrive ESTABLISHED and never reach that
    host's nfqueue."""

    @pytest.mark.parametrize("proto", [Proto.TCP, Proto.UDP],
                             ids=["tcp", "udp"])
    def test_group_connection_reply_delivered(self, userdb, proto):
        """carol listens after ``sg fusion``; dave connects and carol
        answers.  dave's socket carries his private egid, so a reply
        decided as a NEW connection would be a cross-user DROP."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        carol = proc_on(nodes, "c2", userdb, "carol", argv=("server",))
        carol.creds = carol.creds.with_egid(userdb.group("fusion").gid)
        dave = proc_on(nodes, "c1", userdb, "dave")
        srv, cli = nodes["c2"].net, nodes["c1"].net
        if proto is Proto.TCP:
            listener = srv.listen(srv.bind(carol, 5000))
            conn = cli.connect(dave, "c2", 5000)
            conn.send(b"question")
            server = srv.accept(listener)
            assert server.recv() == b"question"
            server.send(b"answer")
            assert conn.recv() == b"answer"
        else:
            inbox = srv.bind(carol, 5000, Proto.UDP)
            src = cli.bind_ephemeral(dave, Proto.UDP)
            cli.sendto(dave, "c2", 5000, b"question", src_sock=src)
            dgram = srv.recvfrom(inbox)
            assert dgram.data == b"question"
            srv.sendto(carol, "c1", dgram.src_port, b"answer",
                       src_sock=inbox)
            assert cli.recvfrom(src).data == b"answer"
        assert fabric.metrics.report()["nfqueue_decisions"] == 1

    def test_connection_and_reply_make_one_decision(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True)
        seen = recorded(daemons["c1"])
        listener, _ = serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        nodes["c2"].net.accept(listener).send(b"reply")
        assert conn.recv() == b"reply"
        assert fabric.metrics.report()["nfqueue_decisions"] == 1
        assert seen == []  # the initiator's daemon never saw the reply

    def test_failed_attempts_leave_the_initiator_untracked(self, userdb):
        _, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        serve(nodes, userdb, "c2", "alice", 5000)
        bob = proc_on(nodes, "c1", userdb, "bob")
        with pytest.raises(TimedOut):  # cross-user DROP
            nodes["c1"].net.connect(bob, "c2", 5000)
        with pytest.raises(ConnectionRefused):  # no listener
            nodes["c1"].net.connect(bob, "c2", 7000)
        with pytest.raises(ConnectionRefused):  # no receiver
            nodes["c1"].net.sendto(bob, "c2", 7000, b"x")
        assert len(nodes["c1"].net.firewall.conntrack) == 0

    def test_conntrack_disabled_replies_reach_the_daemon(self, userdb):
        """Ablation: with conntrack off the reply is NEW again, so it
        takes a decision on the initiating host (same user: accepted)."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                        conntrack=False)
        listener, _ = serve(nodes, userdb, "c2", "alice", 5000)
        conn = nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                       "c2", 5000)
        nodes["c2"].net.accept(listener).send(b"reply")
        assert conn.recv() == b"reply"
        assert fabric.metrics.report()["nfqueue_decisions"] == 2

    def test_initiator_eviction_drops_group_replies_until_reconnect(
            self, userdb):
        """Pressure on the initiating host evicts its entry.  A same-user
        reply is then re-decided and accepted (one extra decision), but a
        reply on a connection the egid-group rule accepted is decided as
        a NEW connection to dave's private-egid port and dropped, until
        dave connects again."""
        fabric, nodes, _ = build_fabric(userdb, ["c1", "c2"], ubf=True)
        srv, cli = nodes["c2"].net, nodes["c1"].net
        carol = proc_on(nodes, "c2", userdb, "carol", argv=("server",))
        carol.creds = carol.creds.with_egid(userdb.group("fusion").gid)
        dave = proc_on(nodes, "c1", userdb, "dave")
        group_listener = srv.listen(srv.bind(carol, 5000))
        self_listener, _ = serve(nodes, userdb, "c2", "dave", 5001)
        group_conn = cli.connect(dave, "c2", 5000)
        self_conn = cli.connect(dave, "c2", 5001)
        group_server = srv.accept(group_listener)
        self_server = srv.accept(self_listener)
        assert cli.firewall.conntrack.set_capacity(0) == 2
        cli.firewall.conntrack.set_capacity(None)

        decided = fabric.metrics.report()["nfqueue_decisions"]
        self_server.send(b"still mine")
        assert self_conn.recv() == b"still mine"
        assert fabric.metrics.report()["nfqueue_decisions"] == decided + 1
        with pytest.raises(TimedOut):
            group_server.send(b"answer")
        with pytest.raises(TimedOut):  # every later reply is NEW again
            group_server.send(b"answer")
        group_conn.send(b"the server still hears dave")
        assert group_server.recv() == b"the server still hears dave"

        group_conn.close()
        fresh = cli.connect(dave, "c2", 5000)
        srv.accept(group_listener).send(b"answer")
        assert fresh.recv() == b"answer"


class TestDecisionTracing:
    def test_span_finishes_when_decide_raises(self, userdb, monkeypatch):
        """Regression: a raising _decide used to leak the span open (the
        reason tag was read after the call, so finish was never reached)."""
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"],
                                              ubf=True)
        daemon = daemons["c2"]
        tracer = traced(daemon)
        monkeypatch.setattr(daemon, "_decide",
                            lambda pkt: (_ for _ in ()).throw(
                                RuntimeError("boom")))
        serve(nodes, userdb, "c2", "alice", 5000)
        with pytest.raises(RuntimeError):
            nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                    "c2", 5000)
        spans = [s for s in tracer.spans if s.name == "ubf.decide"]
        assert spans and all(s.finished for s in spans)
        assert spans[-1].tags["status"] == "error"
        assert spans[-1].tags["error"] == "RuntimeError"

    def test_span_tags_verdict_and_reason(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"],
                                              ubf=True)
        tracer = traced(daemons["c2"])
        serve(nodes, userdb, "c2", "alice", 5000)
        nodes["c1"].net.connect(proc_on(nodes, "c1", userdb, "alice"),
                                "c2", 5000)
        span = [s for s in tracer.finished_spans()
                if s.name == "ubf.decide"][-1]
        assert span.tags["verdict"] == "accept"
        assert span.tags["reason"] == "same user"


class TestPortCollision:
    def test_two_users_same_port_no_crosstalk(self, ubf_fabric, userdb):
        """Section V: 'Even if two users accidentally choose the same port
        number for a network service, they cannot crosstalk and corrupt each
        others data.'  alice and bob both run port-5000 services on
        different nodes; each user's client lands only on their own server."""
        _, nodes, _ = ubf_fabric
        a_listener, _ = serve(nodes, userdb, "c1", "alice", 5000)
        b_listener, _ = serve(nodes, userdb, "c2", "bob", 5000)
        # alice's client hits bob's node by mistake: dropped
        with pytest.raises(TimedOut):
            nodes["c3"].net.connect(proc_on(nodes, "c3", userdb, "alice"),
                                    "c2", 5000)
        # and her own service still works
        conn = nodes["c3"].net.connect(proc_on(nodes, "c3", userdb, "alice"),
                                       "c1", 5000)
        conn.send(b"alice-data")
        assert nodes["c1"].net.accept(a_listener).recv() == b"alice-data"
