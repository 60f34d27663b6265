"""UBF batch decisions: ident coalescing and the decision cache (E24).

``decide_batch`` parks all packets from the same initiating process on one
upstream ident exchange.  These tests pin the coalescing contract — one
query per initiator, every waiter receives the verdict derived from its
answer (or the degradation policy when the fault injector eats it), and
degraded verdicts still never reach the cache — plus the group rule's
reading of the ident snapshot across a membership change.
"""

from __future__ import annotations

from repro.faults import FaultKind
from repro.net import ConnState, FiveTuple, Packet, Proto, Verdict

from tests.net.conftest import build_fabric, proc_on


def listen_on(nodes, userdb, host, user, port):
    proc = proc_on(nodes, host, userdb, user, argv=("server",))
    net = nodes[host].net
    net.listen(net.bind(proc, port))
    return proc


def initiator_on(nodes, userdb, host, user, src_port):
    """A process holding *src_port* on *host*, so the remote identd can
    answer queries about it."""
    proc = proc_on(nodes, host, userdb, user, argv=("client",))
    nodes[host].net.bind(proc, src_port)
    return proc


def pkt(src_port, dst_port, *, src_uid=None, src="c1", dst="c2"):
    return Packet(FiveTuple(Proto.TCP, src, src_port, dst, dst_port),
                  ConnState.NEW, src_uid=src_uid)


class TestCoalescing:
    def test_one_query_serves_all_waiters(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True)
        listen_on(nodes, userdb, "c2", "alice", 5000)
        listen_on(nodes, userdb, "c2", "alice", 5001)
        listen_on(nodes, userdb, "c2", "alice", 5002)
        initiator_on(nodes, userdb, "c1", "alice", 40000)
        batch = [pkt(40000, p) for p in (5000, 5001, 5002)]
        verdicts = daemons["c2"].decide_batch(batch)
        assert verdicts == [Verdict.ACCEPT] * 3  # same user throughout
        rep = fabric.metrics.report()
        assert rep["ident_round_trips"] == 1
        assert rep["ident_coalesced"] == 2
        assert rep["ubf_full_decisions"] == 3  # every waiter concluded

    def test_distinct_initiators_query_separately(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True)
        listen_on(nodes, userdb, "c2", "alice", 5000)
        initiator_on(nodes, userdb, "c1", "alice", 40000)
        initiator_on(nodes, userdb, "c1", "bob", 40001)
        verdicts = daemons["c2"].decide_batch(
            [pkt(40000, 5000), pkt(40001, 5000)])
        assert verdicts == [Verdict.ACCEPT, Verdict.DROP]
        rep = fabric.metrics.report()
        assert rep["ident_round_trips"] == 2
        assert rep["ident_coalesced"] == 0

    def test_second_batch_hits_cache_with_no_queries(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True)
        listen_on(nodes, userdb, "c2", "alice", 5000)
        alice = initiator_on(nodes, userdb, "c1", "alice", 40000)
        stamped = [pkt(40000, 5000, src_uid=alice.creds.uid)] * 2
        daemons["c2"].decide_batch(stamped)
        assert fabric.metrics.report()["ident_round_trips"] == 1
        verdicts = daemons["c2"].decide_batch(stamped)
        assert verdicts == [Verdict.ACCEPT] * 2
        rep = fabric.metrics.report()
        assert rep["ident_round_trips"] == 1  # unchanged
        assert rep["ubf_cache_hits"] == 2


class TestCoalescingUnderFaults:
    def test_identd_down_all_waiters_share_degraded_verdict(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True)
        listen_on(nodes, userdb, "c2", "alice", 5000)
        listen_on(nodes, userdb, "c2", "alice", 5001)
        initiator_on(nodes, userdb, "c1", "alice", 40000)
        fault = fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        verdicts = daemons["c2"].decide_batch(
            [pkt(40000, 5000), pkt(40000, 5001)])
        assert verdicts == [Verdict.DROP] * 2  # fail-closed, identically
        assert fabric.metrics.counter("ubf_degraded_verdicts",
                                      policy="fail-closed").value == 2
        assert fabric.metrics.report()["ident_coalesced"] == 1
        fabric.faults.clear(fault)

    def test_slow_identd_burns_one_retry_budget_not_one_per_waiter(
            self, userdb):
        """The coalesced group performs ONE upstream query cycle: with a
        retry budget of 1+2 attempts, an IDENTD_SLOW fault eating 3
        attempts degrades the whole group — and the counters must show a
        single query's worth of timeouts, not one cycle per waiter."""
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True)
        listen_on(nodes, userdb, "c2", "alice", 5000)
        listen_on(nodes, userdb, "c2", "alice", 5001)
        listen_on(nodes, userdb, "c2", "alice", 5002)
        initiator_on(nodes, userdb, "c1", "alice", 40000)
        fabric.faults.inject(FaultKind.IDENTD_SLOW, "c1", fail_attempts=3)
        verdicts = daemons["c2"].decide_batch(
            [pkt(40000, p) for p in (5000, 5001, 5002)])
        assert verdicts == [Verdict.DROP] * 3
        rep = fabric.metrics.report()
        assert rep["ubf_ident_timeouts"] == 3   # one query's attempts
        assert rep["ubf_ident_retries"] == 2
        assert fabric.metrics.counter("ubf_degraded_verdicts",
                                      policy="fail-closed").value == 3

    def test_degraded_batch_verdicts_are_never_cached(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True)
        listen_on(nodes, userdb, "c2", "alice", 5000)
        alice = initiator_on(nodes, userdb, "c1", "alice", 40000)
        fault = fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        daemons["c2"].decide_batch(
            [pkt(40000, 5000, src_uid=alice.creds.uid)] * 2)
        assert len(daemons["c2"]._cache) == 0
        fabric.faults.clear(fault)
        verdicts = daemons["c2"].decide_batch(
            [pkt(40000, 5000, src_uid=alice.creds.uid)])
        assert verdicts == [Verdict.ACCEPT]  # fresh authoritative decision

    def test_slow_identd_recovers_within_one_batch_retry_budget(self, userdb):
        """A fault eating fewer attempts than the retry budget is absorbed:
        the group's single query retries past it and every waiter gets the
        authoritative verdict."""
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True)
        listen_on(nodes, userdb, "c2", "alice", 5000)
        listen_on(nodes, userdb, "c2", "alice", 5001)
        initiator_on(nodes, userdb, "c1", "alice", 40000)
        fabric.faults.inject(FaultKind.IDENTD_SLOW, "c1", fail_attempts=2)
        verdicts = daemons["c2"].decide_batch(
            [pkt(40000, 5000), pkt(40000, 5001)])
        assert verdicts == [Verdict.ACCEPT] * 2
        assert fabric.metrics.report()["ident_round_trips"] == 1


class TestBatchMatchesNaive:
    def test_fault_free_verdicts_identical_to_sequential_reference(
            self, userdb):
        """Differential check across every rule outcome: same-user accept,
        project-group accept, cross-user deny, root service, no listener,
        unidentifiable initiator."""
        def scenario(naive):
            fabric, nodes, daemons = build_fabric(
                userdb, ["c1", "c2"], ubf=True)
            daemon = daemons["c2"]
            daemon.naive = naive
            listen_on(nodes, userdb, "c2", "alice", 5000)
            carol = proc_on(nodes, "c2", userdb, "carol", argv=("server",))
            carol.creds = carol.creds.with_egid(userdb.group("fusion").gid)
            nodes["c2"].net.listen(nodes["c2"].net.bind(carol, 5001))
            listen_on(nodes, userdb, "c2", "root", 5002)
            initiator_on(nodes, userdb, "c1", "alice", 40000)
            initiator_on(nodes, userdb, "c1", "bob", 40001)
            initiator_on(nodes, userdb, "c1", "dave", 40002)
            batch = [
                pkt(40000, 5000),   # same user -> ACCEPT
                pkt(40001, 5000),   # stranger -> DROP
                pkt(40002, 5001),   # dave in carol's fusion egid -> ACCEPT
                pkt(40001, 5002),   # root-owned service -> ACCEPT
                pkt(40001, 6000),   # nothing listening -> ACCEPT (stack)
                pkt(49999, 5000),   # nobody owns the port -> DROP
            ]
            return daemon.decide_batch(batch)
        assert scenario(naive=False) == scenario(naive=True)


class TestAllowSets:
    def test_membership_change_invalidates_via_generation(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True,
                                              cache=False)
        daemon = daemons["c2"]
        fusion = userdb.group("fusion")
        carol_srv = proc_on(nodes, "c2", userdb, "carol", argv=("server",))
        carol_srv.creds = carol_srv.creds.with_egid(fusion.gid)
        nodes["c2"].net.listen(nodes["c2"].net.bind(carol_srv, 5001))
        initiator_on(nodes, userdb, "c1", "dave", 40002)
        assert daemon.decide_batch([pkt(40002, 5001)]) == [Verdict.ACCEPT]
        userdb.remove_from_project(fusion, userdb.user("dave"),
                                   approver=userdb.user("carol"))
        verdicts = daemon.decide_batch([pkt(40002, 5001)])
        # dave's *process* still carries the fusion gid in its credential
        # snapshot (real ident semantics), and the rule reads the snapshot
        assert verdicts == [Verdict.ACCEPT]

    def test_flush_cache_resets_allow_sets(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True)
        listen_on(nodes, userdb, "c2", "alice", 5000)
        initiator_on(nodes, userdb, "c1", "bob", 40001)
        daemons["c2"].decide_batch([pkt(40001, 5000)])
        assert len(daemons["c2"]._cache) == 1
        daemons["c2"].flush_cache()
        assert len(daemons["c2"]._cache) == 0
