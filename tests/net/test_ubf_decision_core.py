"""The UBF decision core: one fast path, one reference, one cache.

``decide`` (single packets) and ``decide_batch`` (bursts) are the fast
path the nfqueue binds; ``naive=True`` is the sequential reference the
oracle shadows.  Every path concludes through the same rule and cache.
These tests pin (a) verdicts identical to the reference under random
principal mixes, uid stamps, project-group changes the initiators'
credentials predate, and injected identd faults, (b) the batch path's
tracing, firewall wiring and observer reports, and (c) the one LRU
decision cache both paths share, which reads the daemon's
``cache_capacity`` at every insert and keeps nothing an eviction drops.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultKind
from repro.net import ConnState, FiveTuple, Packet, Proto, Verdict

from tests.net.conftest import build_fabric, proc_on, recorded, traced


def listen_on(nodes, userdb, host, user, port):
    proc = proc_on(nodes, host, userdb, user, argv=("server",))
    net = nodes[host].net
    net.listen(net.bind(proc, port))
    return proc


def initiator_on(nodes, userdb, host, user, src_port):
    proc = proc_on(nodes, host, userdb, user, argv=("client",))
    nodes[host].net.bind(proc, src_port)
    return proc


def pkt(src_port, dst_port, *, src_uid=None, src="c1", dst="c2"):
    return Packet(FiveTuple(Proto.TCP, src, src_port, dst, dst_port),
                  ConnState.NEW, src_uid=src_uid)


def build_scenario(userdb, *, fail_open=False):
    """Two hosts, listeners covering every rule outcome, initiators for
    each principal; returns (fabric, nodes, daemon)."""
    fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"], ubf=True)
    daemon = daemons["c2"]
    daemon.fail_open = fail_open
    listen_on(nodes, userdb, "c2", "alice", 5000)
    carol = proc_on(nodes, "c2", userdb, "carol", argv=("server",))
    carol.creds = carol.creds.with_egid(userdb.group("fusion").gid)
    nodes["c2"].net.listen(nodes["c2"].net.bind(carol, 5001))
    listen_on(nodes, userdb, "c2", "root", 5002)
    listen_on(nodes, userdb, "c2", "bob", 5003)
    initiator_on(nodes, userdb, "c1", "alice", 40000)
    initiator_on(nodes, userdb, "c1", "bob", 40001)
    initiator_on(nodes, userdb, "c1", "dave", 40002)
    initiator_on(nodes, userdb, "c1", "root", 40003)
    return fabric, nodes, daemon


SRC_PORTS = (40000, 40001, 40002, 40003, 49999)  # 49999: unbound port
DST_PORTS = (5000, 5001, 5002, 5003, 6000)       # 6000: no listener


def evictions(fabric, reason):
    return fabric.metrics.counter("ubf_cache_evictions_total",
                                  reason=reason).value


def held_keys(daemon) -> set:
    """Every decision-cache key (a tuple of three ints) the daemon keeps
    in any of its containers, one level of nesting deep."""
    def walk(value, depth):
        if isinstance(value, tuple) and len(value) == 3 \
                and all(isinstance(v, int) for v in value):
            yield value
        elif depth and isinstance(value, dict):
            for k, v in value.items():
                yield from walk(k, depth - 1)
                yield from walk(v, depth - 1)
        elif depth and isinstance(value, (set, frozenset, list)):
            for v in value:
                yield from walk(v, depth - 1)
    return {key for value in vars(daemon).values()
            for key in walk(value, 2)}


class TestOneCache:
    """The LRU bound and LRU touch of the cache both paths share."""

    KEYS = [(uid, 1, 1) for uid in range(6)]

    def daemon(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1"], ubf=True)
        return fabric, daemons["c1"]

    def test_lru_eviction(self, userdb):
        fabric, daemon = self.daemon(userdb)
        daemon.cache_capacity = 4
        for key in self.KEYS:
            daemon._cache_put(key, Verdict.ACCEPT, "c1")
        assert len(daemon._cache) == 4
        assert daemon._cache_get(self.KEYS[0]) is None       # oldest evicted
        assert daemon._cache_get(self.KEYS[5]) is Verdict.ACCEPT
        assert evictions(fabric, "lru") == 2

    def test_get_is_an_lru_touch(self, userdb):
        fabric, daemon = self.daemon(userdb)
        daemon.cache_capacity = 2
        k1, k2, k3 = self.KEYS[:3]
        daemon._cache_put(k1, Verdict.ACCEPT, "c1")
        daemon._cache_put(k2, Verdict.ACCEPT, "c1")
        assert daemon._cache_get(k1) is Verdict.ACCEPT  # touch: k1 now MRU
        daemon._cache_put(k3, Verdict.ACCEPT, "c1")     # evicts k2, not k1
        assert daemon._cache_get(k1) is Verdict.ACCEPT
        assert daemon._cache_get(k2) is None

    def test_unbounded_when_capacity_is_none(self, userdb):
        fabric, daemon = self.daemon(userdb)
        daemon.cache_capacity = None
        for uid in range(100):
            daemon._cache_put((uid, 1, 1), Verdict.ACCEPT, "c1")
        assert len(daemon._cache) == 100
        assert evictions(fabric, "lru") == 0

    def _three_listeners(self, userdb, *, naive):
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"],
                                              ubf=True)
        daemon = daemons["c2"]
        daemon.naive = naive
        daemon.cache_capacity = 2
        for port, user in ((5000, "alice"), (5001, "bob"),
                           (5002, "carol")):
            listen_on(nodes, userdb, "c2", user, port)
        initiator_on(nodes, userdb, "c1", "alice", 40000)
        for dst in (5000, 5001, 5002):
            daemon.decide(pkt(40000, dst))
        return fabric, daemon

    def test_lru_churn_leaves_no_key_behind(self, userdb):
        """Six distinct keys decided from one host through a cache of two:
        nothing in the daemon remembers the four evicted ones (the
        dead-host purge reads each entry's host off the cache itself)."""
        fabric, nodes, daemons = build_fabric(userdb, ["c1", "c2"],
                                              ubf=True)
        daemon = daemons["c2"]
        daemon.cache_capacity = 2
        for port, user in ((5000, "alice"), (5001, "bob"),
                           (5002, "carol")):
            listen_on(nodes, userdb, "c2", user, port)
        for src_port, user in ((40000, "alice"), (40002, "dave")):
            initiator_on(nodes, userdb, "c1", user, src_port)
            for dst in (5000, 5001, 5002):
                daemon.decide(pkt(src_port, dst))
        assert evictions(fabric, "lru") == 4
        assert len(held_keys(daemon)) <= daemon.cache_capacity

    def test_naive_path_evicts_lru(self, userdb):
        fabric, daemon = self._three_listeners(userdb, naive=True)
        assert len(daemon._cache) == 2
        assert evictions(fabric, "lru") == 1

    def test_capacity_set_after_construction_bounds_fast_path(self, userdb):
        """The bound is read where it is used, so a knob changed on a
        live default daemon takes effect on the fast path too."""
        fabric, daemon = self._three_listeners(userdb, naive=False)
        assert len(daemon._cache) == 2
        assert evictions(fabric, "lru") == 1


class TestDecisionLog:
    def test_observers_hear_every_verdict(self, userdb):
        """Verdicts leave the daemon only through its observers: each one
        of a burst, cache hits included, is reported once."""
        fabric, nodes, daemon = build_scenario(userdb)
        seen = recorded(daemon)
        n = 12
        daemon.decide_batch([pkt(40001, 5000)] * n)
        assert len(seen) == n
        assert seen[-1] == (Verdict.DROP, "cross-user connection denied")


class TestBatchMatchesNaive:
    def test_rule_matrix_identical_across_paths(self, userdb):
        """Every (initiator, listener) combination, decided both ways."""
        pkts = [pkt(sp, dp) for sp in SRC_PORTS for dp in DST_PORTS]

        def run(naive):
            fabric, nodes, daemon = build_scenario(userdb)
            daemon.naive = naive
            return daemon.decide_batch(list(pkts))

        assert run(naive=False) == run(naive=True)


@st.composite
def burst(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    rows = []
    for _ in range(n):
        sp = draw(st.sampled_from(SRC_PORTS))
        dp = draw(st.sampled_from(DST_PORTS))
        stamp = draw(st.booleans())
        rows.append((sp, dp, stamp))
    return rows


PORT_UID = {40000: "alice", 40001: "bob", 40002: "dave", 40003: "root"}


def make_userdb():
    """Fresh per-example database (hypothesis cannot reuse the fixture)."""
    from repro.kernel.users import UserDB
    db = UserDB(upg=True)
    db.add_user("alice")
    db.add_user("bob")
    carol = db.add_user("carol")
    dave = db.add_user("dave")
    grp = db.add_project_group("fusion", steward=carol)
    db.add_to_project(grp, dave, approver=carol)
    return db


#: a project-group change made after the initiators log in, so their
#: credentials predate it: None, or (add|remove, user) on ``fusion``
CHURN = (None, ("add", "bob"), ("add", "alice"), ("remove", "dave"))


class TestBatchNaiveProperty:
    @settings(max_examples=30, deadline=None)
    @given(rows=burst(), faulty=st.booleans(), fail_open=st.booleans(),
           churn=st.sampled_from(CHURN))
    # bob joins fusion after bob's process started: ident still reports
    # the old groups, so carol's sg-fusion listener (5001) refuses it
    @example(rows=[(40001, 5001, True)], faulty=False, fail_open=False,
             churn=("add", "bob"))
    def test_batch_and_naive_agree_under_random_mixes(self, rows, faulty,
                                                      fail_open, churn):
        """decide_batch ⇄ naive verdict identity under random principal/
        port mixes, uid stamps, project-group changes the initiators'
        credentials predate, and identd faults."""
        def make_pkts(db):
            out = []
            for sp, dp, stamp in rows:
                uid = None
                if stamp and sp in PORT_UID:
                    uid = db.user(PORT_UID[sp]).uid
                out.append(pkt(sp, dp, src_uid=uid))
            return out

        def run(naive):
            db = make_userdb()
            fabric, nodes, daemon = build_scenario(db, fail_open=fail_open)
            daemon.naive = naive
            if churn is not None:
                op, user = churn
                change = (db.add_to_project if op == "add"
                          else db.remove_from_project)
                change("fusion", db.user(user), approver=db.user("carol"))
            if faulty:
                fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
            pkts = make_pkts(db)
            mid = len(pkts) // 2
            return (daemon.decide_batch(pkts[:mid])
                    + daemon.decide_batch(pkts[mid:]))

        assert run(naive=False) == run(naive=True)


class TestBatchTracing:
    def test_decide_batch_emits_batch_and_group_spans(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        tracer = traced(daemon)
        daemon.decide_batch([pkt(40000, 5000), pkt(40000, 5001),
                             pkt(40001, 5000)])
        parent = tracer.by_name("ubf.decide_batch")[0]
        assert parent.tags["n"] == 3
        # alice->alice accepts; alice->carol(fusion) and bob->alice drop
        assert parent.tags["accepts"] == 1 and parent.tags["drops"] == 2
        groups = tracer.by_name("ubf.ident_group")
        assert len(groups) == 2  # two initiating processes
        assert all(g.parent_id == parent.span_id for g in groups)
        assert {g.tags["src"] for g in groups} == {"c1:40000", "c1:40001"}
        assert all(g.finished for g in groups) and parent.finished

    def test_degraded_group_span_is_annotated(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        tracer = traced(daemon)
        fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        daemon.decide_batch([pkt(40000, 5000)])
        group = tracer.by_name("ubf.ident_group")[0]
        assert group.tags["status"] == "degraded"


class TestFirewallBatchWiring:
    def test_evaluate_batch_reaches_daemon_once(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        fw = daemon.stack.firewall
        pkts = [pkt(40000, 5000), pkt(40000, 5001), pkt(40001, 5003)]
        verdicts = fw.evaluate_batch(pkts)
        # alice->alice ok; alice->carol(fusion egid) denied; bob->bob ok
        assert verdicts == [Verdict.ACCEPT, Verdict.DROP, Verdict.ACCEPT]
        # accepted flows committed to conntrack: burst replay is fastpath
        again = fw.evaluate_batch([pkts[0], pkts[2]])
        assert again == [Verdict.ACCEPT] * 2
        assert fabric.metrics.report()["conntrack_fastpath_packets"] == 2

    def test_crash_detaches_batch_handler(self, userdb):
        fabric, nodes, daemon = build_scenario(userdb)
        fw = daemon.stack.firewall
        daemon.crash()
        assert fw.evaluate_batch([pkt(40000, 5000)]) == [Verdict.DROP]
        daemon.restart()
        assert fw.evaluate_batch([pkt(40000, 5000)]) == [Verdict.ACCEPT]
