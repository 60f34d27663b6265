"""E8 + E9 — the User-Based Firewall (paper §IV-D + appendix).

E8 claims: (a) connection matrix — same user allowed, project-group member
allowed when the listener set its egid via sg (opt-in), stranger denied —
for both TCP and UDP on ports ≥1024, and every allowed connection carries
the server's answer back to its initiator; (b) cost: the decision runs once
per NEW connection (nfqueue + ident RTT); established traffic, replies
included, rides the conntrack fast path at ~zero marginal cost.  Ablations
from DESIGN.md §5: decision cache on/off, conntrack on/off.

E9 claim (§V): two users who accidentally pick the same port cannot
crosstalk or corrupt each other's data.

Series printed: the decision matrix; per-packet cost vs flow length;
ablation counter table.

Every claim runs on the simulation clock and the modelled cost table, so
the numbers are the same on any host and under any hash seed.  The matrix
(with its replies), the three flow-cost profiles, the four ablation rows
and E9's result go to ``benchmarks/results/e8_ubf.json``;
``python benchmarks/gate.py E8`` checks them against the exact rules in
``benchmarks/baselines/e8.json``.  ``test_e8_connection_setup_wallclock``
is a pytest-benchmark timing and records nothing.
"""

import pytest

from repro import Cluster, LLSC, ablate
from repro.kernel.errors import KernelError
from repro.net import Proto, firewall_cost_us

from _helpers import print_table, write_result


def build(config=LLSC):
    return Cluster.build(config, n_compute=4,
                         users=("alice", "bob", "carol", "dave"),
                         projects={"fusion": ("carol", "dave")})


def victim_listener(cluster, username="alice", port=5000, proto=Proto.TCP,
                    sg_group=None):
    job = cluster.submit(username, duration=10_000.0)
    cluster.run(until=cluster.engine.now + 1.0)
    shell = cluster.job_session(job)
    if sg_group:
        shell.sys.newgrp(cluster.userdb.group(sg_group).gid)
    net = shell.node.net
    if proto is Proto.TCP:
        sock = net.listen(net.bind(shell.process, port))
    else:
        sock = net.bind(shell.process, port, proto)
    return shell, sock


@pytest.fixture(scope="module")
def e8_result():
    """The result document the claim tests fill; written after them."""
    doc: dict = {}
    yield doc
    write_result("e8_ubf", doc, full=False)


def attempt_connect(cluster, username, shell, sock, proto) -> tuple[bool, bool]:
    """(connected, answered): *username* connects to *shell*'s socket on
    port 5000; on success the server answers (``accept`` + ``send`` on TCP,
    ``sendto`` back to the datagram's source port on UDP) and the initiator
    must receive it."""
    s = cluster.login(username)
    net = shell.node.net
    try:
        if proto is Proto.TCP:
            conn = s.socket().connect(shell.node.name, 5000)
        else:
            src = s.node.net.bind_ephemeral(s.process, Proto.UDP)
            s.socket().sendto(shell.node.name, 5000, b"dgram", src_sock=src)
    except KernelError:
        return False, False
    try:
        if proto is Proto.TCP:
            net.accept(sock).send(b"answer")
            return True, conn.recv() == b"answer"
        dgram = net.recvfrom(sock)
        net.sendto(shell.process, dgram.src_host, dgram.src_port, b"answer",
                   src_sock=sock)
        return True, s.node.net.recvfrom(src).data == b"answer"
    except KernelError:
        return True, False


#: initiators the UBF allows; each also gets a reply row in the matrix
ALLOWED = ("same user", "group member (sg)")


def decision_matrix() -> dict[str, dict[str, bool]]:
    out: dict[str, dict[str, bool]] = {}
    for proto in (Proto.TCP, Proto.UDP):
        attempts = {}
        # same-user and stranger against alice's plain listener
        cluster = build()
        shell, sock = victim_listener(cluster, "alice", proto=proto)
        attempts["same user"] = attempt_connect(cluster, "alice", shell,
                                                sock, proto)
        attempts["stranger"] = attempt_connect(cluster, "bob", shell, sock,
                                               proto)
        # group member against carol's sg-fusion listener
        cluster2 = build()
        shell2, sock2 = victim_listener(cluster2, "carol", proto=proto,
                                        sg_group="fusion")
        attempts["group member (sg)"] = attempt_connect(
            cluster2, "dave", shell2, sock2, proto)
        attempts["non-member (sg)"] = attempt_connect(
            cluster2, "alice", shell2, sock2, proto)
        # without sg: opt-in check
        cluster3 = build()
        shell3, sock3 = victim_listener(cluster3, "carol", proto=proto)
        attempts["group member (no sg)"] = attempt_connect(
            cluster3, "dave", shell3, sock3, proto)
        row = {case: connected for case, (connected, _) in attempts.items()}
        for case in ALLOWED:
            row[f"{case}, reply"] = attempts[case][1]
        out[proto.value] = row
    return out


def test_e8_decision_matrix(benchmark, e8_result):
    matrix = benchmark.pedantic(decision_matrix, rounds=1, iterations=1)
    cases = list(matrix["tcp"])
    rows = [[c] + [("allowed" if matrix[p][c] else "denied")
                   for p in ("tcp", "udp")] for c in cases]
    print_table("E8: UBF decision matrix", ["initiator", "tcp", "udp"], rows)
    benchmark.extra_info["matrix"] = matrix
    e8_result["matrix"] = matrix
    for proto in ("tcp", "udp"):
        assert matrix[proto] == {
            "same user": True,
            "stranger": False,
            "group member (sg)": True,
            "non-member (sg)": False,
            "group member (no sg)": False,  # sharing is opt-in via sg
            # conntrack on the initiating host carries the answers back
            "same user, reply": True,
            "group member (sg), reply": True,
        }


def flow_cost_profile(n_packets: int) -> dict[str, float]:
    cluster = build()
    shell, sock = victim_listener(cluster, "alice")
    alice = cluster.login("alice")
    setup0 = firewall_cost_us(cluster.metrics)
    conn = alice.socket().connect(shell.node.name, 5000)
    setup_cost = firewall_cost_us(cluster.metrics) - setup0
    before = firewall_cost_us(cluster.metrics)
    for _ in range(n_packets):
        conn.send(b"x" * 1024)
    stream_cost = firewall_cost_us(cluster.metrics) - before
    return {"setup_us": setup_cost,
            "per_packet_us": stream_cost / n_packets,
            "amortized_us": (setup_cost + stream_cost) / n_packets}


def test_e8_conntrack_amortisation(benchmark, e8_result):
    profile = benchmark.pedantic(
        lambda: {n: flow_cost_profile(n) for n in (10, 100, 1000)},
        rounds=1, iterations=1)
    rows = [[n, f"{p['setup_us']:.1f}", f"{p['per_packet_us']:.3f}",
             f"{p['amortized_us']:.3f}"] for n, p in profile.items()]
    print_table("E8: UBF cost vs flow length (modelled us)",
                ["packets", "setup", "per packet", "amortized/pkt"], rows)
    benchmark.extra_info["profile"] = {str(k): v for k, v in profile.items()}
    e8_result["profile"] = {str(k): v for k, v in profile.items()}
    for n, p in profile.items():
        assert p["setup_us"] > 100          # nfqueue + ident RTT at setup
        assert p["per_packet_us"] < 1.0     # conntrack fast path
    # amortized cost vanishes with flow length
    assert profile[1000]["amortized_us"] < profile[10]["amortized_us"] / 10


def ablation_counters(cache: bool, conntrack: bool) -> dict[str, int]:
    cfg = ablate(LLSC, ubf_cache=cache, conntrack=conntrack)
    cluster = build(cfg)
    shell, _ = victim_listener(cluster, "alice")
    alice = cluster.login("alice")
    for _ in range(20):
        conn = alice.socket().connect(shell.node.name, 5000)
        for _ in range(5):
            conn.send(b"data")
    rep = cluster.metrics.report()
    return {
        "ident_rtts": rep.get("ident_round_trips", 0),
        "full_decisions": rep.get("ubf_full_decisions", 0),
        "cache_hits": rep.get("ubf_cache_hits", 0),
        "fastpath_pkts": rep.get("conntrack_fastpath_packets", 0),
        "cost_us": round(firewall_cost_us(cluster.metrics), 1),
    }


def test_e8_cache_and_conntrack_ablation(benchmark, e8_result):
    results = benchmark.pedantic(
        lambda: {(c, ct): ablation_counters(c, ct)
                 for c in (True, False) for ct in (True, False)},
        rounds=1, iterations=1)
    rows = [[f"cache={c}", f"conntrack={ct}", r["ident_rtts"],
             r["full_decisions"], r["cache_hits"], r["fastpath_pkts"],
             r["cost_us"]]
            for (c, ct), r in results.items()]
    print_table("E8-ablation: 20 connections x 5 packets",
                ["cache", "conntrack", "ident RTTs", "full decisions",
                 "cache hits", "fastpath pkts", "modelled us"], rows)
    e8_result["ablation"] = {f"cache={c},conntrack={ct}": r
                             for (c, ct), r in results.items()}
    base = results[(True, True)]
    no_cache = results[(False, True)]
    no_ct = results[(True, False)]
    assert base["full_decisions"] == 1 and base["cache_hits"] == 19
    assert no_cache["full_decisions"] == 20
    # the cache's point: hits answer without the ident RTT
    assert base["ident_rtts"] == 1
    assert no_cache["ident_rtts"] == 20
    assert base["ident_rtts"] < no_cache["ident_rtts"]
    assert no_ct["fastpath_pkts"] == 0       # every packet walks the rules
    assert base["fastpath_pkts"] >= 100
    assert base["cost_us"] < no_ct["cost_us"]


def test_e9_port_collision(benchmark, e8_result):
    def collision_trial() -> dict[str, bool]:
        out = {}
        for label, cfg in (("BASELINE", ablate(LLSC, ubf=False)),
                           ("LLSC", LLSC)):
            cluster = build(cfg)
            # bob squats port 9000 on the login node; alice's client
            # mistakenly connects there
            bob = cluster.login("bob")
            squat = bob.node.net.listen(bob.node.net.bind(bob.process, 9000))
            alice = cluster.login("alice")
            try:
                conn = alice.socket().connect("login1", 9000)
                conn.send(b"alice-payload")
                got = bob.node.net.accept(squat).recv()
                out[label] = got == b"alice-payload"
            except KernelError:
                out[label] = False
        return out

    results = benchmark.pedantic(collision_trial, rounds=1, iterations=1)
    print_table("E9: same-port crosstalk (attacker captures payload)",
                ["config", "crosstalk"], [[k, v] for k, v in results.items()])
    e8_result["e9_crosstalk"] = results
    assert results == {"BASELINE": True, "LLSC": False}


def test_e8_connection_setup_wallclock(benchmark):
    """Wall-clock cost of a full UBF-approved TCP setup in the simulator."""
    cluster = build()
    shell, _ = victim_listener(cluster, "alice")
    alice = cluster.login("alice")
    host = shell.node.name

    def connect_once():
        conn = alice.socket().connect(host, 5000)
        conn.close()
        return conn

    conn = benchmark(connect_once)
    assert not conn.open  # closed after a successful setup
