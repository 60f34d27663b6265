"""E23 — chaos: blast radius and recovery of the UBF data path.

The UBF sits on the connection-setup critical path, so E23 measures what
its failure modes actually cost and that recovery is automatic:

* **identd outage** — established flows keep flowing via conntrack, NEW
  connections fail closed, and clearing the fault restores service with no
  manual flush;
* **UBF daemon crash/restart** — the kernel fails closed while the daemon
  is down, restart re-syncs against surviving conntrack state;
* **conntrack pressure** — an LRU-bounded table degrades to re-decisions,
  not drops: every evicted same-user flow re-admits transparently;
* **packet loss** — blast radius is proportional to the loss rate, nothing
  sticks after the fault clears;
* **fail-open vs fail-closed** — the policy knob's separation/availability
  trade, as a table.

Series printed: blast-radius table per fault, recovery outcomes, the
degradation-policy matrix.  Every number runs on the simulation clock and
the injector's seeded draws, so the result written to
``benchmarks/results/e23_chaos.json`` is the same on any host;
``benchmarks/baselines/e23.json`` gates it with exact rules.
"""

import pytest

from repro import Cluster, LLSC, ablate
from repro.kernel.errors import KernelError
from repro.oracle import attach_oracle

from _helpers import print_table, write_result

#: the oracle of every cluster the trials built (their violations total)
ORACLES: list = []


@pytest.fixture(scope="module")
def e23_result():
    """The result document the trials fill; written after them."""
    ORACLES.clear()
    doc: dict = {}
    yield doc
    doc["oracle"] = {"clusters": len(ORACLES),
                     "violations": sum(len(o.violations) for o in ORACLES)}
    write_result("e23_chaos", doc, full=False)


def build(config=LLSC, **kw):
    """E23 clusters run with the separation oracle armed fail-fast: a
    fault may degrade availability, never separation — any invariant
    violation under chaos aborts the benchmark on the spot."""
    cluster = Cluster.build(config, n_compute=4,
                            users=("alice", "bob", "carol", "dave"),
                            projects={"fusion": ("carol", "dave")}, **kw)
    ORACLES.append(attach_oracle(cluster, fail_fast=True))
    return cluster


def victim_listener(cluster, username="alice", port=5000):
    job = cluster.submit(username, duration=10_000.0)
    cluster.run(until=cluster.engine.now + 1.0)
    shell = cluster.job_session(job)
    net = shell.node.net
    net.listen(net.bind(shell.process, port))
    return shell


def try_connect(session, host, port=5000) -> bool:
    try:
        session.socket().connect(host, port)
        return True
    except KernelError:
        return False


def identd_outage_trial() -> dict[str, object]:
    """The acceptance scenario: identd down on the initiating side."""
    cluster = build()
    shell = victim_listener(cluster)
    host = shell.node.name
    alice = cluster.login("alice")
    established = alice.socket().connect(host, 5000)
    chaos = cluster.chaos()
    fault = chaos.identd_down("login1")

    out: dict[str, object] = {}
    try:
        established.send(b"payload")
        out["established_survives"] = True
    except KernelError:
        out["established_survives"] = False
    # carol has no cached decision: her NEW connection needs ident
    out["new_fails_closed"] = not try_connect(cluster.login("carol"), host)
    # alice's earlier decision is cached: she rides out the outage
    out["cached_principal_survives"] = try_connect(alice, host)
    chaos.clear(fault)
    out["recovers_unaided"] = try_connect(cluster.login("alice"), host)
    rep = cluster.metrics.report()
    out["ident_timeouts"] = rep.get("ubf_ident_timeouts", 0)
    out["retries"] = rep.get("ubf_ident_retries", 0)
    out["oracle_checks"] = cluster.oracle.total_checks
    out["oracle_violations"] = len(cluster.oracle.violations)
    return out


def test_e23_identd_outage(benchmark, e23_result):
    r = benchmark.pedantic(identd_outage_trial, rounds=1, iterations=1)
    print_table("E23: identd outage blast radius",
                ["observable", "value"], [[k, v] for k, v in r.items()])
    benchmark.extra_info["identd_outage"] = r
    e23_result["identd_outage"] = r
    assert r["established_survives"]
    assert r["new_fails_closed"]
    assert r["cached_principal_survives"]
    assert r["recovers_unaided"]
    assert r["retries"] > 0  # backoff actually ran before degrading
    # degraded-mode verdicts were themselves invariant-checked
    assert r["oracle_checks"] > 0 and r["oracle_violations"] == 0


def crash_restart_trial() -> dict[str, object]:
    cluster = build()
    shell = victim_listener(cluster)
    host = shell.node.name
    alice = cluster.login("alice")
    established = alice.socket().connect(host, 5000)
    chaos = cluster.chaos()
    fault = chaos.kill_ubf(host)

    out: dict[str, object] = {}
    try:
        established.send(b"x")
        out["established_survives"] = True
    except KernelError:
        out["established_survives"] = False
    out["new_fails_closed"] = not try_connect(cluster.login("alice"), host)
    chaos.clear(fault)  # restart
    out["recovers_unaided"] = try_connect(cluster.login("alice"), host)
    rep = cluster.metrics.report()
    out["crashes"] = rep.get("ubf_crashes", 0)
    out["restarts"] = rep.get("ubf_restarts", 0)
    out["resynced_flows"] = int(
        cluster.metrics.gauge("ubf_resync_flows").value)
    return out


def test_e23_ubf_crash_restart(benchmark, e23_result):
    r = benchmark.pedantic(crash_restart_trial, rounds=1, iterations=1)
    print_table("E23: UBF crash / restart",
                ["observable", "value"], [[k, v] for k, v in r.items()])
    benchmark.extra_info["crash_restart"] = r
    e23_result["crash_restart"] = r
    assert r["established_survives"] and r["new_fails_closed"]
    assert r["recovers_unaided"]
    assert r["crashes"] == 1 and r["restarts"] == 1
    assert r["resynced_flows"] >= 1  # the established flow survived


def conntrack_pressure_trial(capacity: int,
                             n_flows: int = 12) -> dict[str, object]:
    cluster = build()
    shell = victim_listener(cluster)
    host = shell.node.name
    alice = cluster.login("alice")
    chaos = cluster.chaos()
    chaos.conntrack_pressure(host, capacity=capacity)
    conns = [alice.socket().connect(host, 5000) for _ in range(n_flows)]
    delivered = 0
    for c in conns:  # oldest flows were LRU-evicted: each send is NEW again
        try:
            c.send(b"x")
            delivered += 1
        except KernelError:
            pass
    rep = cluster.metrics.report()
    return {
        "capacity": capacity,
        "delivered": f"{delivered}/{n_flows}",
        "lru_evictions": rep.get(
            'conntrack_evictions_total{reason="lru"}', 0),
        "re_decisions": rep.get("ubf_full_decisions", 0)
        + rep.get("ubf_cache_hits", 0),
        "all_delivered": delivered == n_flows,
    }


def test_e23_conntrack_pressure(benchmark, e23_result):
    results = benchmark.pedantic(
        lambda: [conntrack_pressure_trial(cap) for cap in (2, 4, 64)],
        rounds=1, iterations=1)
    print_table("E23: conntrack pressure (12 same-user flows)",
                ["capacity", "delivered", "LRU evictions", "decisions"],
                [[r["capacity"], r["delivered"], r["lru_evictions"],
                  r["re_decisions"]] for r in results])
    benchmark.extra_info["pressure"] = results
    e23_result["pressure"] = results
    for r in results:
        # degradation is transparent for a legitimate user: evicted flows
        # re-run the decision and still deliver
        assert r["all_delivered"]
    assert results[0]["lru_evictions"] > results[-1]["lru_evictions"]


def packet_loss_trial(loss_rate: float, n: int = 200) -> dict[str, object]:
    cluster = build()
    shell = victim_listener(cluster)
    host = shell.node.name
    alice = cluster.login("alice")
    conn = alice.socket().connect(host, 5000)
    chaos = cluster.chaos()
    fault = chaos.packet_loss(host, loss_rate=loss_rate)
    delivered = 0
    for _ in range(n):
        try:
            conn.send(b"x")
            delivered += 1
        except KernelError:
            pass
    chaos.clear(fault)
    clean = sum(1 for _ in range(50)
                if _send_ok(conn))
    return {"loss_rate": loss_rate, "delivered_frac": delivered / n,
            "clean_after_clear": clean == 50}


def _send_ok(conn) -> bool:
    try:
        conn.send(b"x")
        return True
    except KernelError:
        return False


def test_e23_packet_loss(benchmark, e23_result):
    results = benchmark.pedantic(
        lambda: [packet_loss_trial(r) for r in (0.0, 0.1, 0.5)],
        rounds=1, iterations=1)
    print_table("E23: packet loss on the path to the victim",
                ["loss rate", "delivered fraction", "clean after clear"],
                [[r["loss_rate"], f"{r['delivered_frac']:.2f}",
                  r["clean_after_clear"]] for r in results])
    benchmark.extra_info["loss"] = results
    e23_result["loss"] = results
    assert results[0]["delivered_frac"] == 1.0
    # delivered fraction tracks the injected rate (seeded draws)
    assert results[1]["delivered_frac"] > results[2]["delivered_frac"]
    assert all(r["clean_after_clear"] for r in results)


def degradation_policy_matrix() -> dict[str, dict[str, bool]]:
    out: dict[str, dict[str, bool]] = {}
    for label, cfg in (("fail-closed", LLSC),
                       ("fail-open", ablate(LLSC, ubf_fail_open=True))):
        cluster = build(cfg)
        shell = victim_listener(cluster)
        host = shell.node.name
        cluster.chaos().identd_down("login1")
        out[label] = {
            "same user": try_connect(cluster.login("alice"), host),
            "stranger": try_connect(cluster.login("bob"), host),
        }
    return out


def test_e23_fail_open_vs_fail_closed(benchmark, e23_result):
    matrix = benchmark.pedantic(degradation_policy_matrix,
                                rounds=1, iterations=1)
    rows = [[policy, row["same user"], row["stranger"]]
            for policy, row in matrix.items()]
    print_table("E23: degraded-verdict policy (identd down)",
                ["policy", "same user admitted", "stranger admitted"], rows)
    benchmark.extra_info["policy_matrix"] = matrix
    e23_result["policy_matrix"] = matrix
    # fail-closed: nobody new gets in (separation preserved, availability
    # sacrificed); fail-open: everybody does (the inverse trade)
    assert matrix["fail-closed"] == {"same user": False, "stranger": False}
    assert matrix["fail-open"] == {"same user": True, "stranger": True}
