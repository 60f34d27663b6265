"""E25 — node churn: crash/reboot storms under the health subsystem.

The paper's separation guarantees are easiest to hold on a quiet
machine; production LLSC nodes crash, reboot, and flap.  E25 drives
crash/reboot storms through the seeded heartbeat monitor at 64-1024
nodes with a full-sampling fail-fast separation oracle attached and
measures the robustness path end to end:

* **requeue latency** — sim-time from a victim's requeue to the restart
  of its next attempt (p50/p99), plus wall events/sec for the whole
  storm so the health tick loop's overhead stays visible.
* **fencing / remediation accounting** — every DOWN transition fences
  exactly once, every rejoin remediates exactly once, and after the
  storm drains no node is left fenced, unremediated, or holding another
  tenant's orphan processes (residue always remediated).
* **separation** — zero oracle violations at ``sampling_rate=1.0`` with
  ``fail_fast=True``: invariant I7 aborts the run on any dispatch onto
  an unremediated node or any residue crossing a rejoin.

Storms mix hard crashes (heartbeats stop, node rejoins after a random
outage) with flappy nodes (seeded probabilistic heartbeat loss) so the
flap-damping quarantine path runs too.  Results land in
``benchmarks/results/e25_node_churn.json``; the 64-node point runs as
the CI smoke under pytest, the full sweep with ``E25_FULL=1``.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np

from repro.kernel import LinuxNode, NodeSpec, UserDB
from repro.oracle import SeparationOracle
from repro.sched import (
    ComputeNode,
    HealthMonitor,
    JobSpec,
    JobState,
    NodeHealth,
    NodeSharing,
    Scheduler,
    SchedulerConfig,
)
from repro.faults import FaultInjector, FaultKind
from repro.sim import Engine

from _helpers import print_table, write_result

#: (n_nodes, crashes in the storm).  First point is the CI smoke.
SWEEP = [(64, 24), (256, 96), (1024, 384)]
CORES = 8
#: heartbeat cadence: 5s interval, SUSPECT after 1 miss, DOWN after 3.
HEALTH = dict(interval=5.0, suspect_after=1, down_after=3)


def _workload(rng: random.Random, n_nodes: int, horizon: float):
    """Poisson arrivals at ~80% of capacity over the storm window."""
    mean_core_seconds = 2.0 * 1.5 * 27.5
    rate = (n_nodes * CORES / mean_core_seconds) * 0.8
    jobs, t = [], 0.0
    while t < horizon:
        t += rng.expovariate(rate)
        jobs.append((rng.randrange(8), rng.choice([1, 1, 2, 4]),
                     rng.choice([1, 2]), rng.uniform(5.0, 50.0), t))
    return jobs


def _storm(rng: random.Random, n_nodes: int, n_crashes: int):
    """Crash plan: (node, t_crash, outage_s) with a flappy tail.

    Roughly one crash in eight is a NODE_FLAP episode instead of a hard
    stop; outages are long enough to cross ``down_after`` misses.
    """
    plan = []
    for i in range(n_crashes):
        plan.append((f"n{rng.randrange(n_nodes)}",
                     rng.uniform(10.0, 10.0 + n_crashes * 5.0),
                     rng.uniform(25.0, 70.0),
                     FaultKind.NODE_FLAP if i % 8 == 7
                     else FaultKind.NODE_CRASH))
    return plan


def run_churn_trial(n_nodes: int, n_crashes: int, *, seed: int = 424242,
                    oracle=None) -> dict:
    userdb = UserDB()
    users = [userdb.add_user(f"user{i}") for i in range(8)]
    engine = Engine()
    cnodes = [
        ComputeNode.create(
            LinuxNode(f"n{i}", userdb,
                      spec=NodeSpec(cores=CORES, mem_mb=16_000)))
        for i in range(n_nodes)
    ]
    sched = Scheduler(engine, cnodes,
                      SchedulerConfig(policy=NodeSharing.SHARED,
                                      requeue_on_node_fail=True))
    sched.oracle = oracle
    faults = FaultInjector(sched.metrics, seed=seed)
    mon = HealthMonitor(sched, engine, faults, sched.metrics,
                        **HEALTH).start()

    rng = random.Random(seed)
    plan = _storm(rng, n_nodes, n_crashes)
    horizon = max(t + outage for _, t, outage, _ in plan) + 30.0
    for u, ntasks, cpt, duration, at in _workload(rng, n_nodes, horizon):
        sched.submit(JobSpec(user=users[u], name="j", ntasks=ntasks,
                             cores_per_task=cpt, mem_mb_per_task=500),
                     duration, at=at)

    # requeue latency: requeue time by job id -> closed at next _start
    requeued_at: dict[int, float] = {}
    latencies: list[float] = []
    inner_requeue, inner_start = sched._requeue, sched._start

    def traced_requeue(job):
        requeued_at[job.job_id] = engine.now
        inner_requeue(job)

    def traced_start(job, plan):
        t0 = requeued_at.pop(job.job_id, None)
        if t0 is not None:
            latencies.append(engine.now - t0)
        inner_start(job, plan)

    sched._requeue, sched._start = traced_requeue, traced_start

    for host, t_crash, outage, kind in plan:
        def crash(host=host, kind=kind, outage=outage):
            flake = {"flake_rate": 0.85} if kind is FaultKind.NODE_FLAP \
                else {}
            fault = faults.inject(kind, host, **flake)
            engine.after(outage, lambda: (faults.clear(fault), mon.wake()))
            mon.wake()
        engine.at(t_crash, crash)

    t0 = time.perf_counter()
    engine.run()  # drains: every fault has a scheduled clear
    elapsed = time.perf_counter() - t0

    m = sched.metrics.report()
    fenced_left = [n.name for n in sched.nodes.values()
                   if n.fenced or n.needs_remediation]
    down_left = [name for name in sched.nodes
                 if mon.state_of(name) is not NodeHealth.UP
                 and not mon.nodes[name].quarantined_until]
    orphans = sum(
        1 for node in sched.nodes.values()
        for p in node.node.procs.processes()
        if p.job_id is not None and p.job_id not in node.allocations)
    unfinished = [j for j in sched.jobs.values()
                  if j.state not in (JobState.COMPLETED, JobState.NODE_FAIL)]
    out = {
        "n_nodes": n_nodes,
        "n_crashes": n_crashes,
        "sim_horizon_s": round(engine.now, 1),
        "elapsed_s": round(elapsed, 3),
        "events_per_sec": round(engine.events_processed / elapsed, 1),
        "jobs": len(sched.jobs),
        "fencings": m.get("node_fencings_total", 0),
        "remediations": m.get("node_remediations_total", 0),
        "rejoins": m.get("node_rejoins_total", 0),
        "flap_quarantines": m.get("node_flap_quarantines_total", 0),
        "heartbeats_dropped": m.get("fault_heartbeats_dropped", 0),
        "requeues": m.get("jobs_requeued", 0),
        "requeue_exhausted": m.get("jobs_requeue_exhausted", 0),
        "requeue_p50_s": round(float(np.percentile(latencies, 50)), 3)
        if latencies else None,
        "requeue_p99_s": round(float(np.percentile(latencies, 99)), 3)
        if latencies else None,
        "open_requeues": len(requeued_at),  # victims still pending at end
        "fenced_left": fenced_left,
        "down_left": down_left,
        "orphan_procs_left": orphans,
        "unfinished_jobs": len(unfinished),
    }
    # robustness acceptance: the storm always drains clean
    assert not fenced_left, f"nodes left unremediated: {fenced_left}"
    assert not down_left, f"nodes never rejoined: {down_left}"
    assert orphans == 0, "separation residue survived a rejoin"
    assert not unfinished, "jobs wedged mid-churn"
    assert out["fencings"] > 0 and out["requeues"] > 0
    assert out["remediations"] == out["rejoins"]  # exactly once per reboot
    return out


def run_e25(points, *, seed: int = 424242) -> dict:
    oracle = SeparationOracle(sampling_rate=1.0, fail_fast=True)
    results = {"points": [run_churn_trial(n, c, seed=seed, oracle=oracle)
                          for n, c in points]}
    oracle.assert_clean()
    results["oracle"] = {
        "checks": oracle.total_checks,
        "violations": len(oracle.violations),
        "i7_checks": next(r["checks"] for r in oracle.summary()
                          if r["id"] == "I7"),
    }
    write_result("e25_node_churn", results, full=len(points) > 1)
    return results


def _report(results: dict) -> None:
    print_table(
        "E25: node churn storms (full-sampling oracle attached)",
        ["nodes", "crashes", "fencings", "remediations", "requeues",
         "requeue p50/p99 s", "exhausted", "quarantines", "ev/s"],
        [[p["n_nodes"], p["n_crashes"], p["fencings"], p["remediations"],
          p["requeues"], f"{p['requeue_p50_s']}/{p['requeue_p99_s']}",
          p["requeue_exhausted"], p["flap_quarantines"],
          p["events_per_sec"]]
         for p in results["points"]])
    orc = results["oracle"]
    print(f"[e25] oracle: {orc['checks']} checks "
          f"({orc['i7_checks']} on I7), {orc['violations']} violations")


def test_e25_node_churn_smoke(benchmark):
    """CI smoke: the 64-node storm (full sweep with E25_FULL=1)."""
    full = os.environ.get("E25_FULL") == "1"
    points = SWEEP if full else SWEEP[:1]
    results = benchmark.pedantic(run_e25, args=(points,),
                                 rounds=1, iterations=1)
    _report(results)
    benchmark.extra_info["e25"] = results["points"]
    assert results["oracle"]["violations"] == 0
    assert results["oracle"]["i7_checks"] > 0
    for p in results["points"]:
        assert p["fencings"] > 0
        assert p["orphan_procs_left"] == 0
        assert p["remediations"] == p["rejoins"]


if __name__ == "__main__":
    res = run_e25(SWEEP if os.environ.get("E25_SMOKE") != "1"
                  else SWEEP[:1])
    _report(res)
    print(f"[e25] PASS: {len(res['points'])} storm(s), "
          f"0 oracle violations")
