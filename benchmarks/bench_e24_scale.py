"""E24 — scale-out throughput of the three hot paths, vs naive references.

The paper deploys its separation mechanisms on a production system; the
ROADMAP's north star is that this reproduction runs "as fast as the
hardware allows" at production scale.  E24 measures the three paths that
dominate event cost and pins them against the ``naive=`` reference
implementations kept for differential testing:

* **scheduler** — cluster-size x workload sweep; events/sec and p99
  dispatch-pass wall latency, indexed dispatch vs the full
  pending x nodes rescan.  The naive side of big sweep points is measured
  on a *capped* event count (printed and recorded — never silent) because
  the whole point is that it does not scale.
* **UBF** — batched verdicts (coalesced ident + decision cache + egid
  allow-sets) vs the sequential per-packet daemon.
* **procfs** — hidepid=2 listings for a non-exempt viewer via the per-uid
  index vs the whole-table filter.

Differential guarantees asserted on every run: identical placements and
start times for the scheduler sweep point, identical UBF verdict
sequences, identical procfs views.

Results land in ``benchmarks/results/e24_scale.json`` (the CI artifact;
``check_e24.py`` gates regressions against ``e24_baseline.json``).  The
smoke point runs under pytest; the full sweep — including the 1024-node /
1e5-event point with its >=5x acceptance assertion — runs with
``E24_FULL=1`` (or ``python benchmarks/bench_e24_scale.py``).
"""

from __future__ import annotations

import json
import os
import random
import time

import numpy as np

from repro.kernel import LinuxNode, NodeSpec, ProcMountOptions, UserDB
from repro.kernel.process import ProcessTable
from repro.kernel.procfs import ProcFS
from repro.net import (
    ConnState,
    Fabric,
    Firewall,
    FiveTuple,
    HostStack,
    Packet,
    Proto,
    UBFDaemon,
    ubf_ruleset,
)
from repro.sched import ComputeNode, JobSpec, NodeSharing, Scheduler, SchedulerConfig
from repro.sim import Engine

from _helpers import RESULTS_DIR, print_table

#: (n_nodes, target events).  The first point is the CI smoke; the
#: 1024-node / 1e5-event point carries the acceptance assertion.
SWEEP = [(64, 10_000), (256, 30_000), (1024, 100_000), (4096, 1_000_000)]
ACCEPTANCE_POINT = (1024, 100_000)
MIN_SPEEDUP = 5.0
#: naive reference event caps by cluster size — the O(queue x nodes) scan
#: cannot finish the big points in useful time, so its events/sec is
#: measured on a prefix of the same workload (recorded, never silent).
#: caps chosen so the naive side still reaches a formed queue (speedups
#: are therefore lower bounds — naive keeps degrading past the cap).
NAIVE_CAPS = {64: 10_000, 256: 10_000, 1024: 12_000, 4096: 6_000}

CORES = 8


def _burst_shape(n_nodes: int) -> tuple[int, int]:
    """Array campaigns are sized to the machine: every ``every`` jobs,
    ``size`` arrive at the same instant (~32% of all jobs)."""
    size = max(48, (n_nodes * 3) // 8)
    return size * 25 // 8, size


def _workload(n_nodes: int, n_events: int):
    """Deterministic job stream sized to keep *n_nodes* busy and queued.

    ~2 engine events per job (arrival + completion), so n_events/2 jobs.
    Arrivals are Poisson at ~95% of cluster capacity, punctuated by
    same-instant bursts (sbatch --array campaigns) so steady state has a
    real queue — the regime where the naive pending x nodes rescan hurts.
    """
    rng = random.Random(424242)
    jobs = []
    n_jobs = max(1, n_events // 2)
    # avg tasks 2.0 x avg cores/task 1.5 x avg duration 27.5s
    mean_core_seconds = 2.0 * 1.5 * 27.5
    rate = (n_nodes * CORES / mean_core_seconds) * 0.95
    every, size = _burst_shape(n_nodes)
    # burst members share their leader's arrival time, so only
    # (every - size + 1) gaps are drawn per `every` jobs; shrink the
    # per-gap rate to keep the overall arrival rate at `rate`.
    gap_rate = rate * (every - size + 1) / every
    t = 0.0
    i = 0
    while i < n_jobs:
        t += rng.expovariate(gap_rate)
        burst = size if (i and i % every == 0) else 1
        for _ in range(min(burst, n_jobs - i)):
            jobs.append((i % 8, rng.choice([1, 1, 2, 4]),
                         rng.choice([1, 2]), rng.uniform(5.0, 50.0), t))
            i += 1
    return jobs


def run_sched_trial(n_nodes: int, n_events: int, *, naive: bool,
                    collect_placements: bool = False, oracle=None,
                    attribution=None):
    userdb = UserDB()
    users = [userdb.add_user(f"user{i}") for i in range(8)]
    engine = Engine()
    cnodes = [
        ComputeNode.create(
            LinuxNode(f"n{i}", userdb,
                      spec=NodeSpec(cores=CORES, mem_mb=16_000)))
        for i in range(n_nodes)
    ]
    # the default sharing policy: SHARED first-fit packs a dense busy
    # prefix, which is exactly where the naive whole-partition rescan
    # degenerates and the free-capacity buckets shine
    sched = Scheduler(engine, cnodes,
                      SchedulerConfig(policy=NodeSharing.SHARED,
                                      naive=naive))
    sched.oracle = oracle
    if attribution is not None:
        # E26 measures the forensic plane's cost on this exact trial:
        # `attribution` is a factory(engine) -> AttributionRegistry
        sched.attribution = attribution(engine)
    for u, ntasks, cpt, duration, at in _workload(n_nodes, n_events):
        sched.submit(JobSpec(user=users[u], name="j", ntasks=ntasks,
                             cores_per_task=cpt, mem_mb_per_task=500),
                     duration, at=at)
    dispatch_s: list[float] = []
    inner = sched._try_dispatch

    def timed_dispatch():
        t0 = time.perf_counter()
        inner()
        dispatch_s.append(time.perf_counter() - t0)

    sched._try_dispatch = timed_dispatch
    # untimed warmup to steady state (cluster full, queue formed) so
    # events/sec reflects sustained cost, not the cheap empty-cluster ramp
    warm = n_events // 5
    while engine.events_processed < warm and engine.step():
        pass
    dispatch_s.clear()
    t0 = time.perf_counter()
    c0 = time.process_time()
    engine.run()
    cpu = time.process_time() - c0
    elapsed = time.perf_counter() - t0
    measured = max(1, engine.events_processed - warm)
    out = {
        "events": engine.events_processed,
        "elapsed_s": round(elapsed, 3),
        "events_per_sec": round(measured / elapsed, 1),
        # CPU-time rate: immune to host steal time under virtualisation,
        # so A/B comparisons (E26) stay meaningful on noisy hosts
        "events_per_sec_cpu": round(measured / max(cpu, 1e-9), 1),
        "p99_dispatch_ms": round(
            float(np.percentile(dispatch_s, 99)) * 1e3, 4),
        "nodes_examined": sched.metrics.counter("sched_dispatch_scan").value,
    }
    if collect_placements:
        out["placements"] = {
            jid: (job.start_time,
                  [(a.node, a.tasks, a.cores) for a in job.allocations])
            for jid, job in sched.jobs.items()
        }
    return out


def sched_point(n_nodes: int, n_events: int, *, differential: bool):
    """One sweep point: indexed at full count, naive at its cap."""
    indexed = run_sched_trial(n_nodes, n_events, naive=False,
                              collect_placements=differential)
    cap = min(n_events, NAIVE_CAPS[n_nodes])
    naive = run_sched_trial(n_nodes, cap, naive=True,
                            collect_placements=differential)
    if differential:
        # identical workload prefix -> byte-identical placements
        ref = run_sched_trial(n_nodes, cap, naive=False,
                              collect_placements=True)
        assert ref["placements"] == naive.pop("placements"), \
            "indexed dispatch diverged from naive placements"
        indexed.pop("placements", None)
    naive["event_cap"] = cap
    if cap < n_events:
        print(f"  [naive capped at {cap} of {n_events} events — "
              f"the rescan does not scale; events/sec from the prefix]")
    return {
        "n_nodes": n_nodes,
        "target_events": n_events,
        "indexed": indexed,
        "naive": naive,
        "speedup": round(indexed["events_per_sec"]
                         / naive["events_per_sec"], 2),
    }


# -- UBF batched verdicts ---------------------------------------------------

def run_ubf_trial(*, naive: bool, n_listeners: int = 64,
                  n_initiators: int = 32, n_packets: int = 4096,
                  oracle=None):
    userdb = UserDB()
    users = [userdb.add_user(f"u{i}") for i in range(max(n_listeners,
                                                         n_initiators))]
    fabric = Fabric()
    nodes, daemons = {}, {}
    for name in ("c1", "c2"):
        node = LinuxNode(name, userdb)
        HostStack(node, fabric, firewall=Firewall(rules=ubf_ruleset()))
        nodes[name] = node
        daemons[name] = UBFDaemon(node.net, fabric, userdb,
                                  naive=naive).install()
        daemons[name].oracle = oracle
    daemon = daemons["c2"]
    net2, net1 = nodes["c2"].net, nodes["c1"].net
    for i in range(n_listeners):
        creds = userdb.credentials_for(users[i])
        proc = nodes["c2"].procs.spawn(creds, ["server"])
        net2.listen(net2.bind(proc, 5000 + i))
    for j in range(n_initiators):
        creds = userdb.credentials_for(users[j])
        proc = nodes["c1"].procs.spawn(creds, ["client"])
        net1.bind(proc, 40_000 + j)
    rng = random.Random(7)
    pkts = [
        Packet(FiveTuple(Proto.TCP, "c1", 40_000 + rng.randrange(n_initiators),
                         "c2", 5000 + rng.randrange(n_listeners)),
               ConnState.NEW,
               src_uid=users[rng.randrange(n_initiators)].uid
               if rng.random() < 0.5 else None)
        for _ in range(n_packets)
    ]
    verdicts = []
    t0 = time.perf_counter()
    for i in range(0, len(pkts), 64):  # nfqueue drains in bursts
        verdicts.extend(daemon.decide_batch(pkts[i:i + 64]))
    elapsed = time.perf_counter() - t0
    return {
        "verdicts": len(verdicts),
        "elapsed_s": round(elapsed, 3),
        "verdicts_per_sec": round(len(verdicts) / elapsed, 1),
        "ident_round_trips": fabric.metrics.report().get(
            "ident_round_trips", 0),
    }, [v.value for v in verdicts]


def ubf_section():
    indexed, iv = run_ubf_trial(naive=False)
    naive, nv = run_ubf_trial(naive=True)
    assert iv == nv, "batched UBF verdicts diverged from sequential naive"
    return {
        "indexed": indexed,
        "naive": naive,
        "speedup": round(indexed["verdicts_per_sec"]
                         / naive["verdicts_per_sec"], 2),
        # ident RTTs are simulated (no wall cost here), so the production
        # win of coalescing is the upstream round trips it removes
        "rtt_reduction": round(naive["ident_round_trips"]
                               / max(1, indexed["ident_round_trips"]), 2),
        "verdicts_identical": True,
    }


# -- procfs viewer listings -------------------------------------------------

def run_procfs_trial(*, naive: bool, n_users: int = 50,
                     procs_per_user: int = 40, iterations: int = 200,
                     oracle=None):
    userdb = UserDB()
    users = [userdb.add_user(f"u{i}") for i in range(n_users)]
    table = ProcessTable("n1")
    for i in range(n_users * procs_per_user):
        creds = userdb.credentials_for(users[i % n_users])
        table.spawn(creds, ["app"], job_id=i % 97)
    fs = ProcFS(table, ProcMountOptions(hidepid=2), naive=naive)
    fs.oracle = oracle
    viewer = userdb.credentials_for(users[0])
    t0 = time.perf_counter()
    for _ in range(iterations):
        pids = fs.list_pids(viewer)
        rows = fs.ps(viewer)
        seen = fs.visible_users(viewer)
    elapsed = time.perf_counter() - t0
    return {
        "listings_per_sec": round(3 * iterations / elapsed, 1),
        "elapsed_s": round(elapsed, 4),
    }, (pids, rows, seen)


def procfs_section():
    indexed, iview = run_procfs_trial(naive=False)
    naive, nview = run_procfs_trial(naive=True)
    assert iview == nview, "indexed procfs views diverged from naive"
    return {
        "indexed": indexed,
        "naive": naive,
        "speedup": round(indexed["listings_per_sec"]
                         / naive["listings_per_sec"], 2),
        "views_identical": True,
    }


# -- separation oracle ------------------------------------------------------

#: acceptance bound: oracle at sampling_rate=0.01 on the smoke point
MAX_ORACLE_OVERHEAD = 0.10


def oracle_section() -> dict:
    """Run the smoke point of every hot path under the separation oracle.

    Two sub-measurements: a **full-sampling fail-fast pass** (every
    decision checked and shadow-compared; any violation aborts the
    benchmark), and an **overhead pass** at the production
    ``sampling_rate=0.01`` against the bare scheduler trial, bounded by
    ``MAX_ORACLE_OVERHEAD``.  Best-of-2 on each timed side so the ratio
    reflects cost, not scheduler jitter.
    """
    from repro.oracle import SeparationOracle
    n_nodes, n_events = SWEEP[0]
    full = SeparationOracle(sampling_rate=1.0, fail_fast=True)
    run_sched_trial(n_nodes, n_events, naive=False, oracle=full)
    run_ubf_trial(naive=False, oracle=full)
    run_procfs_trial(naive=False, iterations=20, oracle=full)
    full.assert_clean()

    sampled = SeparationOracle(sampling_rate=0.01, fail_fast=True)
    bare_eps = oracle_eps = 0.0
    for _ in range(2):
        bare = run_sched_trial(n_nodes, n_events, naive=False)
        timed = run_sched_trial(n_nodes, n_events, naive=False,
                                oracle=sampled)
        bare_eps = max(bare_eps, bare["events_per_sec"])
        oracle_eps = max(oracle_eps, timed["events_per_sec"])
    sampled.assert_clean()
    overhead = bare_eps / oracle_eps - 1.0
    return {
        "full_sampling": {
            "checks": full.total_checks,
            "shadow_checks": full.shadow_checks,
            "violations": len(full.violations),
            "per_invariant": {r["id"]: r["checks"] for r in full.summary()},
        },
        "sampling_rate": 0.01,
        "bare_events_per_sec": bare_eps,
        "oracle_events_per_sec": oracle_eps,
        "overhead": round(overhead, 4),
    }


# -- orchestration ----------------------------------------------------------

def run_e24(points) -> dict:
    results = {
        "experiment": "E24",
        "mode": "full" if len(points) > 1 else "smoke",
        "points": [],
        "ubf": ubf_section(),
        "procfs": procfs_section(),
        "oracle": oracle_section(),
    }
    for i, (n_nodes, n_events) in enumerate(points):
        differential = i == 0  # full placement diff at the smallest point
        results["points"].append(
            sched_point(n_nodes, n_events, differential=differential))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "e24_scale.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"\n[e24] results written to {path}")
    return results


def _report(results: dict) -> None:
    print_table(
        "E24: indexed vs naive dispatch (events/sec)",
        ["nodes", "events", "indexed ev/s", "naive ev/s (cap)",
         "speedup", "p99 dispatch ms"],
        [[p["n_nodes"], p["target_events"],
          p["indexed"]["events_per_sec"],
          f"{p['naive']['events_per_sec']} ({p['naive']['event_cap']})",
          f"{p['speedup']}x", p["indexed"]["p99_dispatch_ms"]]
         for p in results["points"]])
    ubf = results["ubf"]
    print_table(
        "E24: UBF + procfs hot paths",
        ["path", "indexed/s", "naive/s", "speedup", "ident RTTs (vs naive)"],
        [["ubf verdicts", ubf["indexed"]["verdicts_per_sec"],
          ubf["naive"]["verdicts_per_sec"], f"{ubf['speedup']}x",
          f"{ubf['indexed']['ident_round_trips']} vs "
          f"{ubf['naive']['ident_round_trips']} "
          f"({ubf['rtt_reduction']}x fewer)"],
         ["procfs listings",
          results["procfs"]["indexed"]["listings_per_sec"],
          results["procfs"]["naive"]["listings_per_sec"],
          f"{results['procfs']['speedup']}x", "-"]])
    orc = results["oracle"]
    print_table(
        "E24: separation oracle",
        ["pass", "checks", "shadow", "violations", "overhead"],
        [["full sampling", orc["full_sampling"]["checks"],
          orc["full_sampling"]["shadow_checks"],
          orc["full_sampling"]["violations"], "-"],
         [f"sampled ({orc['sampling_rate']:g})", "-", "-", "-",
          f"{orc['overhead'] * 100:.1f}% "
          f"({orc['oracle_events_per_sec']:g} vs "
          f"{orc['bare_events_per_sec']:g} ev/s)"]])


def test_e24_scale_smoke(benchmark):
    """CI smoke: the smallest sweep point + every differential assertion
    (full sweep with E24_FULL=1)."""
    full = os.environ.get("E24_FULL") == "1"
    points = SWEEP if full else SWEEP[:1]
    results = benchmark.pedantic(run_e24, args=(points,),
                                 rounds=1, iterations=1)
    _report(results)
    benchmark.extra_info["e24"] = {
        "points": results["points"],
        "ubf_speedup": results["ubf"]["speedup"],
        "procfs_speedup": results["procfs"]["speedup"],
    }
    assert results["ubf"]["verdicts_identical"]
    assert results["procfs"]["views_identical"]
    orc = results["oracle"]
    assert orc["full_sampling"]["violations"] == 0
    assert orc["full_sampling"]["checks"] > 0
    assert orc["full_sampling"]["shadow_checks"] > 0
    assert all(orc["full_sampling"]["per_invariant"][i] > 0
               for i in ("I1", "I2", "I4"))
    assert orc["overhead"] < MAX_ORACLE_OVERHEAD, (
        f"oracle at sampling_rate=0.01 cost {orc['overhead']:.1%} "
        f"(bound {MAX_ORACLE_OVERHEAD:.0%})")
    for p in results["points"]:
        assert p["indexed"]["events"] >= p["target_events"] * 0.9
    if full:
        accept = next(p for p in results["points"]
                      if (p["n_nodes"], p["target_events"])
                      == ACCEPTANCE_POINT)
        assert accept["speedup"] >= MIN_SPEEDUP, (
            f"acceptance: expected >={MIN_SPEEDUP}x at {ACCEPTANCE_POINT}, "
            f"got {accept['speedup']}x")


if __name__ == "__main__":
    res = run_e24(SWEEP if os.environ.get("E24_SMOKE") != "1" else SWEEP[:1])
    _report(res)
    accept = [p for p in res["points"]
              if (p["n_nodes"], p["target_events"]) == ACCEPTANCE_POINT]
    if accept:
        ok = accept[0]["speedup"] >= MIN_SPEEDUP
        print(f"[e24] acceptance {ACCEPTANCE_POINT}: "
              f"{accept[0]['speedup']}x {'PASS' if ok else 'FAIL'}")
        raise SystemExit(0 if ok else 1)
