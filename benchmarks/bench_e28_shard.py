"""E28 — sharded multi-zone simulation: 32k–100k nodes / 1e7 events.

E24 scaled the *per-event* hot paths; its sweep still tops out near 4k
nodes because one Engine steps the whole fleet.  E28 measures the sharded
engine (``repro.sim.shard`` + ``repro.sched.multizone``): the fleet splits
into zones, zones pack onto shards, shards advance in epoch windows and
exchange cross-zone traffic (job transfers, ident queries, portal
forwards, dead-host purges) through the deterministic merge.

Three claims, each asserted:

* **identity** — the K-shard run is event-for-event identical (per-zone
  blake2b trace digests, finish totals, exact core-second accounting,
  message counts) to the single-engine reference and to itself under the
  multiprocessing backend, at every measured point;
* **scale** — the 32k-node point and the 102k-node point each carry
  >= 1e7 simulated events with bounded memory (chunked arrivals, job-table
  pruning, bounded accounting retention);
* **parallel speedup** — at the 32k point, 4 workers deliver
  >= ``MIN_SPEEDUP``x the 1-process throughput.  This assertion is
  **CPU-gated**: it arms only when the host exposes >= 4 CPUs (the CI
  runners do).  On smaller hosts the speedup is still measured and
  recorded — never silent — with ``speedup_gate_armed: false``, following
  E24's capped-naive precedent.

Results land in ``benchmarks/results/e28_shard.json`` (+ a rendered
``e28_posture.md`` from :func:`repro.obs.dashboard.shard_posture`), which
is scratch output; ``python benchmarks/gate.py E28`` checks them against
the rules in ``benchmarks/baselines/e28.json``.  The armed speedup is
asserted here, not there.  The smoke point runs under pytest; the full
32k/102k sweep runs with ``E28_FULL=1`` (or
``python benchmarks/bench_e28_shard.py``).
"""

from __future__ import annotations

import os
import time

from repro.obs import shard_posture
from repro.sched import make_zone_factories
from repro.sim import ShardedEngine

from _helpers import RESULTS_DIR, cpu_count, print_table, write_result

#: epoch window (virtual seconds) = minimum cross-zone message latency
WINDOW = 30.0
SEED = 424242

#: sweep points: zones x nodes/zone.  jobs/zone sized so the two full
#: points each carry ~1e7 engine events (~2.07 events per job under the
#: E24-shaped workload).
SMOKE = {"name": "smoke-2k", "zones": 8, "nodes_per_zone": 256,
         "jobs_per_zone": 2_000, "churn": 0.1}
POINT_32K = {"name": "32k", "zones": 64, "nodes_per_zone": 512,
             "jobs_per_zone": 76_000, "churn": 0.0}
POINT_100K = {"name": "100k", "zones": 128, "nodes_per_zone": 800,
              "jobs_per_zone": 38_000, "churn": 0.0}

MIN_SPEEDUP = 3.0          # 4 workers vs 1 process at the 32k point
SPEEDUP_MIN_CPUS = 4       # the gate arms only with this many CPUs
TARGET_EVENTS = 10_000_000


def _factories(pt: dict, oracle_rate: float = 0.0):
    return make_zone_factories(
        pt["zones"], seed=SEED, nodes_per_zone=pt["nodes_per_zone"],
        jobs_per_zone=pt["jobs_per_zone"], chunk_jobs=2_000,
        transfer_frac=0.03, probe_frac=0.01,
        churn_per_chunk=pt["churn"], oracle_rate=oracle_rate)


def _identity(rep) -> tuple:
    """Everything that must be bit-identical across shardings."""
    return (rep.digest, tuple(map(str, rep.zones)), rep.total_events,
            rep.msgs_routed, tuple(map(str, rep.zone_stats)))


def _run(pt: dict, *, n_shards: int, workers: int,
         oracle_rate: float = 0.0):
    eng = ShardedEngine(_factories(pt, oracle_rate), n_shards=n_shards,
                        window=WINDOW, workers=workers)
    rep = eng.run()
    return eng, rep


def _summarize(rep, eng) -> dict:
    wait = eng.metrics.samples("shard_barrier_wait").summary()
    return {
        "events": rep.total_events,
        "wall_s": round(rep.wall_s, 2),
        "events_per_sec": round(rep.events_per_sec, 1),
        "epochs": rep.epochs,
        "final_time": rep.final_time,
        "msgs_routed": rep.msgs_routed,
        "jobs_finished": sum(z["finished"] for z in rep.zones),
        "oracle_checks": sum(s["oracle_checks"] for s in rep.zone_stats),
        "oracle_violations": sum(s["oracle_violations"]
                                 for s in rep.zone_stats),
        "digest": rep.digest,
        "barrier_wait_p95_s": round(wait["p95"], 5) if wait["n"] else 0.0,
    }


def smoke_section() -> dict:
    """Tri-modal identity at 2048 nodes: the single-engine reference
    (K=1), the K=zones serial sharding, and the multiprocessing backend
    must produce identical traces — with churn injecting node failures
    and a sampled fail-fast oracle armed in every mode."""
    pt = SMOKE
    eng1, single = _run(pt, n_shards=1, workers=0, oracle_rate=0.01)
    engk, serial = _run(pt, n_shards=pt["zones"], workers=0,
                        oracle_rate=0.01)
    engm, mp = _run(pt, n_shards=pt["zones"], workers=2, oracle_rate=0.01)
    assert _identity(serial) == _identity(single), \
        "K-shard serial run diverged from the single-engine reference"
    assert _identity(mp) == _identity(single), \
        "multiprocessing run diverged from the single-engine reference"
    out = {
        "n_nodes": pt["zones"] * pt["nodes_per_zone"],
        "zones": pt["zones"],
        "single_engine": _summarize(single, eng1),
        "sharded_serial": _summarize(serial, engk),
        "sharded_mp2": _summarize(mp, engm),
        "identity_single_vs_serial": True,
        "identity_single_vs_mp": True,
        # serial sharding vs one engine = the merge protocol's own cost
        "protocol_overhead": round(
            single.events_per_sec / serial.events_per_sec, 3),
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "e28_posture.md"), "w") as fh:
        fh.write(shard_posture(serial, engk.metrics))
    return out


def point_32k_section() -> dict:
    """The acceptance point: 32,768 nodes / >=1e7 events, 1 process vs 4
    workers — identical digests, speedup recorded (gated on CPU count)."""
    pt = POINT_32K
    cpus = cpu_count()
    engs, serial = _run(pt, n_shards=pt["zones"], workers=0,
                        oracle_rate=0.002)
    engm, mp4 = _run(pt, n_shards=pt["zones"], workers=4,
                     oracle_rate=0.002)
    assert _identity(mp4) == _identity(serial), \
        "4-worker run diverged from the 1-process run at 32k nodes"
    speedup = round(mp4.events_per_sec / serial.events_per_sec, 2)
    gate_armed = cpus >= SPEEDUP_MIN_CPUS
    if gate_armed:
        assert speedup >= MIN_SPEEDUP, (
            f"acceptance: expected >={MIN_SPEEDUP}x at 4 workers on "
            f"{cpus} CPUs, got {speedup}x")
    else:
        print(f"  [speedup gate NOT armed: host has {cpus} CPU(s) < "
              f"{SPEEDUP_MIN_CPUS}; measured {speedup}x, recorded]")
    return {
        "n_nodes": pt["zones"] * pt["nodes_per_zone"],
        "zones": pt["zones"],
        "target_events": TARGET_EVENTS,
        "serial": _summarize(serial, engs),
        "mp4": _summarize(mp4, engm),
        "identity_serial_vs_mp4": True,
        "speedup_mp4": speedup,
        "speedup_gate_armed": gate_armed,
        "cpus": cpus,
    }


def point_100k_section() -> dict:
    """The headline scale point: 102,400 nodes / >=1e7 events in one run
    (4 workers where the host allows, 1 process otherwise — recorded)."""
    pt = POINT_100K
    cpus = cpu_count()
    workers = 4 if cpus >= SPEEDUP_MIN_CPUS else 0
    eng, rep = _run(pt, n_shards=pt["zones"], workers=workers)
    assert rep.ok
    return {
        "n_nodes": pt["zones"] * pt["nodes_per_zone"],
        "zones": pt["zones"],
        "target_events": TARGET_EVENTS,
        "workers": workers,
        "run": _summarize(rep, eng),
        "cpus": cpus,
    }


def run_e28(full: bool) -> dict:
    results = {
        "window": WINDOW,
        "smoke": smoke_section(),
    }
    if full:
        results["point_32k"] = point_32k_section()
        results["point_100k"] = point_100k_section()
    write_result("e28_shard", results, full=full)
    return results


def _report(results: dict) -> None:
    smoke = results["smoke"]
    rows = [
        [smoke["n_nodes"], "single engine", "-",
         smoke["single_engine"]["events"],
         smoke["single_engine"]["events_per_sec"], "-"],
        [smoke["n_nodes"], f"serial K={smoke['zones']}", "-",
         smoke["sharded_serial"]["events"],
         smoke["sharded_serial"]["events_per_sec"],
         smoke["sharded_serial"]["barrier_wait_p95_s"]],
        [smoke["n_nodes"], f"mp K={smoke['zones']}", 2,
         smoke["sharded_mp2"]["events"],
         smoke["sharded_mp2"]["events_per_sec"],
         smoke["sharded_mp2"]["barrier_wait_p95_s"]],
    ]
    for key, label in (("point_32k", "32k"), ("point_100k", "100k")):
        p = results.get(key)
        if p is None:
            continue
        if key == "point_32k":
            rows.append([p["n_nodes"], f"serial K={p['zones']}", "-",
                         p["serial"]["events"],
                         p["serial"]["events_per_sec"],
                         p["serial"]["barrier_wait_p95_s"]])
            rows.append([p["n_nodes"], f"mp K={p['zones']}", 4,
                         p["mp4"]["events"],
                         p["mp4"]["events_per_sec"],
                         p["mp4"]["barrier_wait_p95_s"]])
        else:
            rows.append([p["n_nodes"], f"mp K={p['zones']}", p["workers"],
                         p["run"]["events"],
                         p["run"]["events_per_sec"],
                         p["run"]["barrier_wait_p95_s"]])
    print_table(
        "E28: sharded multi-zone simulation",
        ["nodes", "mode", "workers", "events", "events/s",
         "barrier p95 (s)"], rows)
    print(f"identity: single==serial=="
          f"mp {smoke['identity_single_vs_serial']} · protocol overhead "
          f"{smoke['protocol_overhead']}x · cpus {cpu_count()}")
    p32 = results.get("point_32k")
    if p32:
        armed = "armed" if p32["speedup_gate_armed"] else \
            f"NOT armed ({p32['cpus']} cpus)"
        print(f"32k acceptance: speedup {p32['speedup_mp4']}x "
              f"(gate {armed}) · identity {p32['identity_serial_vs_mp4']}")


def test_e28_shard_smoke(benchmark):
    """CI smoke: tri-modal identity at 2048 nodes (full sweep with
    E28_FULL=1)."""
    full = os.environ.get("E28_FULL") == "1"
    results = benchmark.pedantic(run_e28, args=(full,),
                                 rounds=1, iterations=1)
    _report(results)
    smoke = results["smoke"]
    benchmark.extra_info["e28"] = {
        "events_per_sec": smoke["sharded_serial"]["events_per_sec"],
        "protocol_overhead": smoke["protocol_overhead"],
    }
    assert smoke["identity_single_vs_serial"]
    assert smoke["identity_single_vs_mp"]
    assert smoke["single_engine"]["oracle_checks"] > 0
    assert smoke["single_engine"]["oracle_violations"] == 0
    assert smoke["sharded_serial"]["oracle_violations"] == 0
    if full:
        p32 = results["point_32k"]
        assert p32["serial"]["events"] >= TARGET_EVENTS
        assert p32["identity_serial_vs_mp4"]
        assert p32["serial"]["oracle_violations"] == 0
        p100 = results["point_100k"]
        assert p100["run"]["events"] >= TARGET_EVENTS
        assert p100["n_nodes"] >= 100_000


if __name__ == "__main__":
    t0 = time.perf_counter()
    res = run_e28(full=os.environ.get("E28_SMOKE") != "1")
    _report(res)
    print(f"[e28] total wall: {time.perf_counter() - t0:.0f}s")
