"""E30 — control-plane crash recovery: time-to-recover and journal cost.

E23 showed the cluster absorbing *node* failures; E30 measures what
happens when the **control plane itself** dies mid-run
(``repro.persist``): the write-ahead journal, the periodic snapshots,
and ``Cluster.recover()`` = snapshot restore + journal-suffix replay +
timer re-arm + UBF generation bump.

Three claims, each asserted:

* **identity** — crash the scheduler at a (seeded-random) event index in
  the middle 60% of the run, recover, and drain: the recovered run must
  end :func:`~repro.persist.state_digest`-identical to the uncrashed
  reference, ``report.identical`` must hold (the rebuilt control plane
  matches the at-crash digest bit for bit), and the separation oracle —
  armed fail-fast, full sampling at the smoke point — must record zero
  I1–I8 violations;
* **recovery time** — wall-clock ``recover()`` latency is measured at
  64 nodes (smoke) and swept to 256/1024/4096 nodes under ``E30_FULL=1``
  with the same fixed workload, isolating the node-state restore cost;
* **journal overhead** — the E24-shaped submit→dispatch→finish hot path
  with the journal armed (in-memory store, the production default) costs
  < ``MAX_OVERHEAD_PCT`` over the bare scheduler, best-of-3 paired runs.

Results land in ``benchmarks/results/e30_recovery.json`` (+ a
``e30_recovery_vs_scale.csv`` series for figures), which is scratch
output; ``python benchmarks/gate.py E30`` checks them against the rules
in ``benchmarks/baselines/e30.json``.  The smoke point runs under
pytest; the full scale sweep runs with ``E30_FULL=1`` (or
``python benchmarks/bench_e30_recovery.py``).
"""

from __future__ import annotations

import gc
import os
import random
import time

from repro.core.cluster import Cluster
from repro.core.config import SeparationConfig
from repro.oracle import attach_oracle
from repro.persist import MemoryRunStore, attach_persistence, state_digest
from repro.sched.health import attach_health

from _helpers import print_table, write_result, write_series_csv

SEED = 424242

#: node-count sweep: smoke point first, the rest under E30_FULL=1
SCALES = [64, 256, 1024, 4096]
SMOKE_NODES = SCALES[0]

#: fixed workload at every scale so the sweep isolates node-state cost
N_JOBS = 128
#: overhead point: the E24-shaped stream (Poisson at ~95% capacity with
#: same-instant array bursts), measured over the steady-state region
OVERHEAD_JOBS = 4_000
OVERHEAD_ROUNDS = 5
MAX_OVERHEAD_PCT = 5.0
#: crash lands in the middle 60% of the reference run's event stream
CRASH_WINDOW = (0.2, 0.8)


def _build(n_nodes: int, *, persist: bool = True, health: bool = True,
           oracle_rate: float | None = None):
    cluster = Cluster.build(
        SeparationConfig(), n_compute=n_nodes,
        users=("alice", "bob"), projects={"fusion": ("alice", "bob")})
    cluster.scheduler.config.requeue_on_node_fail = True
    if persist:
        attach_persistence(cluster)
    if health:
        attach_health(cluster).start()
    if oracle_rate is not None:
        attach_oracle(cluster, sampling_rate=oracle_rate, fail_fast=True)
    return cluster


def _submit_workload(cluster, n_jobs: int) -> None:
    """The E24-shaped stream: staggered arrivals, varied durations."""
    for i in range(n_jobs):
        cluster.submit("alice" if i % 2 else "bob", name=f"e30-{i}",
                       ntasks=1, duration=11.3 + (i % 37) * 1.7 + i * 0.013,
                       at=i * 0.73)


def _drain(cluster) -> int:
    """Step the engine to quiescence; returns the event count."""
    steps = 0
    while cluster.engine.step():
        steps += 1
    return steps


def _oracle_stats(cluster) -> tuple[int, int]:
    oracle = getattr(cluster, "oracle", None)
    if oracle is None:
        return 0, 0
    checks = sum(row["checks"] for row in oracle.summary())
    return checks, len(oracle.violations)


def recovery_point(n_nodes: int, *, oracle_rate: float,
                   churn: bool) -> dict:
    """One crash→recover→drain cycle vs its uncrashed reference."""
    # reference run: no crash, same seed, same workload
    ref = _build(n_nodes, oracle_rate=oracle_rate)
    _submit_workload(ref, N_JOBS)
    if churn:
        ref.chaos().crash_node("c2", for_=40.0)
    total = _drain(ref)
    ref_digest = state_digest(ref)

    # crashed run: identical trajectory until the seeded crash point
    rng = random.Random(SEED + n_nodes)
    crash_at = rng.randrange(int(total * CRASH_WINDOW[0]),
                             int(total * CRASH_WINDOW[1]))
    run = _build(n_nodes, oracle_rate=oracle_rate)
    _submit_workload(run, N_JOBS)
    if churn:
        run.chaos().crash_node("c2", for_=40.0)
    steps = 0
    while steps < crash_at and run.engine.step():
        steps += 1
    run.chaos().crash_scheduler()
    report = run.recover()
    _drain(run)

    digest_identical = state_digest(run) == ref_digest
    assert report.identical, \
        f"{n_nodes} nodes: recovery diverged at event {crash_at}"
    assert digest_identical, \
        f"{n_nodes} nodes: post-recovery trajectory diverged"
    checks, violations = _oracle_stats(run)
    assert violations == 0, f"{n_nodes} nodes: {violations} violation(s)"
    return {
        "n_nodes": n_nodes,
        "n_jobs": N_JOBS,
        "total_events": total,
        "crash_at": crash_at,
        "recovery_identical": report.identical,
        "digest_identical": digest_identical,
        "recovery_s": round(report.duration_s, 5),
        "replayed": report.replayed,
        "snapshot_seq": report.snapshot_seq,
        "journal_seq": report.journal_seq,
        "purged_verdicts": report.purged_verdicts,
        "oracle_rate": oracle_rate,
        "oracle_checks": checks,
        "oracle_violations": violations,
    }


def _e24_workload(n_nodes: int, cores: int, n_jobs: int):
    """E24's job stream shape: Poisson arrivals at ~95% of cluster
    capacity punctuated by same-instant array bursts, so steady state
    has a formed queue — the dispatch regime the <5% bound is about."""
    rng = random.Random(SEED)
    rate = (n_nodes * cores / (2.0 * 1.5 * 27.5)) * 0.95
    size = max(48, (n_nodes * 3) // 8)
    every = size * 25 // 8
    gap_rate = rate * (every - size + 1) / every
    t, i, jobs = 0.0, 0, []
    while i < n_jobs:
        t += rng.expovariate(gap_rate)
        burst = size if (i and i % every == 0) else 1
        for _ in range(min(burst, n_jobs - i)):
            jobs.append((i % 2, rng.choice([1, 1, 2, 4]),
                         rng.choice([1, 2]), rng.uniform(5.0, 50.0), t))
            i += 1
    return jobs


def _run_overhead_trial(mode: str):
    """One E24-shaped run; returns (steady CPU s, steady events, cluster,
    steady-region journal start seq)."""
    cluster = _build(SMOKE_NODES, persist=False, health=False)
    if mode != "bare":
        attach_persistence(
            cluster, snapshot_every=10**9 if mode == "journal" else None)
    cores = next(iter(cluster.scheduler.nodes.values())).total_cores
    for u, nt, cpt, dur, at in _e24_workload(
            SMOKE_NODES, cores, OVERHEAD_JOBS):
        cluster.submit("alice" if u else "bob", name="j", ntasks=nt,
                       cores_per_task=cpt, duration=dur, at=at)
    eng = cluster.engine
    warm = OVERHEAD_JOBS * 2 * 2 // 5
    while eng.events_processed < warm and eng.step():
        pass
    j0 = cluster.persist.journal.seq if mode != "bare" else 0
    gc.collect()
    gc.disable()
    t0 = time.process_time()
    eng.run()
    cpu = time.process_time() - t0
    gc.enable()
    return cpu, eng.events_processed - warm, cluster, j0


def _measure_writer_us(cluster) -> dict:
    """Tight-loop cost of each hot-path journal writer, in us/record.

    Runs the *real* writers against live finished jobs from the run just
    measured (real spec attributes, real allocation rows) into fresh
    in-memory stores.  200k-iteration loops amortise timer and host
    noise away — unlike an end-to-end A/B, whose ~1us/record signal
    drowns in multi-percent run-to-run variance on shared hosts.
    """
    from repro.persist.journal import Journal
    from repro.sched.jobs import JobState
    job = next(j for j in cluster.scheduler.jobs.values()
               if j.allocations)
    writers = {
        "submit": lambda j_: j_.job_submitted(job),
        "arrive": lambda j_: j_.job_arrived(job),
        "dispatch": lambda j_: j_.job_started(job, 8, 8),
        "finish": lambda j_: j_.job_finished(job, JobState.COMPLETED),
        "requeue": lambda j_: j_.job_requeued(job),
        "cancel": lambda j_: j_.job_cancelled(job),
    }
    out = {}
    n = 200_000
    for op, call in writers.items():
        best = float("inf")
        for _ in range(3):
            jn = Journal(MemoryRunStore(), clock=cluster.engine,
                         snapshot_every=10**9)
            gc.collect()
            gc.disable()
            t0 = time.process_time()
            for _ in range(n):
                call(jn)
            best = min(best, time.process_time() - t0)
            gc.enable()
        out[op] = best / n * 1e6
    return out


def overhead_section() -> dict:
    """Journal cost on the E24 hot path (steady state, formed queue).

    The <5% gate compares the journal's per-event tax against the bare
    per-event cost.  The tax is built bottom-up: the real steady-state
    op mix (from a journaled run of the same workload) weighted by
    tight-loop per-record writer costs measured on live objects.  A
    direct end-to-end A/B is also recorded — informational only, because
    a ~1us/record signal against ~40us/event cannot be resolved through
    multi-percent host variance (both wall and CPU clock) on shared
    runners; the component measurement is noise-immune and slightly
    conservative (loop overhead bills to the journal).
    """
    from collections import Counter

    bare_cpu = []
    for _ in range(OVERHEAD_ROUNDS):
        cpu, events, _, _ = _run_overhead_trial("bare")
        bare_cpu.append(cpu)
    per_event_us = min(bare_cpu) / events * 1e6

    journal_cpu, _, jcluster, j0 = _run_overhead_trial("journal")
    records = jcluster.persist.journal.records(j0)
    mix = Counter(r["op"] for r in records)
    writer_us = _measure_writer_us(jcluster)
    fallback = writer_us["arrive"]  # thinnest record ~= generic append
    tax_us = sum(count * writer_us.get(op, fallback)
                 for op, count in mix.items())
    journal_us_per_event = tax_us / events
    journal_pct = journal_us_per_event / per_event_us * 100.0

    default_cpu, _, _, _ = _run_overhead_trial("default")
    assert journal_pct < MAX_OVERHEAD_PCT, \
        f"journal overhead {journal_pct:.2f}% >= {MAX_OVERHEAD_PCT}%"
    return {
        "n_nodes": SMOKE_NODES,
        "n_jobs": OVERHEAD_JOBS,
        "rounds": OVERHEAD_ROUNDS,
        "steady_events": events,
        "bare_per_event_us": round(per_event_us, 3),
        "journal_us_per_event": round(journal_us_per_event, 3),
        "journal_overhead_pct": round(journal_pct, 3),
        "writer_us": {k: round(v, 3) for k, v in writer_us.items()},
        "steady_op_mix": dict(mix),
        "ab_bare_cpu_s": round(min(bare_cpu), 4),
        "ab_journal_cpu_s": round(journal_cpu, 4),
        "ab_default_cpu_s": round(default_cpu, 4),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
    }


def run_e30(full: bool) -> dict:
    results: dict = {}
    # smoke: full-sampling fail-fast oracle + node churn during the run
    results["smoke"] = recovery_point(SMOKE_NODES, oracle_rate=1.0,
                                      churn=True)
    results["overhead"] = overhead_section()
    series = [results["smoke"]]
    if full:
        for n in SCALES[1:]:
            # sampled oracle at scale (full sampling stays on the smoke
            # gate); no churn so the sweep isolates node-state restore
            series.append(recovery_point(n, oracle_rate=0.05,
                                         churn=False))
    results["scale_series"] = series
    write_result("e30_recovery", results, full=full)
    write_series_csv(
        "e30_recovery_vs_scale",
        ["n_nodes", "recovery_s", "replayed", "journal_seq"],
        [[p["n_nodes"], p["recovery_s"], p["replayed"], p["journal_seq"]]
         for p in series])
    return results


def _report(results: dict) -> None:
    print_table(
        "E30 recovery time vs cluster size",
        ["nodes", "events", "crash@", "recover (s)", "replayed",
         "identical", "oracle"],
        [[p["n_nodes"], p["total_events"], p["crash_at"],
          p["recovery_s"], p["replayed"],
          "yes" if p["digest_identical"] else "NO",
          f"{p['oracle_checks']} checks / {p['oracle_violations']} viol"]
         for p in results["scale_series"]])
    ov = results["overhead"]
    print(f"journal overhead on the E24 hot path: "
          f"{ov['journal_overhead_pct']}% (gate < "
          f"{ov['max_overhead_pct']}%) — "
          f"{ov['journal_us_per_event']}us/event of journal tax on a "
          f"{ov['bare_per_event_us']}us/event bare path; "
          f"writer us/record: {ov['writer_us']}")


def test_e30_recovery_smoke(benchmark):
    """CI smoke: crash/recover identity at 64 nodes + the <5% journal
    overhead gate (full 256/1024/4096 sweep with E30_FULL=1)."""
    full = os.environ.get("E30_FULL") == "1"
    results = benchmark.pedantic(run_e30, args=(full,),
                                 rounds=1, iterations=1)
    _report(results)
    smoke = results["smoke"]
    benchmark.extra_info["e30"] = {
        "recovery_s": smoke["recovery_s"],
        "journal_overhead_pct":
            results["overhead"]["journal_overhead_pct"],
    }
    assert smoke["recovery_identical"]
    assert smoke["digest_identical"]
    assert smoke["oracle_checks"] > 0
    assert smoke["oracle_violations"] == 0
    assert results["overhead"]["journal_overhead_pct"] < MAX_OVERHEAD_PCT
    if full:
        assert len(results["scale_series"]) == len(SCALES)
        for p in results["scale_series"]:
            assert p["digest_identical"] and p["oracle_violations"] == 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    res = run_e30(full=os.environ.get("E30_SMOKE") != "1")
    _report(res)
    print(f"[e30] total wall: {time.perf_counter() - t0:.0f}s")
