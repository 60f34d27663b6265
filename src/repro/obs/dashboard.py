"""The ops dashboard: one report merging metrics, alerts, and posture.

Operations staff in the paper watch three things at once: what the
enforcement points are deciding (metrics), who is probing (the
:func:`~repro.monitor.events.detect_probe_patterns` heuristic over the
security event log), and what each principal's denial history looks like
(the per-user posture the CVE-2020-27746 reconstruction needed).
:func:`ops_dashboard` renders all three as one Markdown document from live
objects, so the view can never drift from the system it describes.
"""

from __future__ import annotations

from collections import defaultdict

from repro.markdown import md_table
from repro.monitor.events import (
    DENY_KINDS,
    SecurityEventLog,
    detect_probe_patterns,
)

#: (section label, metric family) pairs the enforcement table walks, in
#: paper-area order.
_ENFORCEMENT_FAMILIES = (
    ("syscall façade", "syscalls_total"),
    ("UBF", "ubf_verdicts_total"),
    ("PAM", "pam_decisions_total"),
    ("scheduler", "jobs_submitted"),
    ("scheduler", "jobs_started"),
    ("scheduler", "sched_queue_depth"),
    ("GPU", "gpu_grants_total"),
    ("GPU", "gpu_scrubs_total"),
    ("portal", "portal_requests_total"),
)


def _series_label(metric) -> str:
    if not metric.labels:
        return metric.name
    inner = ", ".join(f"{k}={v}" for k, v in metric.labels)
    return f"{metric.name} ({inner})"


def _username(userdb, uid: int) -> str:
    if uid < 0:
        return "(unauthenticated)"
    if userdb is None:
        return str(uid)
    try:
        return userdb.user(uid).name
    except Exception:
        return str(uid)


def denial_posture(log: SecurityEventLog, userdb=None) -> list[dict]:
    """Per-principal denial summary rows, noisiest first.

    Each row: ``user``, ``uid``, ``denials``, ``kinds`` (kind → count),
    ``distinct_targets``, ``first``/``last`` event times.  Only the
    :data:`~repro.monitor.events.DENY_KINDS` count.
    """
    per_uid: dict[int, list] = defaultdict(list)
    for e in log.events:
        if e.kind in DENY_KINDS:
            per_uid[e.subject_uid].append(e)
    rows = []
    for uid, evs in per_uid.items():
        kinds: dict[str, int] = defaultdict(int)
        for e in evs:
            kinds[e.kind.value] += 1
        rows.append({
            "user": _username(userdb, uid),
            "uid": uid,
            "denials": len(evs),
            "kinds": dict(sorted(kinds.items())),
            "distinct_targets": len({e.target for e in evs}),
            "first": min(e.time for e in evs),
            "last": max(e.time for e in evs),
        })
    return sorted(rows, key=lambda r: (-r["denials"], r["uid"]))


def shard_posture(report, metrics) -> str:
    """Render the per-shard posture of a sharded simulation (Markdown).

    Takes the :class:`~repro.sim.shard.ShardReport` a
    :meth:`~repro.sim.shard.ShardedEngine.run` returned and the engine's
    :class:`~repro.sim.metrics.MetricSet` — the same pairing E28 records —
    and shows what operations staff would watch on a sharded run: per-shard
    progress and health (fenced shards first), cross-shard traffic by
    message kind, and the merge-barrier wait distribution (time shards
    spend stalled on the slowest peer — the scalability signal).
    """
    lines = ["## Sharded simulation posture", ""]
    state = "DEGRADED (fenced shards)" if report.fenced_shards else "ok"
    lines.append(
        f"{len(report.per_shard) + len(report.fenced_shards)} shards · "
        f"{len(report.zones)} zones reporting · "
        f"{report.epochs} epochs to t={report.final_time:g}s · "
        f"{report.total_events} events "
        f"({report.events_per_sec:,.0f}/s) · state {state}")
    lines.append("")
    rows: list[list[object]] = []
    for sid in sorted(set(report.per_shard) | set(report.fenced_shards)):
        if sid in report.fenced_shards:
            rows.append([sid, "FENCED", "-", "-", "-"])
            continue
        info = report.per_shard[sid]
        rate = metrics.gauge("shard_events_per_sec", shard=sid).value
        pend = metrics.gauge("shard_pending_events", shard=sid).value
        zones = ",".join(str(z) for z in info["zones"])
        rows.append([sid, "up", info["events"], f"{rate:,.0f}",
                     f"{zones} ({int(pend)} pending)"])
    lines.append(md_table(
        ["shard", "state", "events", "events/s", "zones"], rows))
    lines.append("")
    traffic = [[_series_label(m), int(m.value)]
               for m in sorted(metrics.family("shard_msgs_total"),
                               key=lambda m: (m.name, m.labels))]
    dropped = report.msgs_dropped_fenced
    lines.append(
        f"Cross-shard messages: {report.msgs_routed} routed"
        + (f" · {dropped} dropped to fenced shards" if dropped else ""))
    if traffic:
        lines.append("")
        lines.append(md_table(["series", "value"], traffic))
    lines.append("")
    wait = metrics.samples("shard_barrier_wait").summary()
    if wait["n"]:
        lines.append(
            f"Merge-barrier wait (s): n={wait['n']} "
            f"mean={wait['mean']:.4f} p50={wait['p50']:.4f} "
            f"p95={wait['p95']:.4f} max={wait['max']:.4f}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def campaign_posture(result) -> str:
    """Render one attack campaign's outcome as a dashboard section.

    Takes the :class:`~repro.attacks.runner.CampaignResult` a
    :class:`~repro.attacks.runner.CampaignRunner` returned — the security
    staff view of a red-team sweep: headline counts (silent crossings
    first), then per-attack outcome with the attributed blocking mechanism
    and the causal audit trace to pull with ``audit.by_trace``.
    """
    lines = [f"## Attack campaign posture — preset `{result.preset}`", ""]
    c = result.counts()
    state = (f"RED ({c['SUCCEEDED']} silent crossings)" if c["SUCCEEDED"]
             else (f"detected-only ({c['DETECTED']})" if c["DETECTED"]
                   else "ok"))
    lines.append(f"{len(result.outcomes)} attacks · "
                 f"{c['BLOCKED']} blocked · {c['DETECTED']} detected · "
                 f"{c['SUCCEEDED']} succeeded · state {state}")
    lines.append("")
    order = {"SUCCEEDED": 0, "DETECTED": 1, "BLOCKED": 2}
    rows: list[list[object]] = []
    for r in sorted(result.outcomes,
                    key=lambda r: (order[r.outcome.value], r.attack_id)):
        rows.append([r.attack_id, r.name, r.outcome.value,
                     r.blocked_by or "-", r.audit_trace or "-",
                     r.invariant, r.deny_records])
    lines.append(md_table(
        ["attack", "name", "outcome", "blocked by", "trace", "invariant",
         "denials"], rows))
    return "\n".join(lines).rstrip() + "\n"


def recovery_posture(cluster) -> str:
    """Render the control-plane persistence/recovery section (Markdown).

    Shows what an operator needs to judge crash readiness: whether the
    write-ahead journal is armed and on which backend, how stale the
    latest snapshot is (= the replay suffix a crash right now would pay),
    the crash/recovery counters, and — after a recovery — the last
    :class:`~repro.persist.recovery.RecoveryReport`'s verdict.
    """
    lines = ["## Control-plane recovery posture", ""]
    spine = getattr(cluster, "persist", None)
    if spine is None:
        lines.append("Persistence not armed (run `attach_persistence`) — "
                     "a control-plane crash is unrecoverable.")
        return "\n".join(lines) + "\n"
    journal = spine.journal
    snap = spine.store.get("snapshot")
    snap_seq = snap["seq"] if snap else 0
    state = "CRASHED (recovery pending)" \
        if getattr(cluster.scheduler, "crashed", False) else "ok"
    lines.append(
        f"journal `{type(spine.store).__name__}` at seq {journal.seq} · "
        f"snapshot at seq {snap_seq} "
        f"(replay suffix {journal.seq - snap_seq}, "
        f"cadence {journal.snapshot_every}) · state {state}")
    metrics = cluster.metrics
    crashes = int(metrics.counter("sched_crashes_total").value)
    recoveries = int(metrics.counter("sched_recoveries_total").value)
    if crashes or recoveries:
        lines.append("")
        lines.append(f"{crashes} crash(es) · {recoveries} recover(ies)")
    report = spine.last_report
    if report is not None:
        lines.append("")
        lines.append(md_table(
            ["last recovery", "value"],
            [["digest", "intact" if report.identical else "DIVERGED"],
             ["replayed records", report.replayed],
             ["from snapshot seq", report.snapshot_seq],
             ["purged UBF verdicts", report.purged_verdicts],
             ["userdb generation", report.generation],
             ["wall time (s)", f"{report.duration_s:.4f}"]]))
    return "\n".join(lines) + "\n"


def ops_dashboard(cluster, *, window: float | None = None,
                  now: float | None = None, min_denials: int = 5,
                  min_distinct_targets: int = 3) -> str:
    """Render the operations dashboard for *cluster* (Markdown).

    Works with whatever is attached: metrics are always available; the
    security-event sections appear once
    :func:`~repro.monitor.wiring.instrument_cluster` has run, and the trace
    section once :func:`~repro.obs.telemetry.attach_telemetry` has.
    ``window``/``now`` scope the probe-alert scan (half-open
    ``[now - window, now)``, the module-wide convention).
    """
    cfg = cluster.config
    metrics = cluster.metrics
    lines = [f"# Ops dashboard — configuration '{cfg.name}'", ""]
    lines.append(
        f"Virtual time {cluster.engine.now:g}s · "
        f"{len(cluster.login_nodes)} login / "
        f"{len(cluster.compute_nodes)} compute / "
        f"{len(cluster.dtn_nodes)} dtn nodes · "
        f"queue depth {int(metrics.gauge('sched_queue_depth').value)} · "
        f"{len(cluster.scheduler.running())} jobs running")
    lines.append("")

    # -- enforcement metrics -----------------------------------------------
    lines += ["## Enforcement metrics", ""]
    rows: list[list[object]] = []
    seen: set[int] = set()
    for area, family in _ENFORCEMENT_FAMILIES:
        for metric in sorted(metrics.family(family),
                             key=lambda m: (m.name, m.labels)):
            if id(metric) in seen:
                continue
            seen.add(id(metric))
            rows.append([area, _series_label(metric), int(metric.value)])
    if rows:
        lines.append(md_table(["area", "series", "value"], rows))
    else:
        lines.append("No enforcement metrics recorded yet.")
    lines.append("")
    wait = metrics.samples("wait_time").summary()
    if wait["n"]:
        lines.append(
            f"Scheduler wait (s): n={wait['n']} mean={wait['mean']:.1f} "
            f"p50={wait['p50']:.1f} p95={wait['p95']:.1f} "
            f"p99={wait['p99']:.1f} max={wait['max']:.1f}")
        lines.append("")

    # -- security events ---------------------------------------------------
    log = getattr(cluster, "security_log", None)
    lines += ["## Security events", ""]
    if log is None:
        lines.append("Event log not attached (run `instrument_cluster`).")
        lines.append("")
    else:
        counts = log.counts()
        if counts:
            lines.append(md_table(
                ["event kind", "count"],
                [[k.value, v] for k, v in sorted(
                    counts.items(), key=lambda kv: kv[0].value)]))
        else:
            lines.append("No security events recorded.")
        lines.append("")

        # -- probe alerts --------------------------------------------------
        lines += ["## Probe alerts", ""]
        alerts = detect_probe_patterns(
            log, min_denials=min_denials,
            min_distinct_targets=min_distinct_targets,
            window=window, now=now)
        if alerts:
            lines.append(md_table(
                ["user", "denials", "distinct targets", "kinds",
                 "active (s)"],
                [[_username(cluster.userdb, a.subject_uid), a.denials,
                  a.distinct_targets, "+".join(a.kinds),
                  f"{a.first_time:g}–{a.last_time:g}"] for a in alerts]))
        else:
            lines.append("No probe-like activity detected.")
        lines.append("")

        # -- per-user posture ----------------------------------------------
        lines += ["## Per-user denial posture", ""]
        posture = denial_posture(log, cluster.userdb)
        if posture:
            lines.append(md_table(
                ["user", "denials", "by kind", "distinct targets"],
                [[r["user"], r["denials"],
                  ", ".join(f"{k}:{v}" for k, v in r["kinds"].items()),
                  r["distinct_targets"]] for r in posture]))
        else:
            lines.append("No denials recorded for any principal.")
        lines.append("")

    # -- separation oracle --------------------------------------------------
    lines += ["## Separation oracle", ""]
    oracle = getattr(cluster, "oracle", None)
    if oracle is None:
        lines.append("Oracle not attached (run `attach_oracle`).")
        lines.append("")
    else:
        lines.append(
            f"sampling_rate={oracle.sampling_rate:g} · "
            f"shadow_rate={oracle.shadow_rate:g} · "
            f"fail_fast={oracle.fail_fast} · "
            f"{oracle.total_checks} checks "
            f"({oracle.shadow_checks} shadow-reference) · "
            f"{len(oracle.violations)} violations")
        lines.append("")
        lines.append(md_table(
            ["invariant", "paper §", "title", "checks", "violations"],
            [[r["id"], r["section"], r["title"], r["checks"],
              r["violations"]] for r in oracle.summary()]))
        lines.append("")
        if oracle.violations:
            lines.append(md_table(
                ["time", "invariant", "subject", "detail"],
                [[f"{v.time:g}", v.invariant, v.subject, v.detail]
                 for v in oracle.violations]))
            lines.append("")

    # -- alerts ------------------------------------------------------------
    forensics = getattr(cluster, "forensics", None)
    lines += ["## Alerts", ""]
    if forensics is None:
        lines.append("Forensic plane not attached (run `attach_forensics`).")
        lines.append("")
    else:
        engine = forensics.alerts
        lines.append(
            f"{len(engine.rules)} rules armed · "
            f"{len(engine.alerts)} alert(s) fired")
        lines.append("")
        if engine.alerts:
            lines.append(md_table(
                ["time", "rule", "severity", "subject", "detail"],
                [[f"{a.time:g}", a.rule, a.severity,
                  _username(cluster.userdb, a.subject)
                  if a.subject >= 0 else "-", a.detail]
                 for a in engine.alerts]))
            lines.append("")

        # -- forensic audit plane ------------------------------------------
        lines += ["## Forensic audit plane", ""]
        audit = forensics.audit
        by_mech: dict[str, int] = defaultdict(int)
        unresolved = 0
        for r in audit.records:
            by_mech[r.mechanism] += 1
            if r.trace_id is None and r.uid >= 0:
                unresolved += 1
        lines.append(
            f"{len(audit.records)} audit records · "
            f"{len(forensics.registry.jobs)} job contexts · "
            f"{len(forensics.registry.sessions)} session contexts · "
            f"{unresolved} unattributed principal records")
        lines.append("")
        if by_mech:
            lines.append(md_table(
                ["mechanism", "records"],
                [[m, n] for m, n in sorted(by_mech.items())]))
            lines.append("")
        flight = forensics.flight
        if flight.dumps:
            lines.append(md_table(
                ["dump", "time", "trigger", "node", "detail"],
                [[d.dump_id, f"{d.time:g}", d.trigger, d.node or "-",
                  d.detail] for d in flight.dumps]))
            lines.append("")
        else:
            lines.append("No flight-recorder dumps captured.")
            lines.append("")

    # -- control-plane recovery posture ------------------------------------
    lines.append(recovery_posture(cluster))

    # -- degradation posture -----------------------------------------------
    lines += ["## Degradation posture", ""]
    faults = getattr(cluster.fabric, "faults", None)
    active = faults.active() if faults is not None else []
    if active:
        lines.append(md_table(
            ["fault", "host", "detail"],
            [[f.kind.value, f.host, f.describe()] for f in active]))
    else:
        lines.append("No active faults.")
    lines.append("")
    dead = sorted(name for name, d in cluster.ubf_daemons.items()
                  if not d.alive)
    if dead:
        lines.append(f"UBF daemons down: {', '.join(dead)} "
                     "(kernel fails closed for NEW connections there).")
        lines.append("")
    health = getattr(cluster, "health", None)
    if health is not None:
        counts = health.summary()
        lines.append(
            "Node health: " + " · ".join(
                f"{counts[s]} {s}" for s in ("up", "suspect", "down")))
        fenced = sorted(n.name for n in cluster.scheduler.nodes.values()
                        if n.fenced or n.needs_remediation)
        if fenced:
            lines.append(f"Awaiting remediation: {', '.join(fenced)}.")
        lines.append("")
    rows = []
    for family in ("ubf_degraded_verdicts", "ubf_ident_retries",
                   "ubf_ident_timeouts", "ident_query_failures",
                   "conntrack_evictions_total", "ubf_crashes",
                   "ubf_restarts", "fault_unreachable_drops",
                   "fault_packets_dropped", "fault_heartbeats_dropped",
                   "node_state_transitions_total", "node_fencings_total",
                   "node_residue_total", "node_remediations_total",
                   "node_rejoins_total", "node_flap_quarantines_total",
                   "dead_host_purges_total", "jobs_requeued",
                   "jobs_requeue_exhausted", "hook_failures_total",
                   "epilog_skipped_fenced", "ubf_cache_purged_total",
                   "ubf_cache_evictions_total"):
        for metric in sorted(metrics.family(family),
                             key=lambda m: (m.name, m.labels)):
            rows.append([_series_label(metric), int(metric.value)])
    if rows:
        lines.append(md_table(["series", "value"], rows))
        lines.append("")

    # -- traces ------------------------------------------------------------
    telemetry = getattr(cluster, "telemetry", None)
    if telemetry is not None and telemetry.tracer.spans:
        lines += ["## Trace activity", ""]
        by_name: dict[str, list[float]] = defaultdict(list)
        for s in telemetry.tracer.finished_spans():
            by_name[s.name].append(s.duration)
        lines.append(md_table(
            ["span", "count", "mean duration (s)"],
            [[name, len(ds), f"{sum(ds) / len(ds):.3f}"]
             for name, ds in sorted(by_name.items())]))
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
