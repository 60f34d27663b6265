"""Tests: ops dashboard rendering and per-user denial posture."""

import pytest

from repro import Cluster, LLSC
from repro.kernel.errors import AccessDenied, KernelError
from repro.monitor import audited_session, instrument_cluster
from repro.monitor.events import (
    EventKind,
    SecurityEventLog,
    detect_probe_patterns,
)
from repro.obs import attach_telemetry, denial_posture, ops_dashboard


@pytest.fixture
def cluster():
    c = Cluster.build(LLSC, n_compute=3, gpus_per_node=1,
                      users=("alice", "bob", "mallory"), staff=("sam",))
    attach_telemetry(c)
    instrument_cluster(c)
    return c


def busy_day(cluster):
    """A job, a probing mallory, and a portal auth failure."""
    cluster.submit("alice", duration=10.0, gpus_per_task=1)
    cluster.run(until=100.0)
    mallory = cluster.login("mallory")
    msys = audited_session(mallory, cluster.security_log)
    for victim in ("alice", "bob"):
        for f in ("data", "keys", "notes"):
            try:
                msys.open_read(f"/home/{victim}/{f}")
            except KernelError:
                pass
    with pytest.raises(AccessDenied):
        cluster.portal.connect("tok-bogus", 1)


class TestDenialPosture:
    def test_rows_sorted_noisiest_first(self, cluster):
        busy_day(cluster)
        rows = denial_posture(cluster.security_log, cluster.userdb)
        assert rows[0]["user"] == "mallory"
        assert rows[0]["denials"] == 6
        assert rows[0]["distinct_targets"] == 6
        assert rows[0]["kinds"] == {"fs-deny": 6}
        denials = [r["denials"] for r in rows]
        assert denials == sorted(denials, reverse=True)

    def test_admin_events_excluded(self):
        log = SecurityEventLog()
        log.emit(1.0, EventKind.ADMIN, 1000, "n1", "seepid")
        assert denial_posture(log) == []

    def test_posture_and_probe_heuristic_count_the_same_denials(self):
        """An ATTACK marker is not a denial: its probe's denials are
        recorded under their own kinds."""
        log = SecurityEventLog()
        log.emit(1.0, EventKind.FS_DENY, 1002, "/home/alice/keys")
        log.emit(2.0, EventKind.ATTACK, 1002, "probe:fs-cross-read")
        (row,) = denial_posture(log)
        assert (row["denials"], row["kinds"]) == (1, {"fs-deny": 1})
        (alert,) = detect_probe_patterns(log, min_denials=1,
                                         min_distinct_targets=1)
        assert alert.denials == 1

    def test_unauthenticated_principal_labeled(self, cluster):
        busy_day(cluster)
        rows = denial_posture(cluster.security_log, cluster.userdb)
        anon = [r for r in rows if r["uid"] == -1]
        assert anon and anon[0]["user"] == "(unauthenticated)"
        assert anon[0]["kinds"] == {"portal-deny": 1}


class TestDashboard:
    def test_all_sections_render(self, cluster):
        busy_day(cluster)
        text = ops_dashboard(cluster)
        for section in ("# Ops dashboard", "## Enforcement metrics",
                        "## Security events", "## Probe alerts",
                        "## Per-user denial posture", "## Trace activity"):
            assert section in text, f"missing {section}"

    def test_probe_alert_shown(self, cluster):
        busy_day(cluster)
        text = ops_dashboard(cluster)
        assert "mallory" in text.split("## Probe alerts")[1]

    def test_enforcement_table_covers_areas(self, cluster):
        busy_day(cluster)
        table = ops_dashboard(cluster).split("## Enforcement metrics")[1] \
            .split("##")[0]
        for series in ("syscalls_total", "pam_decisions_total",
                       "gpu_grants_total", "gpu_scrubs_total",
                       "portal_requests_total", "jobs_submitted"):
            assert series in table, f"missing {series}"

    def test_window_scopes_probe_alerts(self, cluster):
        busy_day(cluster)  # all denials happen at t<=100
        text = ops_dashboard(cluster, window=10.0, now=10_000.0)
        assert "No probe-like activity detected." in text

    def test_renders_without_instrumentation(self):
        bare = Cluster.build(LLSC, n_compute=1, users=("alice",))
        text = ops_dashboard(bare)
        assert "Event log not attached" in text
        assert "## Trace activity" not in text


class TestShardPosture:
    """Per-shard posture section for sharded simulation runs (E28)."""

    def _sharded_run(self, churn=0.0):
        from repro.obs import shard_posture
        from repro.sched import make_zone_factories
        from repro.sim import ShardedEngine
        eng = ShardedEngine(
            make_zone_factories(4, seed=7, nodes_per_zone=4,
                                jobs_per_zone=60, chunk_jobs=30,
                                churn_per_chunk=churn),
            n_shards=2, window=5.0)
        report = eng.run()
        return shard_posture(report, eng.metrics), report

    def test_renders_shard_table_and_traffic(self):
        text, report = self._sharded_run()
        assert "## Sharded simulation posture" in text
        assert "state ok" in text
        assert f"{report.total_events} events" in text
        for sid in (0, 1):
            assert f"| {sid} | up |" in text
        assert "shard_msgs_total (kind=job_transfer)" in text
        assert "Merge-barrier wait (s):" in text

    def test_fenced_shard_surfaces_as_degraded(self):
        from repro.obs import shard_posture
        from repro.sim import ShardedEngine
        from repro.sim.metrics import MetricSet
        import functools
        from tests.sim.test_sharded import TokenZone
        facs = [functools.partial(TokenZone, z, 4) for z in range(4)]
        facs[3] = functools.partial(TokenZone, 3, 4, crash_at=10.0)
        eng = ShardedEngine(facs, n_shards=2, window=5.0, workers=2,
                            metrics=MetricSet())
        report = eng.run(max_epochs=30)
        text = shard_posture(report, eng.metrics)
        assert "DEGRADED (fenced shards)" in text
        assert "| 1 | FENCED |" in text
        assert "| 0 | up |" in text
