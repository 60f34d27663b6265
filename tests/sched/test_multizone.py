"""Multi-zone cluster zones under the sharded engine (E28 substrate).

Pins the cluster-level determinism contract — every sharding and worker
count produces the identical per-zone trace digests — plus the
long-horizon hygiene satellites: job-table pruning on observed finishes,
bounded accounting retention with exact grand totals, and churn-driven
fencing/requeue staying deterministic.
"""

from __future__ import annotations

from repro.kernel import LinuxNode, UserDB
from repro.sched import (
    AccountingDB,
    ComputeNode,
    JobSpec,
    Scheduler,
    ZoneConfig,
    ZoneSim,
    make_zone_factories,
)
from repro.sched.jobs import JobState
from repro.sim import Engine, ShardedEngine


def _run(facs, n_shards=1, workers=0, window=5.0):
    return ShardedEngine(facs, n_shards=n_shards, window=window,
                         workers=workers).run()


class TestZoneDeterminism:
    def test_shard_and_worker_invariance(self):
        facs = make_zone_factories(4, seed=7, nodes_per_zone=8,
                                   jobs_per_zone=120, chunk_jobs=40)
        ref = _run(facs, n_shards=1)
        assert ref.ok and ref.total_events > 4 * 120
        for k in (2, 4):
            rep = _run(facs, n_shards=k)
            assert rep.zones == ref.zones, f"K={k} diverged"
            assert rep.total_events == ref.total_events
        mp = _run(facs, n_shards=4, workers=2)
        assert mp.zones == ref.zones
        assert mp.digest == ref.digest

    def test_churn_and_oracle_stay_deterministic(self):
        facs = make_zone_factories(4, seed=11, nodes_per_zone=8,
                                   jobs_per_zone=150, chunk_jobs=30,
                                   churn_per_chunk=0.5, oracle_rate=0.1)
        ref = _run(facs, n_shards=1)
        rep = _run(facs, n_shards=4, workers=2)
        assert rep.digest == ref.digest
        stats = {s["zone"]: s for s in ref.zone_stats}
        assert sum(s["fail_injections"] for s in stats.values()) > 0
        assert sum(s["purges_seen"] for s in stats.values()) > 0
        assert sum(s["oracle_checks"] for s in stats.values()) > 0
        assert all(s["oracle_violations"] == 0 for s in stats.values())

    def test_cross_zone_traffic_flows(self):
        facs = make_zone_factories(3, seed=3, nodes_per_zone=8,
                                   jobs_per_zone=200, chunk_jobs=50,
                                   transfer_frac=0.2, probe_frac=0.1)
        rep = _run(facs)
        totals = {s["zone"]: s for s in rep.zone_stats}
        assert sum(s["transfers_in"] for s in totals.values()) \
            == sum(s["transfers_out"] for s in totals.values()) > 0
        assert sum(s["ident_served"] for s in totals.values()) > 0
        assert sum(s["portal_served"] for s in totals.values()) > 0
        # every transferred job ran somewhere: zone finish totals cover
        # local + transferred submissions
        assert sum(s["finished"] for s in totals.values()) == 3 * 200

    def test_zone_alone_runs_without_peers(self):
        cfg = ZoneConfig(zone_id=0, n_zones=1, seed=5, n_nodes=4,
                         n_jobs=50, chunk_jobs=25)
        rep = _run([lambda: ZoneSim(cfg)])
        assert rep.ok
        assert rep.zones[0]["finished"] == 50
        assert rep.zones[0]["transfers_out"] == 0


class TestLongHorizonHygiene:
    def test_finished_jobs_pruned_from_job_table(self):
        facs = make_zone_factories(1, seed=9, nodes_per_zone=4,
                                   jobs_per_zone=300, chunk_jobs=100)
        zone = facs[0]()
        eng = Engine()
        from repro.sim.shard import Outbox
        box = Outbox(0, min_latency=5.0)
        box.now = lambda: eng.now
        zone.bind(eng, box)
        eng.run()
        assert zone.finished == 300
        # the table holds only live jobs (none, at quiescence) — not the
        # full 300-job history
        assert len(zone.sched.jobs) == 0
        assert zone.sched.accounting.records_total == 300

    def test_accounting_retention_bounds_rows_keeps_totals(self):
        userdb = UserDB()
        user = userdb.add_user("u")
        engine = Engine()
        nodes = [ComputeNode.create(LinuxNode("n0", userdb))]
        sched = Scheduler(engine, nodes)
        sched.accounting = AccountingDB(max_records=10)
        for i in range(50):
            sched.submit(JobSpec(user=user, name="j"), 1.0, at=float(i * 2))
        engine.run()
        acct = sched.accounting
        assert acct.records_total == 50
        assert len(acct.all_records()) <= 20  # trims in 2x blocks
        assert acct.core_seconds_total > 0
        # retained window still answers queries
        assert all(r.state is JobState.COMPLETED for r in acct.all_records())

    def test_default_accounting_unbounded(self):
        db = AccountingDB()
        assert db.max_records is None and db.records_total == 0
