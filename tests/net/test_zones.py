"""Data-sensitivity zone tiers: per-partition UBF posture (SURF model).

STRICT zones force fail-closed, raise the ident retry budget, and put a
TTL on cached verdicts; STANDARD leaves the §IV-D defaults alone.  The
posture is monotone — applying a tier never loosens a knob the operator
set tighter — and wiring through ``SeparationConfig.strict_zones`` pushes
it onto exactly the daemons of the zoned partition's nodes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import Cluster
from repro.core.presets import LLSC
from repro.net import Verdict
from repro.net.zones import POSTURES, ZoneTier, apply_tier, apply_zone_tiers
from repro.sched.partitions import Partition

from tests.net.conftest import build_fabric


class TestApplyTier:
    def test_strict_forces_fail_closed(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1"], ubf=True)
        daemon = daemons["c1"]
        daemon.fail_open = True
        apply_tier(daemon, ZoneTier.STRICT)
        assert daemon.fail_open is False
        assert daemon.tier == "strict"

    def test_strict_raises_retries_and_sets_ttl(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1"], ubf=True)
        daemon = daemons["c1"]
        posture = apply_tier(daemon, ZoneTier.STRICT)
        assert daemon.ident_retries == posture.ident_retries == 4
        assert daemon.cache_ttl == posture.cache_ttl == 4096
        # the cache reads the TTL where it is used: an entry older than
        # the posture allows expires at its next lookup
        daemon._cache_put((1001, 1002, 1002), Verdict.ACCEPT)
        daemon._tick += 4096
        assert daemon._cache_get((1001, 1002, 1002)) is Verdict.ACCEPT
        daemon._tick += 1
        assert daemon._cache_get((1001, 1002, 1002)) is None

    def test_posture_is_monotone_on_safety(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1"], ubf=True)
        daemon = daemons["c1"]
        daemon.ident_retries = 9      # operator set it higher
        daemon.cache_ttl = 100        # and the TTL tighter
        apply_tier(daemon, ZoneTier.STRICT)
        assert daemon.ident_retries == 9
        assert daemon.cache_ttl == 100

    def test_standard_leaves_defaults(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1"], ubf=True)
        daemon = daemons["c1"]
        daemon.fail_open = True
        apply_tier(daemon, ZoneTier.STANDARD)
        assert daemon.fail_open is True   # standard allows the ablation
        assert daemon.cache_ttl is None

    def test_application_is_counted(self, userdb):
        fabric, nodes, daemons = build_fabric(userdb, ["c1"], ubf=True)
        apply_tier(daemons["c1"], ZoneTier.STRICT)
        assert fabric.metrics.counter("ubf_tier_applied_total",
                                      tier="strict").value == 1

    def test_postures_table_shape(self):
        assert POSTURES[ZoneTier.STANDARD].fail_open_allowed
        assert not POSTURES[ZoneTier.STRICT].fail_open_allowed


class TestClusterWiring:
    def test_strict_zone_hardens_partition_nodes_only(self):
        cfg = replace(LLSC, strict_zones=("debug",), ubf_fail_open=True)
        cluster = Cluster.build(cfg, n_compute=2, n_debug=2)
        normal = cluster.scheduler.partitions["normal"]
        debug = cluster.scheduler.partitions["debug"]
        assert normal.tier is ZoneTier.STANDARD
        assert debug.tier is ZoneTier.STRICT
        for name in debug.node_names:
            d = cluster.ubf_daemons[name]
            assert d.tier == "strict" and d.fail_open is False
            assert d.cache_ttl == 4096
        for name in normal.node_names:
            d = cluster.ubf_daemons[name]
            assert d.tier == "standard" and d.fail_open is True

    def test_no_strict_zones_is_a_noop(self):
        cluster = Cluster.build(LLSC, n_compute=1)
        assert all(d.tier == "standard"
                   for d in cluster.ubf_daemons.values())

    def test_apply_zone_tiers_returns_daemon_count(self):
        cfg = replace(LLSC, strict_zones=("normal",))
        cluster = Cluster.build(cfg, n_compute=3, n_debug=0)
        # build already applied; calling again is idempotent
        assert apply_zone_tiers(cluster) == 3


class TestPartitionField:
    def test_default_tier_standard(self):
        p = Partition("p", ("c1",))
        assert p.tier is ZoneTier.STANDARD
