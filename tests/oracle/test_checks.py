"""Tests: each oracle check fires on a deliberately broken decision.

The tier-1 suite under ``REPRO_ORACLE=1`` proves the checks stay silent on
correct enforcement; these tests prove they are not vacuous — every
invariant's check is fed a decision that violates it (constructed outside
the enforcement paths, which refuse to produce one) and must report.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.kernel import PAPER_SMASK, LinuxNode
from repro.net.firewall import Verdict
from repro.net.ident import IdentReply
from repro.oracle import (
    DEFAULT_SEED,
    SeparationOracle,
    SeparationViolation,
    reference_ubf_verdict,
)
from repro.sched import NodeSharing
from tests.conftest import creds_of
from tests.sched.conftest import build_sched, spec


def flow_pkt():
    return SimpleNamespace(flow=SimpleNamespace(
        src_host="login-1", src_port=40001,
        dst_host="compute-1", dst_port=8080, dst_uid=None))


def fake_daemon(userdb):
    return SimpleNamespace(stack=SimpleNamespace(hostname="compute-1"),
                           userdb=userdb, fail_open=False)


class TestReferenceRule:
    def test_same_user_and_root_accepted(self):
        assert reference_ubf_verdict(7, frozenset(), 7, 1007)
        assert reference_ubf_verdict(0, frozenset(), 7, 1007)

    def test_egid_membership_accepted(self):
        assert reference_ubf_verdict(8, frozenset({1007}), 7, 1007)

    def test_stranger_and_anonymous_refused(self):
        assert not reference_ubf_verdict(8, frozenset({1008}), 7, 1007)
        assert not reference_ubf_verdict(None, frozenset(), 7, 1007)


class TestProcfsCheck:
    def test_cross_uid_listing_violates_i1(self, llsc_node, userdb):
        oracle = SeparationOracle(shadow_rate=0.0)
        fs = llsc_node.procfs
        alice = creds_of(userdb, "alice")
        bob_proc = SimpleNamespace(creds=creds_of(userdb, "bob"))
        oracle.check_procfs_view(fs, alice, [bob_proc], "ps")
        (v,) = oracle.violations_for("I1")
        assert "exposed uids" in v.detail

    def test_own_listing_clean(self, llsc_node, userdb):
        oracle = SeparationOracle(shadow_rate=0.0)
        alice = creds_of(userdb, "alice")
        own = SimpleNamespace(creds=alice)
        oracle.check_procfs_view(llsc_node.procfs, alice, [own], "ps")
        assert not oracle.violations
        assert oracle.checks_for("I1") == 1

    def test_exempt_viewer_may_cross_uids(self, llsc_node, userdb):
        oracle = SeparationOracle(shadow_rate=0.0)
        sam = creds_of(userdb, "sam")  # in the seepid gid= group
        bob_proc = SimpleNamespace(creds=creds_of(userdb, "bob"))
        oracle.check_procfs_view(llsc_node.procfs, sam, [bob_proc], "ps")
        assert not oracle.violations

    def test_shadow_divergence_reported(self, llsc_node, userdb,
                                        monkeypatch):
        """A lying per-uid index is caught by the naive reference scan."""
        oracle = SeparationOracle()
        fs = llsc_node.procfs
        alice = creds_of(userdb, "alice")
        llsc_node.procs.spawn(alice, ["bash"])
        monkeypatch.setattr(fs.table, "of_user", lambda uid: [])
        oracle.check_procfs_view(fs, alice, [], "list_pids")
        assert oracle.shadow_checks == 1
        (v,) = oracle.violations_for("I1")
        assert "diverges from naive reference" in v.detail


class TestUbfChecks:
    def test_cross_user_accept_violates_i2(self, userdb):
        oracle = SeparationOracle()
        alice, bob = userdb.user("alice"), userdb.user("bob")
        listener = IdentReply(bob.uid, bob.primary_gid,
                              frozenset({bob.primary_gid}))
        initiator = IdentReply(alice.uid, alice.primary_gid,
                               frozenset({alice.primary_gid}))
        oracle.check_ubf_conclude(fake_daemon(userdb), flow_pkt(),
                                  listener, initiator, Verdict.ACCEPT)
        (v,) = oracle.violations_for("I2")
        assert "cross-user flow" in v.detail

    def test_sanctioned_drop_violates_i2(self, userdb):
        """Dropping a flow the appendix rule accepts is a regression."""
        oracle = SeparationOracle()
        carol, dave = userdb.user("carol"), userdb.user("dave")
        fusion = userdb.group("fusion").gid
        listener = IdentReply(carol.uid, fusion, frozenset({fusion}))
        initiator = IdentReply(dave.uid, dave.primary_gid,
                               frozenset({dave.primary_gid, fusion}))
        oracle.check_ubf_conclude(fake_daemon(userdb), flow_pkt(),
                                  listener, initiator, Verdict.DROP)
        (v,) = oracle.violations_for("I2")
        assert "was dropped" in v.detail

    def test_unidentifiable_accept_violates_i2(self, userdb):
        oracle = SeparationOracle()
        bob = userdb.user("bob")
        listener = IdentReply(bob.uid, bob.primary_gid, frozenset())
        oracle.check_ubf_conclude(fake_daemon(userdb), flow_pkt(),
                                  listener, None, Verdict.ACCEPT)
        (v,) = oracle.violations_for("I2")
        assert "unidentifiable" in v.detail

    def test_accept_the_snapshot_refuses_violates_i2(self, userdb):
        """An ident snapshot taken before a project-group add lacks the
        group; the appendix rule reads the snapshot, so the ACCEPT is a
        violation even though the live database now lists dave."""
        oracle = SeparationOracle()
        carol, dave = userdb.user("carol"), userdb.user("dave")
        fusion = userdb.group("fusion").gid
        assert dave.uid in userdb.group(fusion).members
        listener = IdentReply(carol.uid, fusion, frozenset({fusion}))
        stale = IdentReply(dave.uid, dave.primary_gid,
                           frozenset({dave.primary_gid}))  # no fusion yet
        oracle.check_ubf_conclude(fake_daemon(userdb), flow_pkt(),
                                  listener, stale, Verdict.ACCEPT)
        (v,) = oracle.violations_for("I2")
        assert "cross-user flow" in v.detail

    def test_cached_accept_the_database_refuses_violates_i2(self, userdb):
        """A cached verdict answers for every process of its uid, so it
        must be the one the account database gives: alice is not in
        fusion, and a cached ACCEPT for her on carol's sg-fusion listener
        is a violation."""
        oracle = SeparationOracle()
        alice, carol = userdb.user("alice"), userdb.user("carol")
        fusion = userdb.group("fusion").gid
        oracle.check_ubf_cached(fake_daemon(userdb),
                                (alice.uid, carol.uid, fusion),
                                Verdict.ACCEPT)
        (v,) = oracle.violations_for("I2")
        assert "cached ACCEPT" in v.detail

    def test_cached_verdicts_the_database_gives_pass(self, userdb):
        oracle = SeparationOracle()
        alice, carol, dave = (userdb.user(n) for n in ("alice", "carol",
                                                        "dave"))
        fusion = userdb.group("fusion").gid
        daemon = fake_daemon(userdb)
        oracle.check_ubf_cached(daemon, (dave.uid, carol.uid, fusion),
                                Verdict.ACCEPT)
        oracle.check_ubf_cached(daemon, (alice.uid, carol.uid, fusion),
                                Verdict.DROP)
        oracle.check_ubf_cached(daemon, (0, carol.uid, fusion),
                                Verdict.ACCEPT)
        assert not oracle.violations

    def test_cached_same_user_drop_violates_i2(self, userdb):
        oracle = SeparationOracle()
        uid = userdb.user("alice").uid
        oracle.check_ubf_cached(fake_daemon(userdb), (uid, uid, 0),
                                Verdict.DROP)
        (v,) = oracle.violations_for("I2")
        assert "cached DROP" in v.detail

    def test_degraded_verdict_must_match_policy(self, userdb):
        oracle = SeparationOracle()
        daemon = fake_daemon(userdb)  # fail_open=False
        oracle.check_ubf_degraded(daemon, Verdict.ACCEPT)
        (v,) = oracle.violations_for("I2")
        assert "fail-closed" in v.detail


class TestVfsChecks:
    def test_smask_bits_in_stored_mode_violate_i3(self, llsc_node, userdb):
        oracle = SeparationOracle()
        alice = creds_of(userdb, "alice", smask=PAPER_SMASK)
        oracle.check_vfs_mode(llsc_node.vfs, "/home/alice/f", alice,
                              0o777, "chmod")
        (v,) = oracle.violations_for("I3")
        assert "smask bits" in v.detail

    def test_masked_mode_clean(self, llsc_node, userdb):
        oracle = SeparationOracle()
        alice = creds_of(userdb, "alice", smask=PAPER_SMASK)
        oracle.check_vfs_mode(llsc_node.vfs, "/home/alice/f", alice,
                              0o777 & ~alice.smask, "chmod")
        assert not oracle.violations

    def test_foreign_uid_acl_grant_violates_i3(self, llsc_node, userdb):
        oracle = SeparationOracle()
        alice = creds_of(userdb, "alice")
        bob = userdb.user("bob")
        entry = SimpleNamespace(tag="user", qualifier=bob.uid)
        oracle.check_vfs_acl(llsc_node.vfs, "/home/alice/f", alice, entry)
        (v,) = oracle.violations_for("I3")
        assert "foreign uid" in v.detail

    def test_non_member_group_grant_violates_i3(self, llsc_node, userdb):
        oracle = SeparationOracle()
        alice = creds_of(userdb, "alice")
        bob = userdb.user("bob")
        entry = SimpleNamespace(tag="group", qualifier=bob.primary_gid)
        oracle.check_vfs_acl(llsc_node.vfs, "/home/alice/f", alice, entry)
        (v,) = oracle.violations_for("I3")
        assert "non-member gid" in v.detail


class TestSchedChecks:
    def test_co_location_violates_i4(self, userdb):
        engine, sched = build_sched(
            userdb, policy=NodeSharing.WHOLE_NODE_USER)
        sched.submit(spec(userdb, "bob"), duration=100.0)
        engine.run(until=1.0)
        node = sched.nodes["c1"]
        assert node.running_uids() == {userdb.user("bob").uid}
        oracle = SeparationOracle(shadow_rate=0.0)
        alice_job = sched.submit(spec(userdb, "alice"), duration=1.0)
        oracle.check_sched_start(sched, alice_job, [(node, 1)])
        assert any("co-located" in v.detail
                   for v in oracle.violations_for("I4"))

    def test_capacity_overrun_violates_i4(self, userdb):
        engine, sched = build_sched(userdb, cores=8)
        oracle = SeparationOracle(shadow_rate=0.0)
        job = sched.submit(spec(userdb, "alice", ntasks=9), duration=1.0)
        oracle.check_sched_start(sched, job, [(sched.nodes["c1"], 9)])
        assert any("placeable" in v.detail
                   for v in oracle.violations_for("I4"))

    def test_shadow_divergence_reported(self, userdb):
        """A plan skipping the first-fit node diverges from reference."""
        engine, sched = build_sched(userdb)
        oracle = SeparationOracle()
        job = sched.submit(spec(userdb, "alice"), duration=1.0)
        oracle.check_sched_start(sched, job, [(sched.nodes["c2"], 1)])
        assert oracle.shadow_checks == 1
        (v,) = oracle.violations_for("I4")
        assert "reference" in v.detail

    def test_first_fit_plan_clean(self, userdb):
        engine, sched = build_sched(userdb)
        oracle = SeparationOracle()
        job = sched.submit(spec(userdb, "alice"), duration=1.0)
        oracle.check_sched_start(sched, job, [(sched.nodes["c1"], 1)])
        assert not oracle.violations
        assert oracle.shadow_checks == 1


class TestGpuChecks:
    def _node(self, userdb, gpu_dev_mode=0o666):
        from repro.kernel import NodeSpec
        from repro.sched import ComputeNode
        return ComputeNode.create(
            LinuxNode("c1", userdb, spec=NodeSpec(cores=8, mem_mb=16000,
                                                  gpus=1)),
            gpu_dev_mode=gpu_dev_mode)

    def test_unassigned_device_perms_violate_i5(self, userdb):
        """Prolog 'finished' but the /dev file still has default perms."""
        oracle = SeparationOracle()
        cn = self._node(userdb)
        alice = userdb.user("alice")
        job = SimpleNamespace(job_id=7, uid=alice.uid,
                              spec=SimpleNamespace(user=alice))
        oracle.check_gpu_assigned(cn, job, (0,))
        (v,) = oracle.violations_for("I5")
        assert "assigned device" in v.detail

    def test_residue_after_epilog_violates_i5(self, userdb):
        oracle = SeparationOracle()
        cn = self._node(userdb)
        cn.gpu(0).dev_write(creds_of(userdb, "alice"), b"residue")
        alice = userdb.user("alice")
        job = SimpleNamespace(job_id=7, uid=alice.uid,
                              spec=SimpleNamespace(user=alice))
        oracle.check_gpu_released(cn, job, (0,), scrub_expected=True,
                                  perms_expected=False)
        (v,) = oracle.violations_for("I5")
        assert "residue" in v.detail

    def test_cross_uid_dirty_read_violates_i5(self, userdb):
        oracle = SeparationOracle()
        alice, bob = userdb.user("alice"), userdb.user("bob")
        device = SimpleNamespace(index=0, last_user_uid=alice.uid,
                                 dirty=True)
        oracle.check_gpu_read(device, creds_of(userdb, "bob"))
        (v,) = oracle.violations_for("I5")
        assert f"uid {bob.uid} read dirty" in v.detail

    def test_own_read_clean(self, userdb):
        oracle = SeparationOracle()
        alice = userdb.user("alice")
        device = SimpleNamespace(index=0, last_user_uid=alice.uid,
                                 dirty=True)
        oracle.check_gpu_read(device, creds_of(userdb, "alice"))
        assert not oracle.violations


class TestPortalChecks:
    def _portal(self, userdb):
        return SimpleNamespace(require_auth=True, userdb=userdb)

    def _app(self, owner, egid):
        return SimpleNamespace(
            app_id=1, owner_uid=owner.uid,
            process=SimpleNamespace(creds=SimpleNamespace(egid=egid)))

    def test_wrong_forwarding_identity_violates_i6(self, userdb):
        oracle = SeparationOracle()
        alice, bob = userdb.user("alice"), userdb.user("bob")
        app = self._app(bob, bob.primary_gid)
        oracle.check_portal_forward(self._portal(userdb), bob,
                                    creds_of(userdb, "alice"), app)
        (v,) = oracle.violations_for("I6")
        assert "forwarding process ran as" in v.detail

    def test_unsanctioned_cross_owner_forward_violates_i6(self, userdb):
        oracle = SeparationOracle()
        alice, bob = userdb.user("alice"), userdb.user("bob")
        app = self._app(alice, alice.primary_gid)
        oracle.check_portal_forward(self._portal(userdb), bob,
                                    creds_of(userdb, "bob"), app)
        assert any("without membership" in v.detail
                   for v in oracle.violations_for("I6"))

    def test_project_sharing_sanctioned(self, userdb):
        """dave reaching carol's fusion-group app is the sanctioned path."""
        oracle = SeparationOracle()
        carol, dave = userdb.user("carol"), userdb.user("dave")
        fusion = userdb.group("fusion").gid
        app = self._app(carol, fusion)
        oracle.check_portal_forward(self._portal(userdb), dave,
                                    creds_of(userdb, "dave"), app)
        assert not oracle.violations

    def test_foreign_route_listing_violates_i6(self, userdb):
        oracle = SeparationOracle()
        alice, bob = userdb.user("alice"), userdb.user("bob")
        session = SimpleNamespace(user=bob)
        apps = [self._app(alice, alice.primary_gid)]
        oracle.check_portal_routes(self._portal(userdb), session, apps)
        (v,) = oracle.violations_for("I6")
        assert "exposed apps" in v.detail

    def test_auth_off_disarms(self, userdb):
        oracle = SeparationOracle()
        alice, bob = userdb.user("alice"), userdb.user("bob")
        portal = SimpleNamespace(require_auth=False, userdb=userdb)
        app = self._app(alice, alice.primary_gid)
        oracle.check_portal_forward(portal, bob, creds_of(userdb, "bob"),
                                    app)
        assert not oracle.violations
        assert oracle.checks_for("I6") == 0


class TestReporting:
    def test_fail_fast_raises_and_records(self, llsc_node, userdb):
        oracle = SeparationOracle(fail_fast=True)
        alice = creds_of(userdb, "alice", smask=PAPER_SMASK)
        with pytest.raises(SeparationViolation, match=r"\[I3\]"):
            oracle.check_vfs_mode(llsc_node.vfs, "/f", alice, 0o777,
                                  "chmod")
        assert len(oracle.violations) == 1

    def test_assert_clean(self, llsc_node, userdb):
        oracle = SeparationOracle()
        oracle.assert_clean()
        alice = creds_of(userdb, "alice", smask=PAPER_SMASK)
        oracle.check_vfs_mode(llsc_node.vfs, "/f", alice, 0o777, "chmod")
        with pytest.raises(SeparationViolation, match="1 separation"):
            oracle.assert_clean()

    def test_metrics_and_events_emitted(self, llsc_node, userdb):
        from repro.monitor.events import EventKind, SecurityEventLog
        from repro.sim.metrics import MetricSet
        metrics, log = MetricSet(), SecurityEventLog()
        oracle = SeparationOracle(metrics=metrics, observers=[log],
                                  clock=lambda: 42.0)
        alice = creds_of(userdb, "alice", smask=PAPER_SMASK)
        oracle.check_vfs_mode(llsc_node.vfs, "/f", alice, 0o777, "chmod")
        assert metrics.counter("oracle_checks_total",
                               invariant="I3").value == 1
        assert metrics.counter("oracle_violations_total",
                               invariant="I3").value == 1
        (event,) = log.events
        assert event.kind is EventKind.ORACLE
        # the event carries the acting principal so the forensic audit
        # plane can chain the violation back to its causal root
        assert event.subject_uid == alice.uid and event.time == 42.0

    def test_summary_rows_cover_catalog(self, llsc_node, userdb):
        oracle = SeparationOracle()
        alice = creds_of(userdb, "alice", smask=PAPER_SMASK)
        oracle.check_vfs_mode(llsc_node.vfs, "/f", alice, 0o777, "chmod")
        rows = {r["id"]: r for r in oracle.summary()}
        assert set(rows) == {"I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"}
        assert rows["I3"]["checks"] == 1 and rows["I3"]["violations"] == 1
        assert rows["I1"]["checks"] == 0


class TestSampling:
    def test_rate_zero_checks_nothing(self, llsc_node, userdb):
        oracle = SeparationOracle(sampling_rate=0.0)
        alice = creds_of(userdb, "alice")
        oracle.check_vfs_mode(llsc_node.vfs, "/f", alice, 0o777, "chmod")
        assert oracle.total_checks == 0 and not oracle.violations

    def test_sampling_is_seed_deterministic(self):
        a = SeparationOracle(sampling_rate=0.3, seed=DEFAULT_SEED)
        b = SeparationOracle(sampling_rate=0.3, seed=DEFAULT_SEED)
        assert [a._sampled() for _ in range(500)] \
            == [b._sampled() for _ in range(500)]

    def test_partial_rate_thins_checks(self, llsc_node, userdb):
        oracle = SeparationOracle(sampling_rate=0.2, shadow_rate=0.0)
        alice = creds_of(userdb, "alice")
        for _ in range(400):
            oracle.check_vfs_mode(llsc_node.vfs, "/f", alice,
                                  0o777 & ~alice.smask, "chmod")
        assert 0 < oracle.total_checks < 200

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            SeparationOracle(sampling_rate=1.5)
        with pytest.raises(ValueError):
            SeparationOracle(shadow_rate=-0.1)
