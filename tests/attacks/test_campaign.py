"""Campaign outcomes: the paper's composed-defence claim, attack by attack.

Under ``full`` every probe must be BLOCKED (0 silent crossings, 0 oracle
violations at full sampling), every benign twin must work, and blocked
outcomes must carry audit attribution.  Under each ablation the declared
attacks — and only those — flip.
"""

from __future__ import annotations

import pytest

from repro.attacks import (AttackModel, CATALOG, CampaignRunner, Outcome,
                            by_id)
from repro.attacks.runner import CampaignError
from repro.obs.dashboard import campaign_posture

from tests.attacks.conftest import outcome_of

IDS = [a.id for a in CATALOG]


class TestFullPreset:
    @pytest.mark.parametrize("attack_id", IDS)
    def test_attack_blocked(self, full_campaign, attack_id):
        out = outcome_of(full_campaign, attack_id)
        assert out.outcome is Outcome.BLOCKED, out.malicious_detail

    def test_no_silent_crossings(self, full_campaign):
        assert full_campaign.succeeded == []
        assert full_campaign.counts()["BLOCKED"] == len(CATALOG)

    @pytest.mark.parametrize("attack_id", IDS)
    def test_benign_twin_ran_clean(self, full_campaign, attack_id):
        # CampaignRunner raises CampaignError on a dirty twin, so the
        # detail string existing at all means the twin passed; sanity-check
        # it carries a real description.
        out = outcome_of(full_campaign, attack_id)
        assert len(out.benign_detail) > 10

    def test_blocked_outcomes_are_attributed(self, full_campaign):
        for out in full_campaign.outcomes:
            assert out.blocked_by, out.attack_id
        # denial-backed blocks carry the causal trace from the audit trail
        traced = [o for o in full_campaign.outcomes if o.deny_records]
        assert len(traced) >= 8
        assert any(o.audit_trace for o in traced)

    def test_enforcement_denials_match_mechanism(self, full_campaign):
        """Where a deny record attributed the block, it names the
        mechanism the catalog declared (the portal's cross-user hop is
        legitimately the UBF's kill)."""
        for out in full_campaign.outcomes:
            if out.deny_records and out.attack_id != "A9":
                assert out.blocked_by == out.mechanism, out.attack_id
        a9 = outcome_of(full_campaign, "A9")
        if a9.deny_records:
            assert a9.blocked_by in ("portal", "ubf")


class TestAblations:
    def test_expected_outcome_everywhere(self, matrix):
        for attack in CATALOG:
            for key, result in matrix.items():
                out = outcome_of(result, attack.id)
                assert out.outcome.value == attack.expected(key), \
                    (f"{attack.id} under {key}: {out.outcome.value}, "
                     f"expected {attack.expected(key)} — "
                     f"{out.malicious_detail}")

    def test_every_ablation_flips_something(self, matrix):
        for key, result in matrix.items():
            if key in ("full",):
                continue
            flipped = [o for o in result.outcomes
                       if o.outcome is not Outcome.BLOCKED]
            assert flipped, f"ablation {key} flipped nothing"

    def test_baseline_all_succeed(self, matrix):
        assert len(matrix["baseline"].succeeded) == len(CATALOG)

    def test_succeeded_outcomes_have_no_attribution(self, matrix):
        for o in matrix["baseline"].outcomes:
            assert o.blocked_by is None and o.audit_trace is None


class TestDetection:
    def test_portal_crossing_detected_without_ubf(self):
        """A9 under no-ubf: the crossing happens but the armed portal
        invariant tags a violation in-window -> DETECTED, not silent."""
        out = CampaignRunner("no-ubf").run_attack(by_id("A9"))
        assert out.outcome is Outcome.DETECTED
        assert out.tagged_violations >= 1

    def test_detected_is_never_silent_success(self, matrix):
        for result in matrix.values():
            for o in result.outcomes:
                if o.outcome is Outcome.DETECTED:
                    assert o.tagged_violations >= 1, o.attack_id


class TestRunnerPlumbing:
    def test_attack_events_bracket_the_probe(self):
        """The probe start/outcome markers land in the audit trail as
        attack/probe records (the per-tenant forensic story)."""
        runner = CampaignRunner("full")
        runner.run_attack(by_id("A6"))
        # the runner uses a fresh cluster per attack; re-run one attack
        # with a hand-built runner to inspect its cluster
        cluster = runner._arm()
        from repro.monitor.events import EventKind
        uid = cluster.user("bob").uid
        cluster.security_log.emit(0.0, EventKind.ATTACK, uid, "A6", "probe")
        recs = cluster.forensics.audit.by_mechanism("attack")
        assert recs and recs[-1].action == "probe"

    def test_campaign_metrics_counted(self, full_campaign):
        # run a tiny campaign with its own runner to observe counters
        runner = CampaignRunner("full", attacks=(by_id("A2"), by_id("A4")))
        runner.run()
        counted = runner.metrics.counter("attacks_run_total",
                                         outcome="BLOCKED").value
        assert counted == 2

    def test_unnumbered_probe_keys_its_window_by_name(self):
        """A battery probe has no A-id: its attack window and ATTACK
        events carry its name, and what it trips in-window is tagged."""
        class Trip(AttackModel):
            name = "trip-probe"

            def malicious(self, cluster):
                self.cluster = cluster
                cluster.oracle._violation("I2", "c1->c2", "forced")
                return True, "crossed"

        probe = Trip()
        out = CampaignRunner("full").probe(probe)
        assert out.outcome is Outcome.DETECTED and out.tagged_violations == 1
        assert out.leaked and out.attack_id == ""
        from repro.monitor.events import EventKind
        targets = [e.target for e in probe.cluster.security_log.events
                   if e.kind is EventKind.ATTACK]
        assert targets == ["trip-probe", "trip-probe"]

    def test_benign_twin_failure_is_loud(self):
        """A twin that raises fails the campaign with CampaignError."""
        broken = by_id("A6").__class__()
        broken.benign = lambda cluster: (_ for _ in ()).throw(
            RuntimeError("twin broke"))
        with pytest.raises(CampaignError, match="benign twin failed"):
            CampaignRunner("full").run_attack(broken)


class TestDashboardSection:
    def test_campaign_posture_renders(self, full_campaign):
        text = campaign_posture(full_campaign)
        assert "Attack campaign posture" in text
        assert "state ok" in text
        assert any(ln.startswith("| A1 ") for ln in text.splitlines())

    def test_posture_flags_red_state(self, matrix):
        text = campaign_posture(matrix["baseline"])
        assert "RED" in text
        # silent crossings sort first
        first_row = [ln for ln in text.splitlines() if ln.startswith("| A")][0]
        assert "SUCCEEDED" in first_row
