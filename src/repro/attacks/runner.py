"""Campaign runner: execute the catalog, classify, attribute.

For each attack the runner builds *two* fresh clusters from the preset
(probes must not perturb each other or their own twins), fully armed:
event log (:func:`instrument_cluster`), forensic audit plane
(:func:`attach_forensics`), and the separation oracle at full sampling
with fail-fast (:func:`attach_oracle`).

The benign twin runs first and must be clean: it may not raise and may
not trip a single oracle violation — that is the usability half of the
paper's claim, checked under every preset including the ablations.

The probe step (:meth:`CampaignRunner.probe`) then runs the malicious
half inside ``oracle.attack_context(key)`` — the key is the attack's id,
or its name for an unnumbered battery probe — so any violation it
provokes is *tagged* instead of aborting the run, and the outcome is
classified:

* ``BLOCKED``   — the boundary held (no crossing);
* ``DETECTED``  — the boundary failed but the oracle caught the bad
  enforcement decision in-window (tagged violation);
* ``SUCCEEDED`` — the boundary failed silently: crossing with no tagged
  violation.  Under ``full`` this is the red outcome CI fails on.

Attribution: the first deny/degraded audit record the attacker's uid
earned after the probe's watermark names the blocking mechanism and the
causal ``trace_id`` (PR 6 audit trail).  Probes blocked by construction
(nothing denied — e.g. the scheduler simply never co-placed the jobs)
fall back to the attack's declared ``blocked_by``.

Any *organic* (untagged) violation on either cluster is a bug in the
enforcement stack itself and fails the campaign loudly.

The E14 battery (:func:`repro.core.audit.run_battery`) runs only the
probe step: ``leaked`` is any outcome but BLOCKED.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.attacks.presets import CAMPAIGN_PRESETS, preset
from repro.core.attacks import CATALOG, AttackModel
from repro.core.audit import standard_cluster
from repro.core.cluster import Cluster
from repro.core.config import SeparationConfig
from repro.monitor.events import EventKind
from repro.monitor.wiring import instrument_cluster
from repro.obs.forensics import attach_forensics
from repro.oracle.hooks import attach_oracle
from repro.sim.metrics import MetricSet


class Outcome(enum.Enum):
    """Classification of one malicious probe."""

    BLOCKED = "BLOCKED"
    DETECTED = "DETECTED"
    SUCCEEDED = "SUCCEEDED"


class CampaignError(RuntimeError):
    """A benign twin failed or an organic oracle violation surfaced."""


@dataclass(frozen=True)
class AttackOutcome:
    """One attack's classified result under one preset."""

    attack_id: str
    name: str
    preset: str
    section: str
    mechanism: str
    invariant: str
    outcome: Outcome
    benign_detail: str
    malicious_detail: str
    #: mechanism tag from the attributed deny record (or the declared
    #: control suffixed "(by construction)" when nothing was denied)
    blocked_by: str | None
    #: causal trace id of the attributed deny record, if any
    audit_trace: str | None
    #: deny/degraded audit records the attacker earned during the probe
    deny_records: int
    #: oracle violations tagged with this attack id during the window
    tagged_violations: int
    #: the attack's E14 battery metadata
    area: str
    residual: bool
    intended: bool

    @property
    def leaked(self) -> bool:
        """E14's verdict: the probe was not BLOCKED."""
        return self.outcome is not Outcome.BLOCKED

    def row(self) -> dict[str, object]:
        """JSON-ready form (reports, benchmark baselines)."""
        return {
            "attack": self.attack_id, "name": self.name,
            "preset": self.preset, "section": self.section,
            "mechanism": self.mechanism, "invariant": self.invariant,
            "outcome": self.outcome.value, "blocked_by": self.blocked_by,
            "audit_trace": self.audit_trace,
            "deny_records": self.deny_records,
            "tagged_violations": self.tagged_violations,
            "detail": self.malicious_detail,
        }


@dataclass
class CampaignResult:
    """All outcomes of one campaign (one preset, whole catalog)."""

    preset: str
    outcomes: list[AttackOutcome] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        """Outcome value -> number of attacks."""
        c = {o.value: 0 for o in Outcome}
        for r in self.outcomes:
            c[r.outcome.value] += 1
        return c

    @property
    def succeeded(self) -> list[AttackOutcome]:
        return [r for r in self.outcomes if r.outcome is Outcome.SUCCEEDED]

    @property
    def blocked(self) -> list[AttackOutcome]:
        return [r for r in self.outcomes if r.outcome is Outcome.BLOCKED]

    def format(self) -> str:
        """Human-readable campaign table."""
        lines = [f"Attack campaign — preset {self.preset}", "-" * 72]
        for r in self.outcomes:
            via = f" via {r.blocked_by}" if r.blocked_by else ""
            trace = f" [{r.audit_trace}]" if r.audit_trace else ""
            lines.append(f"  [{r.outcome.value:<9}] {r.attack_id:<4}"
                         f" {r.name:<26}{via}{trace}")
        lines.append("-" * 72)
        c = self.counts()
        lines.append(f"blocked: {c['BLOCKED']}  detected: {c['DETECTED']}"
                     f"  succeeded: {c['SUCCEEDED']}"
                     f"  / {len(self.outcomes)} attacks")
        return "\n".join(lines)


class CampaignRunner:
    """Execute attacks from the catalog against one preset."""

    def __init__(self, preset_key: str = "full", *,
                 attacks: tuple[AttackModel, ...] = CATALOG,
                 config: SeparationConfig | None = None):
        self.preset_key = preset_key
        self.config = preset(preset_key) if config is None else config
        self.attacks = attacks
        #: campaign-level counters (attacks_run_total{outcome=...})
        self.metrics = MetricSet()

    # -- cluster factory -----------------------------------------------------

    def _arm(self) -> Cluster:
        """A fresh standard cluster with log, forensics, and oracle armed."""
        cluster = standard_cluster(self.config, n_dtn=1)
        instrument_cluster(cluster)
        attach_forensics(cluster)
        attach_oracle(cluster, sampling_rate=1.0, fail_fast=True)
        return cluster

    # -- single attack -------------------------------------------------------

    def run_attack(self, attack: AttackModel) -> AttackOutcome:
        """Run one attack's benign twin, then its probe step."""
        # the benign twin on its own cluster — must be spotless
        benign_cluster = self._arm()
        try:
            benign_detail = attack.benign(benign_cluster)
        except Exception as e:
            raise CampaignError(
                f"{attack.id} benign twin failed under "
                f"{self.preset_key!r}: {e}") from e
        if benign_cluster.oracle.violations:
            v = benign_cluster.oracle.violations[0]
            raise CampaignError(
                f"{attack.id} benign twin tripped oracle {v.invariant}"
                f" under {self.preset_key!r}: {v.detail}")
        return self.probe(attack, benign_detail)

    def probe(self, attack: AttackModel,
              benign_detail: str = "") -> AttackOutcome:
        """The probe step: a fresh armed cluster, the attack window,
        classification and attribution."""
        cluster = self._arm()
        key = attack.id or attack.name
        log = cluster.security_log
        audit = cluster.forensics.audit
        attacker_uid = cluster.user(attack.attacker).uid
        log.emit(cluster.engine.now, EventKind.ATTACK, attacker_uid,
                 key, f"probe {attack.name} started")
        watermark = len(audit.records)
        with cluster.oracle.attack_context(key):
            crossed, malicious_detail = attack.malicious(cluster)

        tagged = cluster.oracle.violations_for_attack(key)
        organic = cluster.oracle.organic_violations
        if organic:
            v = organic[0]
            raise CampaignError(
                f"{key} provoked an organic (untagged) oracle "
                f"violation {v.invariant} under {self.preset_key!r}: "
                f"{v.detail}")

        if crossed:
            outcome = Outcome.DETECTED if tagged else Outcome.SUCCEEDED
        else:
            outcome = Outcome.BLOCKED

        window = audit.records[watermark:]
        denies = [r for r in window
                  if r.uid == attacker_uid
                  and r.action in ("deny", "degraded")]
        if not denies:
            # identity-unverifiable denials (forged/absent ident) are
            # recorded with uid -1; inside this window they are the probe's
            denies = [r for r in window
                      if r.uid == -1 and r.action in ("deny", "degraded")]
        if outcome is Outcome.SUCCEEDED:
            blocked_by = None
            audit_trace = None
        elif denies:
            blocked_by = denies[0].mechanism
            audit_trace = denies[0].trace_id
        else:
            blocked_by = f"{attack.blocked_by} (by construction)"
            audit_trace = None

        log.emit(cluster.engine.now, EventKind.ATTACK, attacker_uid,
                 key, f"probe {attack.name} outcome={outcome.value}")
        self.metrics.counter("attacks_run_total",
                             outcome=outcome.value).inc()
        return AttackOutcome(
            attack_id=attack.id, name=attack.name, preset=self.preset_key,
            section=attack.section, mechanism=attack.mechanism,
            invariant=attack.invariant, outcome=outcome,
            benign_detail=benign_detail, malicious_detail=malicious_detail,
            blocked_by=blocked_by, audit_trace=audit_trace,
            deny_records=len(denies), tagged_violations=len(tagged),
            area=attack.area, residual=attack.residual,
            intended=attack.intended)

    # -- whole campaign ------------------------------------------------------

    def run(self) -> CampaignResult:
        """Run every attack in catalog order."""
        result = CampaignResult(preset=self.preset_key)
        for attack in self.attacks:
            result.outcomes.append(self.run_attack(attack))
        return result


def run_campaign(preset_key: str = "full", *,
                 attacks: tuple[AttackModel, ...] = CATALOG) -> CampaignResult:
    """Convenience: run the whole catalog against one preset."""
    return CampaignRunner(preset_key, attacks=attacks).run()


def run_matrix(presets: tuple[str, ...] | None = None,
               *, attacks: tuple[AttackModel, ...] = CATALOG,
               ) -> dict[str, CampaignResult]:
    """Run the campaign under several presets (default: all of them)."""
    keys = tuple(CAMPAIGN_PRESETS) if presets is None else presets
    return {k: run_campaign(k, attacks=attacks) for k in keys}
