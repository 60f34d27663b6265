"""Adversary catalog and campaign runner (the paper's threat model, live).

``repro.attacks`` turns Section IV's threat narrative into numbered,
executable attacker models: each numbered
:class:`~repro.core.attacks.AttackModel` in :data:`CATALOG` (A1..A14,
re-exported from the one catalog module, :mod:`repro.core.attacks`)
pairs a sanctioned *benign twin* with a *malicious probe*, and the
:class:`~repro.attacks.runner.CampaignRunner` executes both against fully
armed clusters (event log + forensic audit trail + fail-fast separation
oracle), classifying every probe BLOCKED / DETECTED / SUCCEEDED with the
blocking mechanism attributed from the audit trail.

Entry points::

    python -m repro.attacks list                 # the numbered catalog
    python -m repro.attacks run A7 --preset full # one attack, one preset
    python -m repro.attacks campaign --preset no-ubf
    python -m repro.attacks report --check       # docs/ATTACKS.md freshness

See docs/ATTACKERS.md for the prose catalog and docs/ATTACKS.md for the
generated outcome matrix.
"""

from repro.attacks.presets import ABLATIONS, CAMPAIGN_PRESETS, preset
from repro.attacks.runner import (AttackOutcome, CampaignError,
                                  CampaignResult, CampaignRunner, Outcome,
                                  run_campaign, run_matrix)
from repro.core.attacks import CATALOG, AttackModel, by_id

__all__ = [
    "ABLATIONS", "CAMPAIGN_PRESETS", "CATALOG", "AttackModel",
    "AttackOutcome", "CampaignError", "CampaignResult", "CampaignRunner",
    "Outcome", "by_id", "preset", "run_campaign", "run_matrix",
]
