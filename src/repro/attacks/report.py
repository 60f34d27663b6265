"""Generated attack-matrix report (docs/ATTACKS.md).

``render_report()`` runs the full campaign matrix — every attack under
every preset — and renders one deterministic Markdown document:

* the numbered catalog with threat stories and paper citations;
* the ``full``-preset outcome table with the *attributed* blocking
  mechanism, armed oracle invariant, and causal audit trace per attack;
* the attack x preset verdict matrix;
* the per-ablation flip list (which attacks each removed mechanism was
  load-bearing for).

Determinism is part of the contract: the campaign is seeded end to end,
so regenerating the report from the same tree yields byte-identical
output.  CI runs ``python -m repro.attacks report --check`` to diff the
committed docs/ATTACKS.md against a fresh render; a drifting report means
either enforcement behaviour or the catalog changed without the docs.
"""

from __future__ import annotations

from pathlib import Path

from repro.attacks.presets import ABLATIONS, CAMPAIGN_PRESETS
from repro.attacks.runner import CampaignResult, Outcome, run_matrix
from repro.core.attacks import CATALOG
from repro.markdown import md_table

#: the committed location, relative to the repository root
REPORT_PATH = "docs/ATTACKS.md"

_MARK = {"BLOCKED": "B", "DETECTED": "D", "SUCCEEDED": "S"}


def render_report(matrix: dict[str, CampaignResult] | None = None) -> str:
    """Render the full Markdown report (runs the matrix when not given)."""
    if matrix is None:
        matrix = run_matrix()
    full = matrix["full"]
    lines = [
        "# Attack matrix",
        "",
        "<!-- GENERATED FILE - do not edit by hand.",
        "     Regenerate with: PYTHONPATH=src python -m repro.attacks"
        " report",
        "     CI checks freshness with: ... report --check -->",
        "",
        "Every numbered attacker model from [docs/ATTACKERS.md]"
        "(ATTACKERS.md), executed",
        "live by `repro.attacks.CampaignRunner` against instrumented"
        " clusters (event",
        "log + forensic audit trail + fail-fast separation oracle) under"
        " every",
        "campaign preset.  Outcomes: **BLOCKED** (boundary held),"
        " **DETECTED**",
        "(boundary failed but the oracle caught the bad enforcement"
        " decision",
        "in-window), **SUCCEEDED** (silent crossing - the red outcome).",
        "",
        "## Campaign summary - `full` preset",
        "",
    ]
    c = full.counts()
    lines.append(f"{len(full.outcomes)} attacks: {c['BLOCKED']} blocked, "
                 f"{c['DETECTED']} detected, {c['SUCCEEDED']} succeeded.")
    lines.append("")
    rows: list[list[object]] = []
    for r in full.outcomes:
        rows.append([r.attack_id, r.name, r.section, r.mechanism,
                     r.invariant, r.outcome.value,
                     r.blocked_by or "-", r.audit_trace or "-",
                     r.deny_records])
    lines.append(md_table(["id", "attack", "paper", "mechanism",
                           "invariant", "outcome", "blocked by (attributed)",
                           "audit trace", "deny records"], rows))
    lines += ["", "## Verdict matrix - attack x preset", "",
              "`B` blocked, `D` detected, `S` succeeded.", ""]
    keys = list(CAMPAIGN_PRESETS)
    rows = []
    for attack in CATALOG:
        row: list[object] = [attack.id]
        for key in keys:
            out = next(o for o in matrix[key].outcomes
                       if o.attack_id == attack.id)
            row.append(_MARK[out.outcome.value])
        rows.append(row)
    lines.append(md_table(["attack"] + [f"`{k}`" for k in keys], rows))
    lines += ["", "## Ablation flips", "",
              "Attacks each single-mechanism ablation flips away from"
              " BLOCKED - the",
              "mechanisms shown to be load-bearing, not redundant:", ""]
    for key in ABLATIONS:
        flips = [o for o in matrix[key].outcomes
                 if o.outcome is not Outcome.BLOCKED]
        ids = ", ".join(f"{o.attack_id} ({o.outcome.value.lower()})"
                        for o in flips)
        lines.append(f"- **`{key}`** -> {ids}")
    lines += [
        "",
        "## Threat stories",
        "",
    ]
    for attack in CATALOG:
        flip = ", ".join(f"`{k}`" for k in attack.flipped_by)
        det = (" - detected (not silently succeeded) under "
               + ", ".join(f"`{k}`" for k in attack.detected_in)
               if attack.detected_in else "")
        lines.append(f"- **{attack.id} {attack.name}** ({attack.section}, "
                     f"invariant {attack.invariant}): {attack.story} "
                     f"Expected to succeed under {flip}{det}.")
    lines.append("")
    return "\n".join(lines)


def write_report(root: str | Path = ".",
                 matrix: dict[str, CampaignResult] | None = None) -> Path:
    """Render and write docs/ATTACKS.md under *root*; returns the path."""
    path = Path(root) / REPORT_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(matrix), encoding="utf-8")
    return path


def check_report(root: str | Path = ".") -> tuple[bool, str]:
    """Is the committed report byte-identical to a fresh render?

    Returns ``(fresh, message)`` — the CI freshness gate.
    """
    path = Path(root) / REPORT_PATH
    if not path.exists():
        return False, f"{REPORT_PATH} missing - run: python -m repro.attacks report"
    committed = path.read_text(encoding="utf-8")
    fresh = render_report()
    if committed == fresh:
        return True, f"{REPORT_PATH} is fresh"
    return False, (f"{REPORT_PATH} is stale - regenerate with: "
                   "PYTHONPATH=src python -m repro.attacks report")
