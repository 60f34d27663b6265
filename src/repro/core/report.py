"""Security-posture report: one document for the sponsor conversation.

Section V: "we have also been able to give the sponsors of the users' work
much greater confidence that their data is secure."  That confidence is a
*report*: what controls are deployed, whether the fleet actually complies,
what the adversarial battery could and couldn't do, and what the denial
telemetry shows.  :func:`posture_report` renders all four as Markdown from
live objects, so the document can never drift from the system it describes.
"""

from __future__ import annotations

from repro.core.audit import AuditReport
from repro.core.cluster import Cluster
from repro.core.compliance import ComplianceReport
from repro.markdown import md_table


def posture_report(cluster: Cluster, *,
                   audit: AuditReport | None = None,
                   compliance: ComplianceReport | None = None) -> str:
    """Render the posture document for *cluster* (Markdown).

    ``audit`` and ``compliance`` are optional precomputed sections (running
    the 30+-probe battery is expensive; callers usually have one already).
    """
    cfg = cluster.config
    lines = [f"# Security posture — configuration '{cfg.name}'", ""]

    # -- deployed controls ---------------------------------------------------
    lines += ["## Deployed controls", ""]
    desc = cfg.describe()
    lines.append(md_table(
        ["control", "setting"],
        [[k, v] for k, v in desc.items() if k != "name"]))
    lines.append("")

    # -- fleet ----------------------------------------------------------------
    lines += ["## Fleet", ""]
    lines.append(md_table(
        ["class", "count", "names"],
        [
            ["login", len(cluster.login_nodes),
             ", ".join(n.name for n in cluster.login_nodes)],
            ["compute", len(cluster.compute_nodes),
             ", ".join(cn.name for cn in cluster.compute_nodes)],
            ["dtn", len(cluster.dtn_nodes),
             ", ".join(n.name for n in cluster.dtn_nodes) or "-"],
            ["portal", 1, cluster.portal_node.name],
        ]))
    lines.append("")

    # -- compliance -------------------------------------------------------------
    if compliance is not None:
        lines += ["## Configuration compliance", ""]
        if compliance.compliant:
            lines.append(f"All {compliance.checks_run} checks passed; no "
                         "drift detected.")
        else:
            lines.append(f"{len(compliance.findings)} finding(s) across "
                         f"{compliance.checks_run} checks:")
            lines.append("")
            lines.append(md_table(
                ["node", "control", "expected", "observed"],
                [[f.node, f.control, f.expected, f.observed]
                 for f in compliance.findings]))
        lines.append("")

    # -- adversarial audit ----------------------------------------------------------
    if audit is not None:
        lines += ["## Adversarial audit", ""]
        lines.append(
            f"{len(audit.open_paths)} of {len(audit.probes)} cross-user "
            f"probes found an open path "
            f"({len(audit.unexpected_paths)} unexpected, "
            f"{len(audit.residual_paths)} documented residuals).")
        lines.append("")
        lines.append(md_table(
            ["area", "open / probes"],
            [[a, f"{o}/{t}"] for a, (o, t) in sorted(
                audit.by_area().items())]))
        if audit.residual_paths:
            lines.append("")
            lines.append("Documented residual paths: "
                         + ", ".join(r.name for r in audit.residual_paths)
                         + ".")
        lines.append("")
        lines.append("Sanctioned project-group sharing: "
                     + ("functional" if audit.intended_sharing_works
                        else "**BROKEN**") + ".")
        lines.append("")

    # -- invariant verification ----------------------------------------------
    oracle = getattr(cluster, "oracle", None)
    if oracle is not None:
        lines += ["## Invariant verification", ""]
        summary = oracle.summary()
        checked = sum(r["checks"] for r in summary)
        if not oracle.violations:
            lines.append(
                f"The separation oracle checked {checked} enforcement "
                f"decisions online (sampling_rate="
                f"{oracle.sampling_rate:g}, {oracle.shadow_checks} "
                "shadow-reference comparisons) with **zero invariant "
                "violations**.")
        else:
            lines.append(
                f"**{len(oracle.violations)} invariant violation(s)** "
                f"across {checked} checked decisions:")
            lines.append("")
            lines.append(md_table(
                ["time", "invariant", "subject", "detail"],
                [[f"{v.time:g}", v.invariant, v.subject, v.detail]
                 for v in oracle.violations]))
        lines.append("")
        lines.append(md_table(
            ["invariant", "paper §", "title", "checks", "violations"],
            [[r["id"], r["section"], r["title"], r["checks"],
              r["violations"]] for r in summary]))
        lines.append("")

    # -- telemetry --------------------------------------------------------------
    log = getattr(cluster, "security_log", None)
    if log is not None:
        lines += ["## Denial telemetry", ""]
        counts = log.counts()
        if counts:
            lines.append(md_table(
                ["event kind", "count"],
                [[k.value, v] for k, v in sorted(counts.items(),
                                                 key=lambda kv: kv[0].value)]))
        else:
            lines.append("No denial events recorded.")
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"
