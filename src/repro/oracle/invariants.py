"""The declarative catalog of paper-derived separation invariants.

Each :class:`Invariant` states one property that Section IV of *HPC with
Enhanced User Separation* promises and that the simulated enforcement
points must uphold on **every decision**, not just in the configured state
(`core/compliance.py` audits the latter).  The oracle
(:mod:`repro.oracle.oracle`) evaluates these at the choke points listed in
``modules``; `docs/TRACEABILITY.md` carries the full paper-section →
module → invariant → test matrix.

The catalog is data, not code: check logic lives in
:class:`~repro.oracle.oracle.SeparationOracle` so the catalog can be
rendered into reports and docs without importing enforcement modules.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invariant:
    """One always-on separation property.

    ``id`` is the stable handle used in metrics labels
    (``oracle_checks_total{invariant="I2"}``), violation records, and the
    traceability matrix.  ``section`` cites the paper section the property
    is derived from; ``statement`` is the property in one sentence;
    ``modules`` names the enforcement choke points carrying the hook.
    """

    id: str
    title: str
    section: str
    statement: str
    modules: tuple[str, ...]


CATALOG: tuple[Invariant, ...] = (
    Invariant(
        id="I1",
        title="hidepid confines /proc views to the viewer's uid",
        section="IV-A",
        statement=(
            "Under hidepid=2 every /proc listing (and under hidepid>=1 "
            "every detail read) a non-exempt viewer obtains contains only "
            "processes of the viewer's own uid; only root and members of "
            "the gid= mount group (the seepid exemption) may cross uids."),
        modules=("kernel/procfs.py",),
    ),
    Invariant(
        id="I2",
        title="UBF accepts a flow iff same-user or egid-member",
        section="IV-D + appendix",
        statement=(
            "A connection to a user port is ACCEPTed only when the "
            "connecting and listening processes run as the same user, the "
            "connector is a member of the listener's primary group (egid), "
            "or the initiator is root; any flow the appendix rule accepts "
            "is never DROPped.  Membership is read from the ident snapshot "
            "of the connecting process, on every decision path."),
        modules=("net/ubf.py",),
    ),
    Invariant(
        id="I3",
        title="smask bits survive every chmod/create/ACL path",
        section="IV-C",
        statement=(
            "No file operation by an unprivileged user with an active "
            "security mask ever stores permission bits inside that mask "
            "(enforced even on chmod), and ACL grants are limited to the "
            "caller's own groups and own uid while the restriction patch "
            "is enabled."),
        modules=("kernel/vfs.py",),
    ),
    Invariant(
        id="I4",
        title="node-sharing policy is honoured by every placement",
        section="IV-B",
        statement=(
            "A job start never co-locates two uids on a node under the "
            "whole-node-per-user policy, never shares a non-idle node "
            "under the exclusive policy, and never exceeds a node's free "
            "capacity; the indexed dispatch plan equals the reference "
            "full-scan first-fit plan (shadow mode)."),
        modules=("sched/scheduler.py",),
    ),
    Invariant(
        id="I5",
        title="GPU /dev files track the allocated user; epilog scrubs",
        section="IV-F",
        statement=(
            "While assigned, a GPU's /dev character file is mode 0660 with "
            "group = the allocated user's private group; after the epilog "
            "it returns to 0000/root and the device holds no residue; a "
            "non-root read by a uid other than the last writer never "
            "observes dirty device memory."),
        modules=("gpu/device.py", "sched/prolog_epilog.py"),
    ),
    Invariant(
        id="I6",
        title="portal forwards only as and to the authenticated principal",
        section="IV-E",
        statement=(
            "With portal authentication required, the forwarding process "
            "runs as the authenticated session's user (never a shared "
            "service identity), the route listing shows only that user's "
            "apps, and a successful forward to another user's app implies "
            "the sanctioned egid-sharing path."),
        modules=("portal/gateway.py",),
    ),
    Invariant(
        id="I7",
        title="a fenced node rejoins only after full remediation",
        section="IV-B + IV-F",
        statement=(
            "No job is ever dispatched onto a node flagged as fenced or "
            "needing remediation, and when a crashed node rejoins "
            "scheduling its separation residue is gone: no orphan process "
            "of a de-allocated job survives, and (when the corresponding "
            "measures are configured) no unallocated GPU holds dirty "
            "memory or a /dev file still naming the dead tenant's "
            "private group."),
        modules=("sched/scheduler.py", "sched/health.py"),
    ),
    Invariant(
        id="I8",
        title="control-plane recovery preserves separation",
        section="IV-B + IV-F",
        statement=(
            "A control plane rebuilt from snapshot + journal replay ends "
            "digest-identical to the state at the crash: no job runs on a "
            "node that was fenced (or flagged for remediation) before the "
            "crash without a remediation in between, no membership "
            "revoked before the crash is resurrected by the rebuilt "
            "account database, and no GPU granted before the crash is "
            "forgotten — every unscrubbed grant still belongs to a live "
            "running job or to a node since remediated."),
        modules=("persist/recovery.py", "sched/scheduler.py",
                 "net/ubf.py"),
    ),
)

#: id -> Invariant, for reports and metric-label validation.
BY_ID: dict[str, Invariant] = {inv.id: inv for inv in CATALOG}
