"""The paper's contribution: composed separation config, cluster assembly,
support tools, attack battery, audit, and the overhead model."""

from repro.core.attacks import ALL_ATTACKS
from repro.core.audit import (
    AuditReport,
    blast_radius_trial,
    run_battery,
    standard_cluster,
)
from repro.core.cluster import Cluster, Session
from repro.core.compliance import ComplianceReport, Finding, check_compliance
from repro.core.config import SeparationConfig
from repro.core.overhead import (
    LLSCControlCost,
    MITIGATION_EXTRA_NS,
    SYSCALL_NS,
    WorkloadProfile,
    llsc_control_costs,
    make_profiles,
    mitigated_runtime_ns,
    slowdown,
    sweep_syscall_fraction,
)
from repro.core.presets import BASELINE, LLSC, ablate
from repro.core.report import posture_report
from repro.core.tools import publish_dataset, seepid, smask_relax

__all__ = [
    "ALL_ATTACKS", "AuditReport", "blast_radius_trial", "run_battery", "standard_cluster",
    "Cluster", "Session",
    "ComplianceReport", "Finding", "check_compliance",
    "SeparationConfig",
    "LLSCControlCost", "MITIGATION_EXTRA_NS", "SYSCALL_NS",
    "WorkloadProfile", "llsc_control_costs", "make_profiles",
    "mitigated_runtime_ns", "slowdown", "sweep_syscall_fraction",
    "BASELINE", "LLSC", "ablate", "posture_report",
    "publish_dataset", "seepid", "smask_relax",
]
