"""``SeparationConfig``: every knob from Section IV in one place.

The paper's contribution is not any single mechanism but their composition;
this dataclass is that composition as configuration.  Two presets live in
:mod:`repro.core.presets`: ``BASELINE`` (a stock Linux + Slurm cluster) and
``LLSC`` (the paper's deployment).  Every experiment is a function of a
config, so ablations are one-field ``dataclasses.replace`` edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sched.policies import NodeSharing
from repro.sched.privatedata import PrivateData


@dataclass(frozen=True)
class SeparationConfig:
    """Full cluster security configuration."""

    name: str = "custom"

    # -- IV-A processes ------------------------------------------------------
    #: /proc mount option: 0 (stock), 1, or 2 (paper).
    hidepid: int = 0
    #: create the hidepid gid= exemption group for support staff (seepid).
    seepid_group: bool = False

    # -- IV-B scheduler ------------------------------------------------------
    #: Slurm PrivateData flags.
    private_data: PrivateData = field(default_factory=PrivateData)
    #: node-sharing policy.
    node_policy: NodeSharing = NodeSharing.SHARED
    #: gate compute-node ssh on having a running job there.
    pam_slurm: bool = False
    #: scheduler backfill pass.
    backfill: bool = True

    # -- IV-C filesystems ----------------------------------------------------
    #: user-private-group account scheme (False = one shared 'users' group).
    upg: bool = True
    #: home dirs owned by root, group = UPG, mode home_mode.
    root_owned_homes: bool = False
    #: mode bits for home directories.
    home_mode: int = 0o755
    #: the File Permission Handler kernel patches (smask + ACL restriction).
    file_permission_handler: bool = False
    #: the security mask value the PAM module installs per session.
    smask: int = 0o000
    #: restrict setfacl grants to the caller's own groups.
    restrict_acls: bool = True
    #: the central scratch filesystem honors the smask accessor (LU-4746
    #: fixed).  False models pre-patch Lustre.
    lustre_honors_smask: bool = True
    #: the fs.protected_symlinks / fs.protected_hardlinks sysctls — on by
    #: default on every modern distribution (so on under BOTH presets);
    #: exposed as ablation knobs for the /tmp link-attack experiments.
    protected_symlinks: bool = True
    protected_hardlinks: bool = True

    # -- IV-D network --------------------------------------------------------
    #: deploy the user-based firewall on every host.
    ubf: bool = False
    #: UBF decision cache.
    ubf_cache: bool = True
    #: UBF degraded-mode policy when the initiator's identity cannot be
    #: learned (peer identd down/unreachable): False = fail closed (DROP,
    #: the paper's separation-first posture), True = fail open (ACCEPT,
    #: availability-over-separation ablation).
    ubf_fail_open: bool = False
    #: conntrack enabled (ablation knob; always on in real deployments).
    conntrack: bool = True

    # -- IV-E portal ---------------------------------------------------------
    #: portal requires an authenticated session token.
    portal_auth: bool = False
    #: portal session lifetime in seconds (None = no expiry).
    portal_session_ttl: float | None = None

    # -- IV-F accelerators ---------------------------------------------------
    #: prolog assigns GPU /dev files to the allocated user's private group.
    gpu_dev_assignment: bool = False
    #: epilog runs the vendor memory-clear steps.
    gpu_scrub: bool = False

    # -- IV-G containers -----------------------------------------------------
    #: uids enabled for Singularity (None = everyone).
    singularity_users: frozenset[int] | None = None

    def describe(self) -> dict[str, object]:
        """Flat summary for reports and experiment tables."""
        return {
            "name": self.name,
            "hidepid": self.hidepid,
            "seepid": self.seepid_group,
            "private_data": (self.private_data.jobs,
                             self.private_data.usage,
                             self.private_data.users),
            "node_policy": self.node_policy.value,
            "pam_slurm": self.pam_slurm,
            "upg": self.upg,
            "root_owned_homes": self.root_owned_homes,
            "smask": oct(self.smask),
            "file_permission_handler": self.file_permission_handler,
            "ubf": self.ubf,
            "ubf_fail_open": self.ubf_fail_open,
            "portal_auth": self.portal_auth,
            "gpu_dev_assignment": self.gpu_dev_assignment,
            "gpu_scrub": self.gpu_scrub,
        }
