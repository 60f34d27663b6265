"""Integration tests: the attack battery / leakage audit (E14) and
single-knob ablations showing which control closes which path."""

import pytest

from repro import BASELINE, LLSC, ablate, blast_radius_trial, run_battery
from repro.core.attacks import (
    AbstractUds,
    AclUserGrant,
    ChmodWorldHome,
    GpuResidueScrape,
    ProcArgvSecret,
    ProjectGroupShare,
    PsSnoop,
    RdmaCmBypass,
    SacctUsage,
    SmaskWorldPublish,
    SqueueSnoop,
    SshWithoutJob,
    TmpFilenameEnum,
    TmpWorldFile,
    UbfCrossUserConnect,
)
from repro.sched import NodeSharing


@pytest.fixture(scope="module")
def llsc_report():
    return run_battery(LLSC)


@pytest.fixture(scope="module")
def baseline_report():
    return run_battery(BASELINE)


class TestHeadlineResult:
    def test_llsc_only_documented_residuals_open(self, llsc_report):
        assert llsc_report.unexpected_paths == []
        names = {r.name for r in llsc_report.residual_paths}
        assert names == {"tmp-filename-enum", "abstract-uds",
                         "rdma-cm-bypass"}

    def test_baseline_leaks_broadly(self, baseline_report):
        # nearly everything is open on a stock cluster
        assert len(baseline_report.open_paths) >= 24

    def test_llsc_massive_reduction(self, llsc_report, baseline_report):
        assert len(llsc_report.open_paths) <= 3
        assert len(baseline_report.open_paths) >= 8 * len(
            llsc_report.open_paths)

    def test_intended_sharing_preserved_in_both(self, llsc_report,
                                                baseline_report):
        assert llsc_report.intended_sharing_works
        assert baseline_report.intended_sharing_works

    def test_every_area_clean_under_llsc(self, llsc_report):
        for area, (open_n, total) in llsc_report.by_area().items():
            residuals = sum(1 for r in llsc_report.residual_paths
                            if r.area == area)
            assert open_n == residuals, f"unexpected leak in {area}"

    def test_report_format_mentions_counts(self, llsc_report):
        text = llsc_report.format()
        assert "open paths: 3/32" in text
        assert "works" in text

    def test_summary_rows_shape(self, llsc_report):
        rows = llsc_report.summary_rows()
        assert len(rows) == len(llsc_report.probes)
        assert {"attack", "area", "outcome", "residual",
                "detail"} <= set(rows[0])


class TestSingleKnobAblations:
    """Turning one control off must reopen exactly its paths."""

    def _run(self, config, attacks):
        return {r.name: r.leaked
                for r in run_battery(config, attacks=tuple(attacks)).results}

    def test_hidepid_off_reopens_proc(self):
        leaks = self._run(ablate(LLSC, hidepid=0),
                          [PsSnoop(), ProcArgvSecret()])
        assert leaks == {"ps-snoop": True, "proc-argv-secret": True}

    def test_privatedata_off_reopens_scheduler(self):
        from repro.sched.privatedata import PrivateData
        leaks = self._run(ablate(LLSC, private_data=PrivateData()),
                          [SqueueSnoop(), SacctUsage()])
        assert leaks == {"squeue-snoop": True, "sacct-usage": True}

    def test_pam_slurm_off_reopens_ssh(self):
        leaks = self._run(ablate(LLSC, pam_slurm=False), [SshWithoutJob()])
        assert leaks["ssh-without-job"]

    def test_handler_off_reopens_world_bits(self):
        leaks = self._run(
            ablate(LLSC, file_permission_handler=False, smask=0),
            [TmpWorldFile()])
        assert leaks["tmp-world-file"]

    def test_acl_grant_guarded_by_two_layers(self):
        """The ACL leak needs BOTH the handler off (grant allowed) and a
        traversable home; root-owned 0770 homes alone keep it closed."""
        one_layer = self._run(
            ablate(LLSC, file_permission_handler=False, smask=0),
            [AclUserGrant()])
        assert not one_layer["acl-user-grant"]
        both_layers = self._run(
            ablate(LLSC, file_permission_handler=False, smask=0,
                   root_owned_homes=False, home_mode=0o755),
            [AclUserGrant()])
        assert both_layers["acl-user-grant"]

    def test_handler_off_home_still_guarded_by_root_ownership(self):
        """Defense in depth: without smask the root-owned 0770 home still
        blocks the chmod-world-home path (two independent layers)."""
        leaks = self._run(
            ablate(LLSC, file_permission_handler=False, smask=0),
            [ChmodWorldHome()])
        assert not leaks["chmod-world-home"]

    def test_old_lustre_reopens_scratch_create(self):
        leaks = self._run(ablate(LLSC, lustre_honors_smask=False),
                          [SmaskWorldPublish()])
        assert leaks["scratch-world-create"]

    def test_ubf_off_reopens_network(self):
        leaks = self._run(ablate(LLSC, ubf=False), [UbfCrossUserConnect()])
        assert leaks["tcp-connect-cross-user"]

    def test_gpu_scrub_off_reopens_residue(self):
        leaks = self._run(ablate(LLSC, gpu_scrub=False), [GpuResidueScrape()])
        assert leaks["gpu-residue"]

    def test_portal_auth_off_reopens_unauth(self):
        from repro.core.attacks import PortalUnauthenticated
        leaks = self._run(ablate(LLSC, portal_auth=False),
                          [PortalUnauthenticated()])
        assert leaks["portal-unauthenticated"]

    def test_shared_policy_reopens_coresidency(self):
        from repro.core.attacks import CoResidentPlacement
        leaks = self._run(ablate(LLSC, node_policy=NodeSharing.SHARED),
                          [CoResidentPlacement()])
        assert leaks["co-residency"]

    def test_link_sysctls_cover_tmp_attacks(self):
        """protected_symlinks blocks the /tmp redirect under both presets;
        with the sysctl off under LLSC the redirect reopens, while the
        hardlink pin stays closed because the smask already denies the
        read (defense in depth across independent layers)."""
        from repro.core.attacks import TmpHardlinkPin, TmpSymlinkRedirect
        for cfg in (BASELINE, LLSC):
            leaks = self._run(cfg, [TmpSymlinkRedirect(), TmpHardlinkPin()])
            assert leaks == {"tmp-symlink-redirect": False,
                             "tmp-hardlink-pin": False}, cfg.name
        off = self._run(ablate(LLSC, protected_symlinks=False,
                               protected_hardlinks=False),
                        [TmpSymlinkRedirect(), TmpHardlinkPin()])
        assert off["tmp-symlink-redirect"] is True
        assert off["tmp-hardlink-pin"] is False  # smask still covers
        both_off = self._run(
            ablate(BASELINE, protected_symlinks=False,
                   protected_hardlinks=False),
            [TmpHardlinkPin()])
        assert both_off["tmp-hardlink-pin"] is True

    def test_residuals_stay_open_regardless(self):
        leaks = self._run(LLSC, [TmpFilenameEnum(), AbstractUds(),
                                 RdmaCmBypass()])
        assert all(leaks.values())

    def test_project_sharing_survives_every_knob(self):
        for cfg in (LLSC, BASELINE, ablate(LLSC, ubf=False),
                    ablate(LLSC, file_permission_handler=False, smask=0)):
            rep = run_battery(cfg, attacks=(ProjectGroupShare(),))
            assert rep.intended_sharing_works, cfg.name


class TestBlastRadius:
    def test_llsc_contains_blast(self):
        out = blast_radius_trial(LLSC)
        assert out["innocent_failed"] == 0
        assert out["innocent_completed"] == 6

    def test_baseline_collateral_damage(self):
        out = blast_radius_trial(BASELINE)
        assert out["innocent_failed"] >= 1
