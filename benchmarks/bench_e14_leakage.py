"""E14 — the full-system leakage matrix (paper §V, the headline result).

Claims reproduced: the composed LLSC configuration reduces cross-user
observation/interaction paths from essentially-all-open (stock cluster) to
exactly the three residuals Section V documents — "file names in
world-writable directories (e.g., /tmp/, /dev/shm/), abstract namespace
unix domain sockets, and direct IB verbs network communication" — while
the sanctioned project-group sharing path keeps working.  A knock-out
matrix shows each control closes its own area (defense in depth is visible
where two controls cover one path).

Series printed: per-area open-path counts for BASELINE vs LLSC; the
residual list; the knock-out matrix.

The verdicts run on the simulation clock, so they are host-independent.
Both matrix tests record into ``benchmarks/results/e14_leakage.json``:
BASELINE's and LLSC's open and unexpected paths, whether intended sharing
works, and each knockout's reopened paths.  ``python benchmarks/gate.py
E14`` checks them against the exact rules in
``benchmarks/baselines/e14.json``.
"""

import pytest

from repro import BASELINE, LLSC, ablate, run_battery
from repro.sched import NodeSharing
from repro.sched.privatedata import PrivateData

from _helpers import print_table, write_result

EXPECTED_RESIDUALS = {"tmp-filename-enum", "abstract-uds", "rdma-cm-bypass"}


@pytest.fixture(scope="module")
def e14_result():
    """The result document both matrix tests fill; written after them."""
    doc: dict = {}
    yield doc
    write_result("e14_leakage", doc, full=False)


def _summary(report) -> dict:
    return {"probes": len(report.probes),
            "open": sorted(r.name for r in report.open_paths),
            "unexpected": sorted(r.name for r in report.unexpected_paths),
            "intended_sharing": report.intended_sharing_works}


def test_e14_headline_matrix(benchmark, e14_result):
    reports = benchmark.pedantic(
        lambda: {cfg.name: run_battery(cfg) for cfg in (BASELINE, LLSC)},
        rounds=1, iterations=1)
    base, llsc = reports["BASELINE"], reports["LLSC"]
    areas = sorted(base.by_area())
    rows = [[a,
             f"{base.by_area()[a][0]}/{base.by_area()[a][1]}",
             f"{llsc.by_area()[a][0]}/{llsc.by_area()[a][1]}"]
            for a in areas]
    rows.append(["TOTAL",
                 f"{len(base.open_paths)}/{len(base.probes)}",
                 f"{len(llsc.open_paths)}/{len(llsc.probes)}"])
    print_table("E14: open cross-user paths by area (open/total)",
                ["area", "BASELINE", "LLSC"], rows)
    print_table("E14: LLSC residual paths",
                ["path", "documented"],
                [[r.name, r.residual] for r in llsc.open_paths])
    benchmark.extra_info["baseline_open"] = len(base.open_paths)
    benchmark.extra_info["llsc_open"] = len(llsc.open_paths)
    e14_result.update(baseline=_summary(base), llsc=_summary(llsc))
    # the paper's Section V, quantified:
    assert {r.name for r in llsc.open_paths} == EXPECTED_RESIDUALS
    assert llsc.unexpected_paths == []
    assert len(base.open_paths) >= 24
    assert base.intended_sharing_works and llsc.intended_sharing_works


def test_e14_knockout_matrix(benchmark, e14_result):
    """Remove one control at a time; count reopened paths."""
    knockouts = {
        "hidepid=0": ablate(LLSC, hidepid=0),
        "PrivateData off": ablate(LLSC, private_data=PrivateData()),
        "policy=shared": ablate(LLSC, node_policy=NodeSharing.SHARED),
        "pam_slurm off": ablate(LLSC, pam_slurm=False),
        "no FPH/smask": ablate(LLSC, file_permission_handler=False, smask=0),
        "UBF off": ablate(LLSC, ubf=False),
        "portal auth off": ablate(LLSC, portal_auth=False),
        "no GPU measures": ablate(LLSC, gpu_dev_assignment=False,
                                  gpu_scrub=False),
        "link sysctls off": ablate(LLSC, protected_symlinks=False,
                                   protected_hardlinks=False),
    }

    def run_knockouts():
        llsc_open = {r.name for r in run_battery(LLSC).open_paths}
        out = {}
        for label, cfg in knockouts.items():
            opened = {r.name for r in run_battery(cfg).open_paths}
            out[label] = sorted(opened - llsc_open)
        return out

    reopened = benchmark.pedantic(run_knockouts, rounds=1, iterations=1)
    print_table("E14: paths reopened by removing one control",
                ["control removed", "reopened paths"],
                [[k, ", ".join(v) or "(none)"] for k, v in reopened.items()])
    benchmark.extra_info["knockouts"] = reopened
    e14_result["knockouts"] = reopened
    assert "ps-snoop" in reopened["hidepid=0"]
    assert "squeue-snoop" in reopened["PrivateData off"]
    assert "co-residency" in reopened["policy=shared"]
    assert "ssh-without-job" in reopened["pam_slurm off"]
    assert "tmp-world-file" in reopened["no FPH/smask"]
    assert "tcp-connect-cross-user" in reopened["UBF off"]
    assert "portal-unauthenticated" in reopened["portal auth off"]
    # GPU measures knocked out but whole-node policy still prevents
    # concurrent access; the residue path reopens
    assert "gpu-residue" in reopened["no GPU measures"]
    # sysctls off reopen the symlink redirect; the hardlink pin stays
    # closed because the smask independently denies the read
    assert reopened["link sysctls off"] == ["tmp-symlink-redirect"]
    # no knockout breaks an unrelated area
    assert "tcp-connect-cross-user" not in reopened["hidepid=0"]
    assert "ps-snoop" not in reopened["UBF off"]


def test_e14_battery_cost(benchmark):
    """Wall-clock of one full 33-probe audit (fresh cluster per probe)."""
    report = benchmark.pedantic(lambda: run_battery(LLSC),
                                rounds=1, iterations=1)
    assert len(report.results) == 33
