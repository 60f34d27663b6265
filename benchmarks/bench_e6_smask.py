"""E6 + E7 — filesystem separation: UPG + root-owned homes + smask (§IV-C).

E6 claim: with the File Permission Handler (smask=007) on a UPG system with
root-owned homes, *every* filesystem sharing path is blocked except the
approved project group — world bits (create and chmod), /tmp and /dev/shm
drops, ACL grants to non-members, chgrp tricks, home-directory walks.  The
pre-LU-4746 Lustre bypass reopens exactly the scratch-create path.

E7 claim: ``smask_relax`` lets support staff publish world-readable data;
plain users cannot.

Series printed: per-path outcome under BASELINE / LLSC / LLSC+old-Lustre.

Both claims run on the simulation clock, so they are host-independent.
``test_e6_filesystem_matrix`` and ``test_e7_smask_relax`` record into
``benchmarks/results/e6_smask.json``: the 9 x 3 matrix (``true`` where a
path is open) and E7's five results.  ``python benchmarks/gate.py E6``
checks them against the exact rules in ``benchmarks/baselines/e6.json``.
``test_e6_create_cost`` is a pytest-benchmark timing and records nothing.
"""

import pytest

from repro import BASELINE, LLSC, ablate, run_battery, smask_relax, standard_cluster
from repro.core.attacks import (
    AclUserGrant,
    ChgrpSharedGroup,
    ChmodWorldHome,
    DevShmFile,
    HomeWalk,
    ProjectGroupShare,
    SmaskWorldPublish,
    TmpFilenameEnum,
    TmpWorldFile,
)
from repro.kernel.errors import KernelError

from _helpers import print_table, write_result

FS_ATTACKS = (ChmodWorldHome(), TmpWorldFile(), DevShmFile(),
              AclUserGrant(), ChgrpSharedGroup(), HomeWalk(),
              TmpFilenameEnum(), SmaskWorldPublish(), ProjectGroupShare())

CONFIGS = {
    "BASELINE": BASELINE,
    "LLSC": LLSC,
    "LLSC+oldLustre": ablate(LLSC, lustre_honors_smask=False),
}


@pytest.fixture(scope="module")
def e6_result():
    """The result document both claim tests fill; written after them."""
    doc: dict = {}
    yield doc
    write_result("e6_smask", doc, full=False)


def fs_matrix() -> dict[str, dict[str, bool]]:
    out: dict[str, dict[str, bool]] = {}
    for label, cfg in CONFIGS.items():
        report = run_battery(cfg, attacks=FS_ATTACKS)
        out[label] = {r.name: r.leaked for r in report.results}
    return out


def test_e6_filesystem_matrix(benchmark, e6_result):
    matrix = benchmark.pedantic(fs_matrix, rounds=1, iterations=1)
    names = [a.name for a in FS_ATTACKS]
    rows = [[n] + [("open" if matrix[c][n] else "blocked")
                   for c in CONFIGS] for n in names]
    print_table("E6: filesystem sharing paths", ["path"] + list(CONFIGS),
                rows)
    benchmark.extra_info["matrix"] = matrix
    e6_result["matrix"] = matrix
    llsc = matrix["LLSC"]
    # LLSC: everything blocked except the documented residual (names in
    # world-writable dirs) and the sanctioned project path
    assert llsc == {
        "chmod-world-home": False, "tmp-world-file": False,
        "dev-shm-file": False, "acl-user-grant": False,
        "chgrp-shared-group": False, "home-walk": False,
        "tmp-filename-enum": True, "scratch-world-create": False,
        "project-group-share": True,
    }
    # BASELINE: broadly open
    base = matrix["BASELINE"]
    assert sum(base[n] for n in names) >= 8
    # old Lustre reopens exactly the scratch create path
    old = matrix["LLSC+oldLustre"]
    assert old["scratch-world-create"] is True
    diff = {n for n in names if old[n] != llsc[n]}
    assert diff == {"scratch-world-create"}


def test_e7_smask_relax(benchmark, e6_result):
    def relax_trial():
        cluster = standard_cluster(LLSC)
        results = {}
        sam = cluster.login("sam")
        st = sam.sys.create("/scratch/model-a.bin", mode=0o644, data=b"x")
        results["staff before relax"] = bool(st.mode & 0o004)
        smask_relax(cluster, sam)
        st = sam.sys.create("/scratch/model-b.bin", mode=0o644, data=b"x")
        results["staff after relax"] = bool(st.mode & 0o004)
        st = sam.sys.create("/scratch/tool.sh", mode=0o777, data=b"x")
        results["staff world-write after relax"] = bool(st.mode & 0o002)
        try:
            smask_relax(cluster, cluster.login("alice"))
            results["plain user relax"] = True
        except KernelError:
            results["plain user relax"] = False
        bob = cluster.login("bob")
        results["other user reads published"] = (
            bob.sys.open_read("/scratch/model-b.bin") == b"x")
        return results

    results = benchmark.pedantic(relax_trial, rounds=1, iterations=1)
    print_table("E7: smask_relax publishing",
                ["step", "granted"], [[k, v] for k, v in results.items()])
    e6_result["smask_relax"] = results
    assert results == {
        "staff before relax": False,
        "staff after relax": True,
        "staff world-write after relax": False,
        "plain user relax": False,
        "other user reads published": True,
    }


def test_e6_create_cost(benchmark):
    """smask is one AND on the create path: measure absolute create cost
    under the full LLSC handler (there is no expensive branch to hit)."""
    cluster = standard_cluster(LLSC)
    alice = cluster.login("alice")
    counter = iter(range(10**9))

    def create_one():
        alice.sys.create(f"/home/alice/f{next(counter)}", mode=0o640,
                         data=b"data")

    benchmark(create_one)
