"""Unit + integration tests: cluster assembly, sessions, storage layout,
support tools (seepid / smask_relax)."""

import pytest

from repro import BASELINE, LLSC, Cluster, seepid, smask_relax
from repro.core import standard_cluster
from repro.kernel import (
    PAPER_SMASK,
    ROOT_CREDS,
    PamSlurm,
    PamStack,
    ProcMountOptions,
)
from repro.kernel.errors import AccessDenied, PermissionError_
from repro.observer import Observer
from repro.oracle import attach_oracle
from repro.sched import NodeSharing


@pytest.fixture(scope="module")
def llsc():
    return standard_cluster(LLSC)


@pytest.fixture(scope="module")
def baseline():
    return standard_cluster(BASELINE)


class TestBuild:
    def test_topology(self, llsc):
        assert len(llsc.compute_nodes) == 4
        assert len(llsc.login_nodes) == 1
        assert llsc.portal_node.name == "portal"
        assert llsc.scheduler.total_cores == 4 * 16

    def test_ubf_daemons_per_host(self, llsc, baseline):
        assert set(llsc.ubf_daemons) == {"login1", "c1", "c2", "c3", "c4",
                                         "portal"}
        assert baseline.ubf_daemons == {}

    def test_policy_wired(self, llsc, baseline):
        assert llsc.scheduler.config.policy is NodeSharing.WHOLE_NODE_USER
        assert baseline.scheduler.config.policy is NodeSharing.SHARED

    def test_project_group_created(self, llsc):
        grp = llsc.userdb.group("fusion")
        carol = llsc.user("carol")
        dave = llsc.user("dave")
        assert grp.stewards == {carol.uid}
        assert dave.uid in grp.members

    def test_seepid_group_only_when_configured(self, llsc, baseline):
        assert llsc.seepid_group is not None
        assert baseline.seepid_group is None

    def test_config_describe(self):
        d = LLSC.describe()
        assert d["name"] == "LLSC" and d["hidepid"] == 2
        assert d["smask"] == "0o7"


class TestStorageLayout:
    def test_llsc_homes_root_owned(self, llsc):
        st = llsc.login_nodes[0].vfs.stat("/home/alice", ROOT_CREDS)
        assert st.uid == 0
        assert st.gid == llsc.user("alice").primary_gid
        assert st.mode == 0o770

    def test_baseline_homes_user_owned_755(self, baseline):
        st = baseline.login_nodes[0].vfs.stat("/home/alice", ROOT_CREDS)
        assert st.uid == baseline.user("alice").uid
        assert st.mode == 0o755

    def test_project_dir_setgid(self, llsc):
        st = llsc.login_nodes[0].vfs.stat("/home/proj/fusion", ROOT_CREDS)
        assert st.mode == 0o2770
        assert st.gid == llsc.userdb.group("fusion").gid

    def test_home_shared_across_nodes(self, llsc):
        alice = llsc.login("alice")
        alice.sys.create("/home/alice/x.dat", mode=0o600, data=b"d")
        creds = llsc.userdb.credentials_for(llsc.user("alice"))
        for cn in llsc.compute_nodes:
            assert cn.node.vfs.read("/home/alice/x.dat", creds) == b"d"

    def test_scratch_world_writable_sticky(self, llsc):
        st = llsc.login_nodes[0].vfs.stat("/scratch", ROOT_CREDS)
        assert st.mode == 0o1777


class TestSessions:
    def test_login_session_smask(self, llsc, baseline):
        assert llsc.login("alice").creds.smask == PAPER_SMASK
        assert baseline.login("alice").creds.smask == 0

    def test_pam_slurm_blocks_jobless_ssh(self, llsc):
        with pytest.raises(AccessDenied):
            llsc.ssh("alice", "c1")

    def test_ssh_allowed_with_running_job(self):
        cluster = standard_cluster(LLSC)
        job = cluster.submit("alice", duration=100.0)
        cluster.run(until=1.0)
        session = cluster.ssh("alice", job.nodes[0])
        assert session.creds.uid == cluster.user("alice").uid

    def test_baseline_ssh_unrestricted(self, baseline):
        session = baseline.ssh("alice", "c1")
        assert session.node.name == "c1"

    def test_job_session_binds_job(self):
        cluster = standard_cluster(LLSC)
        job = cluster.submit("alice", duration=100.0)
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        assert shell.process.job_id == job.job_id
        assert shell.creds.smask == PAPER_SMASK

    def test_sg_switches_egid(self):
        cluster = standard_cluster(LLSC)
        carol = cluster.login("carol").sg("fusion")
        assert carol.creds.egid == cluster.userdb.group("fusion").gid

    def test_node_lookup_unknown(self, llsc):
        from repro.kernel.errors import NoSuchEntity
        with pytest.raises(NoSuchEntity):
            llsc.node("zzz")


class TestNodeWiring:
    def test_one_pam_stack_per_node(self, monkeypatch):
        built = []
        post_init = PamStack.__post_init__

        def counted(stack):
            built.append(stack)
            post_init(stack)

        monkeypatch.setattr(PamStack, "__post_init__", counted)
        cluster = Cluster.build(LLSC, n_compute=64, gpus_per_node=2)
        nodes = (cluster.login_nodes + cluster.dtn_nodes
                 + [cluster.portal_node]
                 + [cn.node for cn in cluster.compute_nodes])
        assert len(built) == len(nodes) == 66
        assert {id(n.pam) for n in nodes} == {id(s) for s in built}
        for cn in cluster.compute_nodes:
            assert isinstance(cn.node.pam.modules[-1], PamSlurm)

    def test_proc_remount_keeps_attached_planes(self):
        """A /proc remount changes the mount's options, not who watches
        it: a listing after the remount still reaches every plane."""
        cluster = Cluster.build(LLSC, n_compute=1)
        oracle = attach_oracle(cluster)
        listings = []

        class Listings(Observer):
            def procfs_viewed(self, fs, viewer, procs, op, uids=None):
                listings.append((viewer.uid, op))

        cluster.subscribe(Listings())
        job = cluster.submit("bob", duration=10.0)
        cluster.run(until=1.0)
        node = cluster.compute_nodes[0].node
        node.set_proc_options(ProcMountOptions(hidepid=0))
        alice = cluster.userdb.credentials_for(cluster.userdb.user("alice"))
        del listings[:]
        checks = oracle.checks_for("I1")
        rows = node.procfs.ps(alice)
        assert job.uid in {row.uid for row in rows}  # hidepid=0 holds
        # (the oracle's shadow lists once more, as the same viewer)
        assert set(listings) == {(alice.uid, "ps")}
        assert oracle.checks_for("I1") == checks + 1


class TestSubscribe:
    def test_observers_together_order_like_one_call_each(self):
        """Subscribing several observers in one call walks the points
        once and leaves every container, the cluster's and the health
        monitor's included, as one call per observer would."""
        from repro.sched.health import attach_health

        class Tagged(Observer):
            def __init__(self, tag):
                self.tag = tag

        def containers(cluster):
            nodes = (cluster.login_nodes + cluster.dtn_nodes
                     + [cluster.portal_node]
                     + [cn.node for cn in cluster.compute_nodes])
            points = [cluster, cluster.scheduler, cluster.userdb,
                      cluster.portal, cluster.fabric.faults, cluster.health,
                      *cluster.ubf_daemons.values(),
                      *(g for cn in cluster.compute_nodes for g in cn.gpus),
                      *(p for n in nodes for p in (n.procfs, n.vfs, n.pam))]
            return [[o.tag for o in p.observers if isinstance(o, Tagged)]
                    for p in points]

        together, apart = (Cluster.build(LLSC, n_compute=2, gpus_per_node=1)
                           for _ in range(2))
        for cluster in (together, apart):
            attach_health(cluster)
            cluster.subscribe(Tagged("first"))
        together.subscribe(*(Tagged(t) for t in "abcd"))
        for t in "abcd":
            apart.subscribe(Tagged(t))
        assert containers(together) == containers(apart)
        assert {tuple(tags) for tags in containers(together)} == {
            ("first", "a", "b", "c", "d")}


class TestSeepid:
    def test_staff_gains_visibility(self):
        cluster = standard_cluster(LLSC)
        cluster.login("alice").sys.spawn_child(["secret-job"])
        sam = cluster.login("sam")
        before = {r.uid for r in sam.sys.ps()}
        seepid(cluster, sam)
        after = {r.uid for r in sam.sys.ps()}
        assert cluster.user("alice").uid not in before
        assert cluster.user("alice").uid in after

    def test_non_staff_denied(self):
        cluster = standard_cluster(LLSC)
        bob = cluster.login("bob")
        with pytest.raises(PermissionError_):
            seepid(cluster, bob)

    def test_unconfigured_system_denied(self):
        cluster = standard_cluster(BASELINE)
        sam = cluster.login("sam")
        with pytest.raises(PermissionError_):
            seepid(cluster, sam)


class TestSmaskRelax:
    def test_staff_can_publish_world_readable(self):
        cluster = standard_cluster(LLSC)
        sam = cluster.login("sam")
        # before relax: smask strips world bits
        st = sam.sys.create("/scratch/model-v1.bin", mode=0o644, data=b"w")
        assert st.mode & 0o007 == 0
        smask_relax(cluster, sam)
        st2 = sam.sys.create("/scratch/model-v2.bin", mode=0o644, data=b"w")
        assert st2.mode == 0o644
        # any user can now read the published artifact
        bob = cluster.login("bob")
        assert bob.sys.open_read("/scratch/model-v2.bin") == b"w"

    def test_world_write_still_blocked(self):
        cluster = standard_cluster(LLSC)
        sam = smask_relax(cluster, cluster.login("sam"))
        st = sam.sys.create("/scratch/tool.sh", mode=0o777, data=b"#!")
        assert st.mode & 0o002 == 0  # w bit for other never granted

    def test_non_staff_denied(self):
        cluster = standard_cluster(LLSC)
        with pytest.raises(PermissionError_):
            smask_relax(cluster, cluster.login("alice"))


class TestSubmitApi:
    def test_submit_and_run(self):
        cluster = standard_cluster(LLSC)
        job = cluster.submit("alice", ntasks=4, duration=10.0)
        cluster.run()
        assert job.state.finished
        assert job.core_seconds() == pytest.approx(40.0)

    def test_gpu_job(self):
        cluster = standard_cluster(LLSC)
        job = cluster.submit("alice", gpus_per_task=1, duration=10.0)
        cluster.run(until=1.0)
        assert job.allocations[0].gpu_indices
