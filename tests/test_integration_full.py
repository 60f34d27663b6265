"""Full-stack integration: one scenario crossing every subsystem at once.

A condensed 'accreditation day': build the LLSC cluster, instrument it, run
real multi-user work (modules, sbatch CLI, batch scripts, MPI, GPU, portal,
scp), let an adversary probe everything, then produce the posture report —
and assert the cross-subsystem invariants hold simultaneously.
"""

import pytest

from repro import Cluster, LLSC, run_battery, smask_relax
from repro.core.compliance import check_compliance
from repro.core.report import posture_report
from repro.kernel.errors import ConnectionRefused, KernelError
from repro.modules import ModuleFile, ModuleSystem, publish_module
from repro.monitor import audited_session, detect_probe_patterns, instrument_cluster
from repro.portal.webapp import launch_webapp
from repro.sched import JobState
from repro.shell import sbatch
from repro.transfer import scp
from repro.workloads.apps import submit_monte_carlo_pi, submit_training


@pytest.fixture(scope="module")
def world():
    cluster = Cluster.build(
        LLSC, n_compute=6, n_debug=1, n_dtn=1, gpus_per_node=1,
        users=("alice", "bob", "mallory"), staff=("sam",),
        projects={"fusion": ("alice", "bob")})
    log = instrument_cluster(cluster)

    # staff publish software
    sam = smask_relax(cluster, cluster.login("sam"))
    publish_module(sam.node, sam.creds, "/scratch/modulefiles",
                   ModuleFile(name="stack", version="1.0",
                              prepend_path={"PATH": ("/sw/bin",)}))

    # alice: modules + sbatch + apps + portal + scp
    alice = cluster.login("alice")
    ModuleSystem(alice.node).load(alice.process, "stack")
    _, sb_jobs = sbatch(alice, "-J sim -n 4 -t 30:00 ./sim")
    pi_job = submit_monte_carlo_pi(cluster, "alice", samples=50_000)
    train = submit_training(cluster, "alice", steps=50, duration=60.0)
    nb_job = cluster.submit("alice", name="nb", duration=5000.0)
    cluster.run(until=2.0)
    shell = cluster.job_session(nb_job)
    app = launch_webapp(shell.node, shell.process, 8888, "alice-nb")
    cluster.portal.register(app)
    alice.sys.create("/tmp/stage.bin", mode=0o600, data=b"S" * 512)
    scp(cluster, alice, "/tmp/stage.bin", "dtn1:/scratch/stage.bin")

    # bob: project collaboration + his own work
    bob = cluster.login("bob").sg("fusion")
    bob.sys.create("/home/proj/fusion/shared.npz", mode=0o660, data=b"d")
    sbatch(cluster.login("bob"), "-J bobwork -n 2 -t 10:00 ./b")

    # mallory: probes everything
    mallory = cluster.login("mallory")
    msys = audited_session(mallory, log)
    for path in ("/home/alice/pi-estimate.txt", "/home/alice/checkpoint.pkl",
                 "/home/proj/fusion/shared.npz", "/home/bob/x"):
        with pytest.raises(KernelError):
            msys.open_read(path)
    with pytest.raises(KernelError):
        mallory.socket().connect(app.node.name, 8888)
    with pytest.raises(KernelError):
        cluster.portal.connect(cluster.portal.login("mallory").token,
                               app.app_id)
    with pytest.raises(KernelError):
        cluster.ssh("mallory", nb_job.nodes[0])
    with pytest.raises(KernelError):
        scp(cluster, mallory, "dtn1:/scratch/stage.bin", "/tmp/loot")

    # alice reaches her notebook through the portal while its job runs
    page = cluster.portal.connect(cluster.portal.login("alice").token,
                                  app.app_id)

    cluster.run(until=6000.0)
    return cluster, log, {
        "sb_jobs": sb_jobs, "pi_job": pi_job, "train": train,
        "nb_job": nb_job, "app": app, "page": page,
    }


class TestEverythingAtOnce:
    def test_all_legitimate_work_completed(self, world):
        cluster, _, jobs = world
        assert jobs["sb_jobs"][0].state is JobState.COMPLETED
        assert jobs["pi_job"].state is JobState.COMPLETED
        assert jobs["train"].job.state is JobState.COMPLETED
        alice = cluster.login("alice")
        assert alice.sys.access("/home/alice/pi-estimate.txt", 4)
        assert alice.sys.access("/home/alice/checkpoint.pkl", 4)

    def test_portal_worked_for_owner(self, world):
        cluster, _, jobs = world
        assert b"alice-nb" in jobs["page"]
        # the notebook's job has ended, and its listener went with it
        token = cluster.portal.login("alice").token
        with pytest.raises(ConnectionRefused):
            cluster.portal.connect(token, jobs["app"].app_id)

    def test_project_sharing_worked(self, world):
        cluster, _, _ = world
        alice = cluster.login("alice")
        assert alice.sys.open_read("/home/proj/fusion/shared.npz") == b"d"

    def test_gpu_clean_after_campaign(self, world):
        cluster, _, _ = world
        assert all(not g.dirty for cn in cluster.compute_nodes
                   for g in cn.gpus)

    def test_adversary_flagged_and_only_adversary(self, world):
        cluster, log, _ = world
        alerts = detect_probe_patterns(log)
        assert [a.subject_uid for a in alerts] == \
            [cluster.user("mallory").uid]
        assert len(alerts[0].kinds) >= 2

    def test_fleet_still_compliant_after_campaign(self, world):
        cluster, _, _ = world
        report = check_compliance(cluster)
        assert report.compliant, [str(f) for f in report.findings]

    def test_posture_report_renders(self, world):
        cluster, _, _ = world
        audit = run_battery(cluster.config)
        compliance = check_compliance(cluster)
        doc = posture_report(cluster, audit=audit, compliance=compliance)
        assert "# Security posture — configuration 'LLSC'" in doc
        assert "All" in doc and "checks passed" in doc
        assert "3 of" in doc and "documented residuals" in doc
        assert "Sanctioned project-group sharing: functional." in doc
        assert "| net-deny |" in doc or "| fs-deny |" in doc

    def test_no_leftover_processes(self, world):
        cluster, _, jobs = world
        for cn in cluster.compute_nodes:
            leftover = [p for p in cn.node.procs.processes()
                        if p.job_id is not None
                        and cluster.scheduler.jobs[p.job_id].state.finished]
            assert leftover == []

    def test_no_leftover_sockets(self, world):
        cluster, _, _ = world
        for stack in cluster.fabric.hosts():
            held = [*stack._sockets.values(), *stack._abstract.values()]
            assert [s for s in held
                    if not s.closed and not s.owner.alive] == []
