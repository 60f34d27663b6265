"""Unit tests: PrivateData filtering, GPU prolog/epilog, accounting views."""

import pytest

from repro.kernel import ROOT_CREDS
from repro.kernel.errors import AccessDenied as EACCES
from repro.sched import (
    GPU_MODE_ASSIGNED,
    GPU_MODE_UNASSIGNED,
    GpuSeparationConfig,
    JobState,
    PrivateData,
    SchedulerView,
    gpu_dev_path,
)

from tests.sched.conftest import build_sched, spec


def populated_sched(userdb, private: PrivateData, operators=frozenset()):
    engine, sched = build_sched(userdb, n_nodes=2, cores=8)
    a = sched.submit(spec(userdb, "alice", name="secret-proj",
                          command="./classified.sh"), duration=5.0)
    b = sched.submit(spec(userdb, "bob", name="bob-job"), duration=50.0)
    engine.run(until=10.0)  # alice finished, bob running
    return engine, sched, SchedulerView(sched, private, operators)


class TestSqueue:
    def test_default_shows_everyone(self, userdb):
        _, _, view = populated_sched(userdb, PrivateData())
        rows = view.squeue(userdb.user("alice"))
        assert {r.user_name for r in rows} == {"bob"}

    def test_private_jobs_hides_others(self, userdb):
        _, _, view = populated_sched(userdb, PrivateData.all_private())
        rows = view.squeue(userdb.user("alice"))
        assert rows == []  # alice's job finished; bob's is hidden
        rows_bob = view.squeue(userdb.user("bob"))
        assert {r.user_name for r in rows_bob} == {"bob"}

    def test_private_jobs_hides_command_and_name(self, userdb):
        _, _, view = populated_sched(userdb, PrivateData.all_private())
        leaked = [r for r in view.squeue(userdb.user("bob"))
                  if "classified" in r.command or r.job_name == "secret-proj"]
        assert not leaked

    def test_root_sees_all(self, userdb):
        _, _, view = populated_sched(userdb, PrivateData.all_private())
        rows = view.squeue(userdb.user("root"))
        assert {r.user_name for r in rows} == {"bob"}

    def test_operator_sees_all(self, userdb):
        sam = userdb.user("sam")
        _, _, view = populated_sched(userdb, PrivateData.all_private(),
                                     operators=frozenset({sam.uid}))
        rows = view.squeue(sam)
        assert {r.user_name for r in rows} == {"bob"}


class TestSacct:
    def test_private_usage_restricts_accounting(self, userdb):
        _, _, view = populated_sched(userdb, PrivateData.all_private())
        recs = view.sacct(userdb.user("bob"))
        assert all(r.user_name == "bob" for r in recs)
        recs_alice = view.sacct(userdb.user("alice"))
        assert {r.user_name for r in recs_alice} == {"alice"}

    def test_open_usage_shows_all(self, userdb):
        _, _, view = populated_sched(userdb, PrivateData())
        recs = view.sacct(userdb.user("bob"))
        assert {r.user_name for r in recs} == {"alice"}

    def test_user_enumeration_blocked(self, userdb):
        _, _, view = populated_sched(userdb, PrivateData.all_private())
        names = view.sreport_users(userdb.user("alice"))
        assert names == {"alice"}


class TestGpuProlog:
    def _gpu_sched(self, userdb, separation: bool):
        cfg = GpuSeparationConfig() if separation else None
        return build_sched(
            userdb, n_nodes=1, cores=8, gpus=2,
            gpu_separation=cfg,
            gpu_dev_mode=GPU_MODE_UNASSIGNED if separation else 0o666)

    def test_allocated_gpu_owned_by_user_private_group(self, userdb):
        engine, sched = self._gpu_sched(userdb, separation=True)
        job = sched.submit(spec(userdb, "alice", gpus_per_task=1),
                           duration=10.0)
        engine.run(until=1.0)
        node = sched.nodes[job.nodes[0]]
        idx = job.allocations[0].gpu_indices[0]
        st = node.node.vfs.stat(gpu_dev_path(idx), ROOT_CREDS)
        assert st.mode == GPU_MODE_ASSIGNED
        assert st.gid == userdb.user("alice").primary_gid

    def test_unallocated_gpu_invisible(self, userdb):
        engine, sched = self._gpu_sched(userdb, separation=True)
        job = sched.submit(spec(userdb, "alice", gpus_per_task=1),
                           duration=10.0)
        engine.run(until=1.0)
        node = sched.nodes[job.nodes[0]]
        used = set(job.allocations[0].gpu_indices)
        free = next(i for i in range(2) if i not in used)
        creds = userdb.credentials_for(userdb.user("alice"))
        with pytest.raises(EACCES):
            node.node.vfs.read(gpu_dev_path(free), creds)

    def test_stranger_cannot_open_allocated_gpu(self, userdb):
        engine, sched = self._gpu_sched(userdb, separation=True)
        job = sched.submit(spec(userdb, "alice", gpus_per_task=1),
                           duration=10.0)
        engine.run(until=1.0)
        node = sched.nodes[job.nodes[0]]
        idx = job.allocations[0].gpu_indices[0]
        bob = userdb.credentials_for(userdb.user("bob"))
        with pytest.raises(EACCES):
            node.node.vfs.read(gpu_dev_path(idx), bob)

    def test_epilog_scrubs_and_resets_perms(self, userdb):
        engine, sched = self._gpu_sched(userdb, separation=True)
        job = sched.submit(spec(userdb, "alice", gpus_per_task=1),
                           duration=5.0)
        engine.run(until=1.0)
        node = sched.nodes[job.nodes[0]]
        idx = job.allocations[0].gpu_indices[0]
        alice = userdb.credentials_for(userdb.user("alice"))
        node.node.vfs.write(gpu_dev_path(idx), alice, b"model-weights")
        assert node.gpu(idx).dirty
        engine.run()
        assert job.state is JobState.COMPLETED
        assert not node.gpu(idx).dirty
        assert node.gpu(idx).scrub_count == 1
        st = node.node.vfs.stat(gpu_dev_path(idx), ROOT_CREDS)
        assert st.mode == GPU_MODE_UNASSIGNED

    def test_stock_config_leaks_gpu_memory(self, userdb):
        """BASELINE: no prolog/epilog, 0666 devices: the next user reads the
        previous user's residue (Section IV-F hazard)."""
        engine, sched = self._gpu_sched(userdb, separation=False)
        job = sched.submit(spec(userdb, "alice", gpus_per_task=1),
                           duration=5.0)
        engine.run(until=1.0)
        node = sched.nodes[job.nodes[0]]
        idx = job.allocations[0].gpu_indices[0]
        alice = userdb.credentials_for(userdb.user("alice"))
        node.node.vfs.write(gpu_dev_path(idx), alice, b"alice-weights")
        engine.run()  # alice's job ends; no scrub
        bob = userdb.credentials_for(userdb.user("bob"))
        residue = node.node.vfs.read(gpu_dev_path(idx), bob)
        assert residue.startswith(b"alice-weights")
