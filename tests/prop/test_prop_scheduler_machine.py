"""Model-based testing: scheduler resource-accounting invariants.

Random submit/advance/cancel sequences against the scheduler; after every
step, structural invariants must hold regardless of order:

* no node is ever over-committed (used ≤ total for cores, memory, GPUs);
* under WHOLE_NODE_USER no node ever hosts jobs of two different uids;
* a GPU index is never double-allocated;
* finished jobs hold no allocations, and every running job's allocations
  are mirrored on the nodes;
* a plain user's ``squeue`` under PrivateData, served from the per-uid
  live-job index, equals a full filter of the job table by uid;
* each node's free counters and tenant-uid view equal what its
  allocation table sums to;
* each partition's free-capacity index equals one rebuilt from scratch
  (drains, resumes and failures included), so incremental updates move
  every membership they should and no other.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.kernel import LinuxNode, NodeSpec, UserDB
from repro.sched import (
    ComputeNode,
    JobSpec,
    JobState,
    NodeSharing,
    Scheduler,
    SchedulerConfig,
)
from repro.sched.dispatch_index import PartitionIndex
from repro.sched.privatedata import PrivateData, SchedulerView
from repro.sim import Engine

policies = st.sampled_from([NodeSharing.SHARED, NodeSharing.EXCLUSIVE,
                            NodeSharing.WHOLE_NODE_USER])


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.userdb = UserDB()
        self.users = [self.userdb.add_user(f"user{i}") for i in range(3)]
        self.engine = Engine()
        self.cnodes = [
            ComputeNode.create(LinuxNode(f"n{i}", self.userdb,
                                         spec=NodeSpec(cores=8,
                                                       mem_mb=8000,
                                                       gpus=2)))
            for i in range(3)
        ]
        self.policy = NodeSharing.WHOLE_NODE_USER
        self.sched = Scheduler(self.engine, self.cnodes,
                               SchedulerConfig(policy=self.policy))
        self.submitted = []

    @rule(user_i=st.integers(0, 2), ntasks=st.integers(1, 6),
          gpus=st.integers(0, 1), duration=st.floats(1.0, 50.0),
          mem=st.integers(100, 4000))
    def submit(self, user_i, ntasks, gpus, duration, mem):
        spec = JobSpec(user=self.users[user_i], name="j", ntasks=ntasks,
                       mem_mb_per_task=mem, gpus_per_task=gpus)
        self.submitted.append(self.sched.submit(spec, duration))

    @rule(dt=st.floats(0.5, 30.0))
    def advance(self, dt):
        self.engine.run(until=self.engine.now + dt)

    @rule(idx=st.integers(0, 200))
    def cancel(self, idx):
        if not self.submitted:
            return
        job = self.submitted[idx % len(self.submitted)]
        if not job.state.finished:
            self.sched.cancel(job, by=job.spec.user)

    @rule(kind=st.sampled_from(["drain", "resume", "fail"]),
          node_i=st.integers(0, 2))
    def administer(self, kind, node_i):
        name = self.cnodes[node_i].name
        if kind == "drain":
            self.sched.drain(name)
        elif kind == "resume":
            self.sched.resume(name)
        else:
            self.sched.fail_node(name)

    @invariant()
    def no_overcommit(self):
        for node in self.cnodes:
            assert 0 <= node.used_cores <= node.total_cores
            assert 0 <= node.used_mem_mb <= node.total_mem_mb
            assert len(node.used_gpu_indices) <= len(node.gpus)

    @invariant()
    def single_user_per_node(self):
        for node in self.cnodes:
            uids = node.running_uids()
            assert len(uids) <= 1, uids

    @invariant()
    def gpu_indices_unique(self):
        for node in self.cnodes:
            indices = [i for a in node.allocations.values()
                       for i in a.gpu_indices]
            assert len(indices) == len(set(indices))

    @invariant()
    def allocations_consistent(self):
        for job in self.sched.jobs.values():
            if job.state.finished:
                for node in self.cnodes:
                    assert job.job_id not in node.allocations
            elif job.state is JobState.RUNNING:
                for alloc in job.allocations:
                    node = self.sched.nodes[alloc.node]
                    assert node.allocations.get(job.job_id) is alloc

    @invariant()
    def private_squeue_is_own_unfinished_jobs(self):
        assert_private_squeue_matches_job_table(self.sched, self.users)

    @invariant()
    def node_counters_match_allocation_table(self):
        for node in self.cnodes:
            allocs = node.allocations.values()
            assert node.free_cores == \
                node.total_cores - sum(a.cores for a in allocs)
            assert node.free_mem_mb == \
                node.total_mem_mb - sum(a.mem_mb for a in allocs)
            held = [i for a in allocs for i in a.gpu_indices]
            assert node.free_gpus == len(node.gpus) - len(held)
            assert node.uids == {self.sched.jobs[jid].uid
                                 for jid in node.allocations}

    @invariant()
    def dispatch_index_matches_a_rebuild(self):
        for index in self.sched._pindex.values():
            fresh = PartitionIndex(index.partition, self.sched.nodes)
            assert index_state(index) == index_state(fresh)


def index_state(index: PartitionIndex) -> tuple:
    """Every membership a :class:`PartitionIndex` records."""
    return (index.idle, index.by_cores, index.open_all, index.user_nodes,
            index._bucket_of, index._user_of)


def assert_private_squeue_matches_job_table(sched, users):
    """Each user's ``squeue`` under ``PrivateData.all_private()`` lists
    exactly their unfinished jobs of ``sched.jobs``, in the same order."""
    view = SchedulerView(sched, PrivateData.all_private())
    for user in users:
        expected = [j.job_id for j in sched.jobs.values()
                    if j.uid == user.uid and not j.state.finished]
        assert [r.job_id for r in view.squeue(user)] == expected


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = settings(max_examples=25,
                                         stateful_step_count=30,
                                         deadline=None)
