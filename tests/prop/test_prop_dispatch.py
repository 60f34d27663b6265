"""Differential property test: indexed dispatch ≡ the naive reference.

The free-capacity index (``repro.sched.dispatch_index``) is a superset
filter over the naive full-partition scan, and the event-driven wakeups
skip only jobs that provably cannot have become placeable.  If either
claim is off by one node or one event, placements diverge.  This suite
runs random job streams — mixed sizes, policies, backfill settings, GPU
demands, node failures and drains — through both implementations and
requires byte-identical outcomes: per-job allocations, start/end times,
final states, and the accounting record sequence (completion order).

A second property pins the fast first fit itself: every indexed
placement must equal the reference first fit (``Scheduler._plan_over``)
over the same index candidates, plan and examined-node count alike.

The streams also carry the paths where a dispatch pass is re-entered:
prologs that fail (the hook failure drains the node and the job's finish
frees the rest of its allocation in the middle of the pass), batch
scripts that raise, cancels of pending and running jobs, and late
resumes that bring drained nodes back.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernel import LinuxNode, NodeSpec, UserDB
from repro.sched import (
    ComputeNode,
    JobSpec,
    NodeSharing,
    Partition,
    Scheduler,
    SchedulerConfig,
)
from repro.sim import Engine

policies = st.sampled_from([NodeSharing.SHARED, NodeSharing.EXCLUSIVE,
                            NodeSharing.WHOLE_NODE_USER])

jobs_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),        # user index
        st.integers(min_value=1, max_value=6),        # ntasks
        st.integers(min_value=1, max_value=4),        # cores_per_task
        st.sampled_from([0, 500, 2000]),              # mem_mb_per_task
        st.integers(min_value=0, max_value=1),        # gpus_per_task
        st.booleans(),                                # --exclusive
        st.integers(min_value=1, max_value=40),       # duration
        st.integers(min_value=0, max_value=20),       # arrival offset
    ),
    min_size=1, max_size=25,
)

admin_strategy = st.lists(
    st.tuples(
        st.sampled_from(["fail", "drain", "resume"]),
        st.integers(min_value=0, max_value=5),        # node index
        st.integers(min_value=1, max_value=30),       # event time
    ),
    max_size=4,
)

faults_strategy = st.fixed_dictionaries({
    # job index -> the prolog raises on the job's k-th node
    "prolog": st.dictionaries(st.integers(min_value=0, max_value=12),
                              st.integers(min_value=1, max_value=2),
                              max_size=3),
    # job indexes whose batch script raises
    "script": st.frozensets(st.integers(min_value=0, max_value=12),
                            max_size=3),
    # (job index, time): the owner cancels it, pending or running
    "cancel": st.lists(st.tuples(st.integers(min_value=0, max_value=12),
                                 st.integers(min_value=0, max_value=40)),
                       max_size=3),
    # (node index, time): late resumes bring drained nodes back
    "resume": st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                                 st.integers(min_value=10, max_value=80)),
                       max_size=3),
})

NO_FAULTS = {"prolog": {}, "script": frozenset(), "cancel": [],
             "resume": []}


def _failing_prolog(prolog_fails):
    """A prolog that raises on job ``j<i>``'s k-th node for each
    ``i -> k`` in *prolog_fails*, on every attempt of that job."""
    by_name = {f"j{i}": k for i, k in prolog_fails.items()}

    def prolog(job, node):
        if len(job.allocations) == by_name.get(job.spec.name):
            raise RuntimeError(f"prolog failed on {node.name}")
    return prolog


def _raising_script(ctx):
    raise RuntimeError("batch step exited 1")


def _cancel_unless_finished(sched, job):
    if not job.state.finished:
        sched.cancel(job, by=job.spec.user)


def _run_side(*, naive, jobs, admin, n_nodes, cores, mem_mb, gpus,
              policy, backfill, requeue, faults=NO_FAULTS, on_build=None):
    userdb = UserDB()
    users = [userdb.add_user(f"user{i}") for i in range(4)]
    engine = Engine()
    cnodes = [
        ComputeNode.create(
            LinuxNode(f"n{i}", userdb,
                      spec=NodeSpec(cores=cores, mem_mb=mem_mb, gpus=gpus)))
        for i in range(n_nodes)
    ]
    names = tuple(n.name for n in cnodes)
    partitions = [Partition("normal", names),
                  Partition("debug", names[:max(1, n_nodes // 2)],
                            policy_override=NodeSharing.SHARED)]
    sched = Scheduler(engine, cnodes,
                      SchedulerConfig(policy=policy, backfill=backfill,
                                      requeue_on_node_fail=requeue,
                                      naive=naive),
                      partitions=partitions,
                      prolog=_failing_prolog(faults["prolog"]))
    if on_build is not None:
        on_build(sched)
    submitted = []
    for i, (u, ntasks, cpt, mpt, gpt, excl, dur, at) in enumerate(jobs):
        spec = JobSpec(user=users[u], name=f"j{i}", ntasks=ntasks,
                       cores_per_task=cpt, mem_mb_per_task=mpt,
                       gpus_per_task=gpt, exclusive=excl,
                       partition="debug" if i % 3 == 2 else "normal",
                       script=_raising_script if i in faults["script"]
                       else None)
        submitted.append(sched.submit(spec, float(dur), at=float(at)))
    for i, t in faults["cancel"]:
        if i < len(submitted):
            engine.at(float(t), lambda j=submitted[i]:
                      _cancel_unless_finished(sched, j))
    resumes = [("resume", idx, t) for idx, t in faults["resume"]]
    for kind, idx, t in [*admin, *resumes]:
        name = f"n{idx % n_nodes}"
        if kind == "fail":
            engine.at(float(t), lambda n=name: sched.fail_node(n))
        elif kind == "drain":
            engine.at(float(t), lambda n=name: sched.drain(n))
        else:
            engine.at(float(t), lambda n=name: sched.resume(n))
    engine.run()
    outcome = {
        job_id: (job.state, job.start_time, job.end_time,
                 [(a.node, a.tasks, a.cores, a.mem_mb, tuple(a.gpu_indices))
                  for a in job.allocations])
        for job_id, job in sched.jobs.items()
    }
    completions = [(r.job_id, r.state, r.end_time)
                   for r in sched.accounting.all_records()]
    return outcome, completions, sched


#: Every node's memory allocated while some still have free cores: the
#: naive pass must not stop there, since memory-less jobs still fit.
MEMORY_FULL_CORES_FREE = dict(
    jobs=[(0, 1, 1, 0, 0, True, 1, 0), (0, 3, 1, 2000, 0, False, 1, 0),
          *[(0, 1, 1, 0, 0, False, 1, 0)] * 5,
          (0, 5, 1, 2000, 0, False, 1, 0), (0, 1, 1, 0, 0, False, 1, 0)],
    admin=[], n_nodes=5, cores=8, mem_mb=4000, gpus=0,
    policy=NodeSharing.SHARED, requeue=False, faults=NO_FAULTS)


@settings(max_examples=100)
@given(jobs=jobs_strategy, admin=admin_strategy,
       n_nodes=st.integers(min_value=1, max_value=6),
       cores=st.integers(min_value=2, max_value=8),
       mem_mb=st.sampled_from([4000, 16000]),
       gpus=st.integers(min_value=0, max_value=2),
       policy=policies, backfill=st.booleans(), requeue=st.booleans(),
       faults=faults_strategy)
@example(backfill=True, **MEMORY_FULL_CORES_FREE)
@example(backfill=False, **MEMORY_FULL_CORES_FREE)
def test_indexed_dispatch_identical_to_naive(jobs, admin, n_nodes, cores,
                                             mem_mb, gpus, policy, backfill,
                                             requeue, faults):
    kw = dict(jobs=jobs, admin=admin, n_nodes=n_nodes, cores=cores,
              mem_mb=mem_mb, gpus=gpus, policy=policy, backfill=backfill,
              requeue=requeue, faults=faults)
    naive_out, naive_seq, _ = _run_side(naive=True, **kw)
    fast_out, fast_seq, fast_sched = _run_side(naive=False, **kw)
    assert fast_out == naive_out
    assert fast_seq == naive_seq
    # the indexed run's incremental queues must agree with ground truth
    from repro.sched import JobState
    assert {j.job_id for j in fast_sched.running()} == {
        j.job_id for j in fast_sched.jobs.values()
        if j.state is JobState.RUNNING}
    assert {j.job_id for j in fast_sched.pending()} == {
        j.job_id for j in fast_sched.jobs.values()
        if j.state is JobState.PENDING}


def _check_each_placement(sched):
    """Wrap the scheduler's fast first fit so that every call is checked
    against the reference first fit over the same candidates."""
    fast = sched._placement_indexed
    scan = sched.metrics.counter("sched_dispatch_scan")

    def checked(job):
        spec = job.spec
        policy = sched._policy_for(job)
        names = sched._pindex[spec.partition].candidates(
            policy=policy, uid=job.uid, cores_per_task=spec.cores_per_task,
            whole=policy is NodeSharing.EXCLUSIVE or spec.exclusive)
        want, examined = sched._plan_over(
            job, (sched.nodes[n] for n in names))
        before = scan.value
        plan = fast(job)
        assert scan.value - before == examined
        assert _named(plan) == _named(want)
        return plan
    sched._placement_indexed = checked


def _named(plan):
    return None if plan is None else [(n.name, t) for n, t in plan]


@settings(max_examples=50)
@given(jobs=jobs_strategy, admin=admin_strategy,
       n_nodes=st.integers(min_value=1, max_value=6),
       cores=st.integers(min_value=2, max_value=8),
       mem_mb=st.sampled_from([4000, 16000]),
       gpus=st.integers(min_value=0, max_value=2),
       policy=policies, backfill=st.booleans(), requeue=st.booleans(),
       faults=faults_strategy)
@example(backfill=True, **MEMORY_FULL_CORES_FREE)
def test_fast_first_fit_equals_reference_over_candidates(
        jobs, admin, n_nodes, cores, mem_mb, gpus, policy, backfill,
        requeue, faults):
    _run_side(naive=False, jobs=jobs, admin=admin, n_nodes=n_nodes,
              cores=cores, mem_mb=mem_mb, gpus=gpus, policy=policy,
              backfill=backfill, requeue=requeue, faults=faults,
              on_build=_check_each_placement)


@settings(max_examples=25)
@given(jobs=jobs_strategy,
       n_nodes=st.integers(min_value=2, max_value=6),
       policy=policies, backfill=st.booleans())
def test_indexed_utilization_matches_naive(jobs, n_nodes, policy, backfill):
    """utilization()/occupancy() come from incrementally accumulated
    core-seconds; they must equal the naive run's at every horizon."""
    kw = dict(jobs=jobs, admin=[], n_nodes=n_nodes, cores=8, mem_mb=16000,
              gpus=0, policy=policy, backfill=backfill, requeue=False)
    _, _, naive_sched = _run_side(naive=True, **kw)
    _, _, fast_sched = _run_side(naive=False, **kw)
    horizon = max(naive_sched.engine.now, 1.0)
    assert fast_sched.utilization(horizon) == naive_sched.utilization(horizon)
    assert fast_sched.occupancy(horizon) == naive_sched.occupancy(horizon)
