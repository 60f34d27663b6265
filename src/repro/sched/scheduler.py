"""The cluster scheduler: FIFO + simple backfill over a node-sharing policy.

This is the Slurm stand-in of Section IV-B.  It owns:

* the pending queue and the dispatch loop (FIFO order, with an optional
  backfill pass that lets later jobs start when the head job cannot);
* policy-driven placement (:mod:`repro.sched.policies`);
* prolog/epilog hooks — where GPU ``/dev`` permission changes and memory
  scrubs happen (:mod:`repro.sched.prolog_epilog`);
* the job-presence registry pam_slurm consults (ssh gating);
* utilization/wait-time metrics (time-weighted, exact);
* failure semantics for experiment E16: an ``oom_bomb`` job exhausts its
  node's memory halfway through its run, killing every job on that node —
  the "blast radius" the paper's whole-node policy contains.

Backfill here is the reservation-less kind (scan past a blocked head job);
that can delay very wide jobs under sustained small-job load, which is
acceptable for the policy experiments this reproduces and is called out in
DESIGN.md.

Two dispatch implementations coexist (DESIGN.md "Performance architecture"):

* the **indexed** default — a per-partition free-capacity index
  (:mod:`repro.sched.dispatch_index`) supplies first-fit candidates, and
  with backfill a pass examines only jobs that could have become
  placeable: arrivals, requeues and jobs woken from their partition's
  *wake lists*.  A job that fails to place is parked there under its
  placement shape, and a free wakes a shape only if the freed node can
  now take one of its tasks — allocations only ever shrink what a node
  can take.  Without backfill the head-of-line pass runs whenever a
  partition got resources back or a job arrived.  Running/pending sets
  and a per-uid index of unfinished jobs (what a plain user's ``squeue``
  reads) are maintained incrementally;
* the **naive reference** (``SchedulerConfig(naive=True)``) — the original
  full pending x nodes rescan on every event, kept verbatim for
  differential testing: both paths must produce byte-identical placements
  (asserted by ``tests/prop/test_prop_dispatch.py`` and benchmark E24).

The reference is ``_plan_over`` (first fit through
:func:`~repro.sched.policies.tasks_placeable`), ``_placement_for`` and
``_dispatch_naive``.  The oracle's I4 shadow replays ``_placement_for``
against every indexed plan, and E24 times the indexed path against the
naive one.  The indexed path's first fit (``_placement_indexed``) is its
own loop: the policy resolved once, ``tasks_placeable`` written out over
the nodes' plain counters and live uid view.  The reference keeps its
own reads, which build a uid set and a GPU list per node, on purpose:
it is the specification the checks compare against, and E24's speedup
would otherwise measure read style rather than the index (DESIGN.md §8).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.kernel.errors import NoSuchEntity, PermissionError_
from repro.kernel.users import User
from repro.observer import Observers
from repro.sched.accounting import AccountingDB
from repro.sched.dispatch_index import PartitionIndex
from repro.sched.jobs import Job, JobSpec, JobState
from repro.sched.nodes import ComputeNode
from repro.sched.partitions import DEFAULT_PARTITION, Partition
from repro.sched.policies import NodeSharing, tasks_placeable
from repro.sim.engine import Engine
from repro.sim.metrics import MetricSet, TimeWeighted

PrologHook = Callable[[Job, ComputeNode], None]
EpilogHook = Callable[[Job, ComputeNode], None]

#: the counter a job's final state bumps (``jobs_completed``, ...)
_FINISH_COUNTER = {s: f"jobs_{s.name.lower()}" for s in JobState}


def _gather(groups: dict, key, jobs: dict[int, Job]) -> None:
    """Add *jobs* (queue seq -> job, in seq order) to ``groups[key]``,
    keeping every group in seq order so its first key is its head."""
    into = groups.get(key)
    if into is None:
        groups[key] = jobs
    elif next(iter(jobs)) > next(reversed(into)):
        into.update(jobs)
    else:  # interleaved seqs, only when a pass re-enters
        into.update(jobs)
        groups[key] = dict(sorted(into.items()))


@dataclass
class SchedulerConfig:
    """Tunable scheduler behaviour (sharing policy, backfill, dispatch)."""

    policy: NodeSharing = NodeSharing.SHARED
    backfill: bool = True
    #: resubmit NODE_FAIL victims automatically (Slurm's JobRequeue)
    requeue_on_node_fail: bool = False
    #: extra attempts a requeued job may get before it stays NODE_FAIL for
    #: good (a job runs at most ``1 + max_requeues`` times)
    max_requeues: int = 3
    #: use the reference O(pending x nodes) dispatch instead of the
    #: free-capacity index — for differential testing only (E24)
    naive: bool = False


class Scheduler:
    """Event-driven scheduler over a set of :class:`ComputeNode`."""

    def __init__(self, engine: Engine, nodes: list[ComputeNode],
                 config: SchedulerConfig | None = None,
                 metrics: MetricSet | None = None,
                 prolog: PrologHook | None = None,
                 epilog: EpilogHook | None = None,
                 partitions: list[Partition] | None = None):
        self.engine = engine
        self.nodes = {n.name: n for n in nodes}
        self.config = config or SchedulerConfig()
        if partitions is None:
            partitions = [Partition(DEFAULT_PARTITION,
                                    tuple(self.nodes))]
        self.partitions = {p.name: p for p in partitions}
        self.metrics = metrics or MetricSet()
        self.prolog = prolog
        self.epilog = epilog
        self.accounting = AccountingDB()
        #: optional planes (repro.observer) told every decision, in order
        self.observers = Observers()
        #: optional remediation hook run by :meth:`remediate` before a
        #: fenced node rejoins (GPU scrub + /dev perm reset; see
        #: :func:`repro.sched.prolog_epilog.make_remediator`).  None means
        #: only orphan-process reaping happens on remediation.
        self.remediator = None
        #: per-job pending engine events (completion, oom) — cancelled at
        #: finish so a requeued job's stale timers cannot fire into its
        #: next attempt
        self._job_events: dict[int, list[object]] = {}
        #: per-job pending *arrival* events (submitted, not yet queued) —
        #: cancelled on a control-plane crash, re-armed by recovery
        self._arrival_events: dict[int, object] = {}
        #: True between a control-plane crash and its recovery; submission
        #: is refused while the scheduler is dead.
        self.crashed = False
        # explicit counter (not itertools.count) so snapshots can capture
        # and recovery can restore the next job id
        self._next_jid = 1
        self.jobs: dict[int, Job] = {}
        self._queue: list[Job] = []
        self._running: dict[int, Job] = {}
        self._busy_cores = TimeWeighted()    # cores *charged* (occupancy)
        self._useful_cores = TimeWeighted()  # cores running actual tasks
        #: per-job (charged, useful) core counts captured at start so the
        #: finish path never re-derives them from the allocation list
        self._core_charge: dict[int, tuple[int, int]] = {}
        self.total_cores = sum(n.total_cores for n in nodes)
        #: partitions where resources were freed since the last
        #: head-of-line pass (backfill off)
        self._dirty_parts: set[str] = set()
        self.reindex_partitions()  # dispatch and squeue indexes
        self._scan_counter = self.metrics.counter("sched_dispatch_scan")
        #: (wait_time, sched_wait_seconds, jobs_started), resolved by the
        #: first job start
        self._start_series = None

    # -- submission -----------------------------------------------------------

    def submit(self, spec: JobSpec, duration: float, *,
               at: float | None = None, array_id: int | None = None,
               array_index: int | None = None) -> Job:
        """Submit a job; it arrives at time *at* (default: now).

        Raises on an unknown partition or a duration over the partition's
        time limit (sbatch's ``--time`` rejection)."""
        if self.crashed:
            raise RuntimeError(
                "control plane is crashed; recover() before submitting")
        try:
            partition = self.partitions[spec.partition]
        except KeyError:
            raise NoSuchEntity(f"partition {spec.partition!r}") from None
        if not partition.accepts_duration(duration):
            from repro.kernel.errors import InvalidArgument
            raise InvalidArgument(
                f"duration {duration} exceeds partition "
                f"{partition.name!r} limit {partition.max_duration}")
        job = Job(job_id=self._next_id(), spec=spec, duration=duration,
                  array_id=array_id, array_index=array_index)
        self.jobs[job.job_id] = job
        self._live.setdefault(job.uid, {})[job.job_id] = job
        arrival = self.engine.now if at is None else at
        job.submit_time = arrival
        for f in self.observers.job_submitted:
            f(job)
        self._arm_arrival(job, arrival)
        return job

    def _next_id(self) -> int:
        jid = self._next_jid
        self._next_jid += 1
        return jid

    def _arm_arrival(self, job: Job, at: float) -> None:
        """Schedule the job's queue arrival, tracking the pending event so
        a control-plane crash can cancel it and recovery can re-arm it."""
        def fire() -> None:
            self._arrival_events.pop(job.job_id, None)
            self._arrive(job)
        self._arrival_events[job.job_id] = self.engine.at(at, fire)

    def submit_array(self, spec: JobSpec, durations: list[float], *,
                     at: float | None = None) -> list[Job]:
        """sbatch --array: one job per element, common array id."""
        array_id = self._next_id()
        return [self.submit(spec, d, at=at, array_id=array_id,
                            array_index=i)
                for i, d in enumerate(durations)]

    def array_jobs(self, array_id: int) -> list[Job]:
        return sorted((j for j in self.jobs.values()
                       if j.array_id == array_id),
                      key=lambda j: j.array_index or 0)

    def _note_queue_depth(self) -> None:
        self.metrics.gauge("sched_queue_depth").set(len(self._queue))

    def _enqueue(self, job: Job) -> None:
        """Append *job* to the queue under the next queue sequence number
        and mark it for the next dispatch pass to examine — unless its
        shape is parked: nothing freed since that shape failed can host
        it, so it joins the wake list at once."""
        seq = self._next_seq
        self._next_seq += 1
        self._qseq[job.job_id] = seq
        self._queue.append(job)
        pname, shape = job.spec.partition, self._shape(job)
        parked = self._parked[pname]
        if shape in parked:
            _gather(parked, shape, {seq: job})
        else:
            _gather(self._woken, (pname, shape), {seq: job})

    def _unqueue(self, job: Job) -> None:
        """Drop a cancelled job's dispatch bookkeeping: its sequence
        number and its place among the woken or parked jobs."""
        seq = self._qseq.pop(job.job_id, None)
        if seq is None:
            return
        pname, shape = job.spec.partition, self._shape(job)
        for groups, key in ((self._woken, (pname, shape)),
                            (self._parked[pname], shape)):
            jobs = groups.get(key)
            if jobs is not None and jobs.pop(seq, None) is not None:
                if not jobs:
                    del groups[key]
                return

    def _drop_live(self, job: Job) -> None:
        live = self._live.get(job.uid)
        if live is not None:
            live.pop(job.job_id, None)
            if not live:
                del self._live[job.uid]

    def _arrive(self, job: Job) -> None:
        if job.state is not JobState.PENDING:
            return  # cancelled before its arrival event fired
        self._enqueue(job)
        self.metrics.counter("jobs_submitted").inc()
        for f in self.observers.job_arrived:
            f(job)
        self._note_queue_depth()
        self._try_dispatch()

    def cancel(self, job: Job, by: User) -> None:
        """scancel: the owner or root only."""
        if not by.is_root and by.uid != job.uid:
            raise PermissionError_(f"{by.name} may not cancel job {job.job_id}")
        if job.state is JobState.PENDING:
            if job in self._queue:
                self._queue.remove(job)
            pending_arrival = self._arrival_events.pop(job.job_id, None)
            if pending_arrival is not None:
                self.engine.cancel(pending_arrival)
            self._unqueue(job)
            self._drop_live(job)
            job.state = JobState.CANCELLED
            job.end_time = self.engine.now
            for f in self.observers.job_cancelled:
                f(job)
            self._note_queue_depth()
        elif job.state is JobState.RUNNING:
            self._finish(job, JobState.CANCELLED)

    # -- placement --------------------------------------------------------------

    def _policy_for(self, job: Job) -> NodeSharing:
        return self._partition_policy(job.spec.partition)

    def _partition_policy(self, pname: str) -> NodeSharing:
        override = self.partitions[pname].policy_override
        return override if override is not None else self.config.policy

    def _shape(self, job: Job) -> tuple:
        """The job's placement shape within its partition: jobs of one
        shape place, or fail to, alike.  The uid is part of it only where
        the policy reads it — WHOLE_NODE_USER without ``--exclusive``."""
        spec = job.spec
        uid = None
        if (not spec.exclusive and self._policy_for(job)
                is NodeSharing.WHOLE_NODE_USER):
            uid = job.uid
        return (spec.ntasks, spec.cores_per_task, spec.mem_mb_per_task,
                spec.gpus_per_task, spec.exclusive, uid)

    def _nodes_for(self, job: Job):
        for name in self.partitions[job.spec.partition].node_names:
            yield self.nodes[name]

    def _plan_over(self, job: Job, nodes: Iterable[ComputeNode],
                   ) -> tuple[list[tuple[ComputeNode, int]] | None, int]:
        """Greedy first-fit ``(plan, examined)``: [(node, tasks)] covering
        all tasks (None if the job cannot start now under the active
        policy) and the nodes looked at, which the dispatch loops count.
        The caller chooses the node stream (full partition scan, or index
        candidates); both are in partition declaration order, so the plan
        is identical either way."""
        spec = job.spec
        policy = self._policy_for(job)
        remaining = spec.ntasks
        plan: list[tuple[ComputeNode, int]] = []
        examined = 0
        for node in nodes:
            if node.failed or node.drained:
                continue
            examined += 1
            n = tasks_placeable(
                policy,
                free_cores=node.free_cores,
                free_mem_mb=node.free_mem_mb,
                free_gpus=len(node.free_gpu_indices),
                cores_per_task=spec.cores_per_task,
                mem_mb_per_task=spec.mem_mb_per_task,
                gpus_per_task=spec.gpus_per_task,
                node_idle=node.idle,
                node_uids=node.running_uids(),
                job_uid=job.uid,
                job_exclusive=spec.exclusive,
            )
            if n <= 0:
                continue
            take = min(n, remaining)
            plan.append((node, take))
            remaining -= take
            if remaining == 0:
                break
        return (plan if remaining == 0 else None), examined

    def _placement_for(self, job: Job
                       ) -> tuple[list[tuple[ComputeNode, int]] | None, int]:
        """Reference placement: scan every node of the job's partition.
        The oracle's shadow replays it without touching the scan count."""
        return self._plan_over(job, self._nodes_for(job))

    def _placement_indexed(self, job: Job
                           ) -> list[tuple[ComputeNode, int]] | None:
        """Indexed placement: only nodes the free-capacity index says could
        accept this job are examined, in the same first-fit order, and
        counted in ``sched_dispatch_scan``.

        The fast path: the policy is resolved once, and the first fit of
        :meth:`_plan_over` runs here with :func:`tasks_placeable` written
        out over the nodes' plain counters, so a candidate costs a few
        attribute reads.  The oracle's shadow replays the reference
        against every plan this returns."""
        spec = job.spec
        index = self._pindex[spec.partition]
        if not index.any_open:
            return None  # every policy needs an open node
        policy = self._partition_policy(spec.partition)
        whole = policy is NodeSharing.EXCLUSIVE or spec.exclusive
        uid, cpt = job.uid, spec.cores_per_task
        names = index.candidates(policy=policy, whole=whole, uid=uid,
                                 cores_per_task=cpt)
        if not names:
            return None
        # The index already leaves out failed and drained nodes and nodes
        # the policy closes to this job; the loop checks both again, as
        # the reference does, so a node the index failed to drop costs
        # time, never a separation.  A busy node takes no whole-node job,
        # and under whole-node-per-user only jobs of its sole tenant.
        own_only = not whole and policy is NodeSharing.WHOLE_NODE_USER
        mpt, gpt = spec.mem_mb_per_task, spec.gpus_per_task
        nodes = self.nodes
        remaining = spec.ntasks
        plan: list[tuple[ComputeNode, int]] = []
        examined = 0
        for name in names:
            node = nodes[name]
            if node.failed or node.drained:
                continue
            examined += 1
            if node.allocations and (whole or own_only and (
                    len(node.uids) != 1 or uid not in node.uids)):
                continue
            n = node.free_cores // cpt if cpt else 0
            if mpt:
                by_mem = node.free_mem_mb // mpt
                if by_mem < n:
                    n = by_mem
            if gpt:
                by_gpus = node.free_gpus // gpt
                if by_gpus < n:
                    n = by_gpus
            if n <= 0:
                continue
            take = n if n < remaining else remaining
            plan.append((node, take))
            remaining -= take
            if remaining == 0:
                break
        self._scan_counter.inc(examined)
        return plan if remaining == 0 else None

    def _any_node_open(self) -> bool:
        """Cheap pre-check: could *any* pending job conceivably start?
        Avoids O(queue) scans when the machine is saturated."""
        policies = {p.policy_override or self.config.policy
                    for p in self.partitions.values()}
        if policies == {NodeSharing.EXCLUSIVE}:
            return any(n.idle and not n.failed for n in self.nodes.values())
        return any(not n.failed and n.free_cores > 0
                   for n in self.nodes.values())

    def reindex_partitions(self) -> None:
        """Rebuild the dispatch and query indexes: the free-capacity index
        from :attr:`partitions` and the live node state, the wake lists
        from the queue, and the per-uid live-job index from :attr:`jobs`.

        Call it after replacing or adding partitions, and after restoring
        the job tables (recovery); dispatch only ever updates the indexes
        incrementally, so it never sees a partition added behind its back.
        Between engine events every queued job has failed to place since
        the last free that could help it, so with backfill each is parked.
        """
        self._pindex: dict[str, PartitionIndex] = {
            p.name: PartitionIndex(p, self.nodes)
            for p in self.partitions.values()}
        self._node_parts: dict[str, list[str]] = {}
        for p in self.partitions.values():
            for name in p.node_names:
                self._node_parts.setdefault(name, []).append(p.name)
        #: wake lists: partition -> placement shape -> {queue seq: job};
        #: every job group here and in :attr:`_woken` is in seq order
        self._parked: dict[str, dict[tuple, dict[int, Job]]] = {
            name: {} for name in self.partitions}
        #: (partition, shape) -> {queue seq: job}: what the next backfill
        #: pass examines (arrived, requeued or woken jobs)
        self._woken: dict[tuple, dict[int, Job]] = {}
        #: job id -> queue seq, for queued jobs; seq order is queue order
        self._qseq: dict[int, int] = {}
        self._next_seq = 0
        park = self.config.backfill and not self.config.naive
        for job in self._queue:
            seq = self._qseq[job.job_id] = self._next_seq
            self._next_seq += 1
            if park:
                _gather(self._parked[job.spec.partition], self._shape(job),
                        {seq: job})
        #: uid -> {job id: job} of that user's unfinished jobs
        self._live: dict[int, dict[int, Job]] = {}
        for job in self.jobs.values():
            if not job.state.finished:
                self._live.setdefault(job.uid, {})[job.job_id] = job

    def _node_changed(self, node: ComputeNode, *, freed: bool) -> None:
        """Re-index one node; a *freed* change wakes the jobs it may help.

        Allocations only consume resources, so a job that failed to place
        stays unplaceable until a free leaves some node of its partition
        able to take one of its tasks.  With backfill a free (job finish,
        node resume) therefore wakes each parked shape that
        ``tasks_placeable`` says the node can now host, and no other;
        without it, the free marks the node's partitions dirty for the
        head-of-line pass.
        """
        for pname in self._node_parts.get(node.name, ()):
            self._pindex[pname].update(node)
            if not freed:
                continue
            if not self.config.backfill:
                self._dirty_parts.add(pname)
                continue
            parked = self._parked[pname]
            if not parked or node.failed or node.drained:
                continue
            policy = self._partition_policy(pname)
            free_cores, free_mem_mb = node.free_cores, node.free_mem_mb
            free_gpus, uids = node.free_gpus, node.uids
            idle, sole = node.idle, node.sole_uid
            # a shape that carries a uid fits a busy node only when that
            # uid is the node's sole tenant, and no shape fits a node with
            # fewer free cores than one task needs: skip those unasked
            for shape in [s for s in parked
                          if (idle or s[5] is None or s[5] == sole)
                          and s[1] <= free_cores and tasks_placeable(
                              policy, free_cores=free_cores,
                              free_mem_mb=free_mem_mb, free_gpus=free_gpus,
                              cores_per_task=s[1], mem_mb_per_task=s[2],
                              gpus_per_task=s[3], node_idle=idle,
                              node_uids=uids, job_uid=s[5],
                              job_exclusive=s[4]) > 0]:
                _gather(self._woken, (pname, shape), parked.pop(shape))

    def _try_dispatch(self) -> None:
        if self.config.naive:
            self._dispatch_naive()
        else:
            self._dispatch_indexed()

    def _dispatch_naive(self) -> None:
        """Reference FIFO scan (the seed implementation, kept verbatim for
        differential testing): rescans the whole queue against all nodes on
        every event.  With backfill, blocked jobs are skipped (not starved
        forever in our workloads; see module docstring).  One pass per call
        suffices: placements only consume resources, so a job that was
        unplaceable earlier in the pass stays unplaceable."""
        self._dirty_parts.clear()
        self._woken.clear()
        if not self._any_node_open():
            return
        placed_ids: set[int] = set()
        for job in self._queue:
            if job.state is not JobState.PENDING:
                # already started (or failed during its batch step) in a
                # re-entrant dispatch triggered mid-scan: purge, don't
                # re-place
                placed_ids.add(job.job_id)
                continue
            plan, examined = self._placement_for(job)
            self._scan_counter.inc(examined)
            if plan is None:
                if not self.config.backfill:
                    break
                continue
            self._start(job, plan)
            placed_ids.add(job.job_id)
            if not self._any_node_open():
                break
        if placed_ids:
            self._queue = [j for j in self._queue
                           if j.job_id not in placed_ids]
            self._note_queue_depth()

    def _dispatch_indexed(self) -> None:
        """Event-driven dispatch.  With backfill, a pass examines only the
        woken jobs — arrived, requeued, or woken by a free — and repeats
        while a pass leaves new ones behind; every other queued job is
        parked and provably still unplaceable (see :meth:`_node_changed`).
        Without backfill the head-of-line pass runs instead."""
        if not self.config.backfill:
            self._dispatch_head_of_line()
            return
        while self._woken:
            woken, self._woken = self._woken, {}
            self._dispatch_pass(woken)

    def _dispatch_pass(self, woken: dict[tuple, dict[int, Job]]) -> None:
        # Jobs are examined in queue (seq) order, merged across their shape
        # groups.  When a job fails to place, it and every later job of its
        # shape are parked in one move: they cannot place either.  A free
        # in the middle of the pass (a failing prolog or batch step) wakes
        # what it can host into a fresh _woken, which the dispatch that
        # free re-enters examines.
        heads = [(next(iter(jobs)), key) for key, jobs in woken.items()]
        heapq.heapify(heads)
        started = False
        while heads:
            seq, key = heapq.heappop(heads)
            jobs = woken[key]
            job = jobs[seq]
            if job.state is JobState.PENDING:  # not cancelled mid-pass
                plan = self._placement_indexed(job)
                if plan is None:
                    pname, shape = key
                    _gather(self._parked[pname], shape, jobs)
                    continue
                self._start(job, plan)
                started = True
            del jobs[seq]
            if jobs:
                heapq.heappush(heads, (next(iter(jobs)), key))
        if started:
            self._purge_queue()

    def _dispatch_head_of_line(self) -> None:
        """FIFO without backfill: whenever a partition got resources back
        or a job arrived, walk the queue in order up to the first job that
        cannot start.  The head gates everyone, and a cancelled head can
        unblock jobs that were never examined, so no job here is known to
        be unplaceable and none is parked."""
        while self._dirty_parts or self._woken:
            self._dirty_parts.clear()
            self._woken.clear()
            started = False
            for job in list(self._queue):
                if job.state is not JobState.PENDING:
                    started = True  # started (or batch-failed) re-entrantly
                    continue
                plan = self._placement_indexed(job)
                if plan is None:
                    break
                self._start(job, plan)
                started = True
            if started:
                self._purge_queue()

    def _purge_queue(self) -> None:
        """Drop started jobs from the queue, once per pass."""
        self._queue = [j for j in self._queue
                       if j.state is JobState.PENDING]
        self._note_queue_depth()

    def _start(self, job: Job, plan: list[tuple[ComputeNode, int]]) -> None:
        # before any allocation mutates node state: observers (the oracle)
        # see exactly the co-residence/capacity facts the dispatcher did
        for f in self.observers.job_starting:
            f(self, job, plan)
        now = self.engine.now
        job.state = JobState.RUNNING
        job.start_time = now
        self._running[job.job_id] = job
        self._qseq.pop(job.job_id, None)
        spec = job.spec
        whole = (self._policy_for(job) is NodeSharing.EXCLUSIVE
                 or spec.exclusive)
        charged = useful = 0
        for node, tasks in plan:
            charged += node.allocate(job, tasks, whole_node=whole).cores
            useful += tasks * spec.cores_per_task
            self._node_changed(node, freed=False)
            if self.prolog is not None and not self._run_hook(
                    "prolog", self.prolog, job, node):
                # The node can't be prepared (separation setup failed): the
                # job fails rather than run without its controls, and
                # _finish unwinds whatever was already allocated/spawned.
                self._core_charge[job.job_id] = (0, 0)
                for f in self.observers.job_start_failed:
                    f(job)
                self._finish(job, JobState.FAILED)
                return
            creds = node.node.userdb.credentials_for(spec.user)
            for _ in range(tasks):
                node.node.procs.spawn(
                    creds, [spec.command], job_id=job.job_id,
                    cwd=spec.workdir, rss_mb=spec.mem_mb_per_task)
        self._core_charge[job.job_id] = (charged, useful)
        self._busy_cores.add(now, charged)
        self._useful_cores.add(now, useful)
        wait = now - job.submit_time
        series = self._start_series
        if series is None:  # registered at the first start, not before
            metrics = self.metrics
            series = self._start_series = (
                metrics.samples("wait_time"),
                metrics.histogram("sched_wait_seconds"),
                metrics.counter("jobs_started"))
        waits, wait_hist, started = series
        waits.add(wait)
        wait_hist.observe(wait)
        started.inc()
        # after the core-charge/time-weighted updates, so a snapshot the
        # journal takes here sees them consistently applied
        for f in self.observers.job_started:
            f(job, charged, useful)
        if job.spec.script is not None:
            self._run_batch_script(job, plan[0][0])
            if job.state is not JobState.RUNNING:
                return  # batch step failed; _finish already ran
        timers = [self.engine.at(now + job.duration,
                                 lambda: self._complete(job))]
        if job.spec.oom_bomb:
            timers.append(self.engine.at(now + job.duration / 2,
                                         lambda: self._trigger_oom(job)))
        self._job_events[job.job_id] = timers

    def _run_batch_script(self, job: Job, head: ComputeNode) -> None:
        """Execute the job's batch script on the head node, as the user.

        A raised exception fails the job immediately (non-zero exit of the
        batch step), with the error recorded in the job's stdout.
        """
        from repro.kernel.syscalls import SyscallInterface
        from repro.sched.jobs import JobContext
        creds = head.node.userdb.credentials_for(job.spec.user)
        proc = head.node.procs.spawn(creds, ["batch", job.spec.command],
                                     job_id=job.job_id,
                                     cwd=job.spec.workdir)
        ctx = JobContext(job=job, node=head.node,
                         sys=SyscallInterface(head.node, proc),
                         now=self.engine.now)
        try:
            job.spec.script(ctx)
        except Exception as exc:  # batch step failed
            job.stdout_lines.append(f"batch step failed: {exc}")
            self.metrics.counter("script_failures").inc()
            self._finish(job, JobState.FAILED)

    def _write_stdout_file(self, job: Job) -> None:
        """Materialise slurm-<id>.out in the workdir, as the user."""
        if not job.stdout_lines:
            return
        node = self.nodes[job.allocations[0].node].node if job.allocations \
            else next(iter(self.nodes.values())).node
        creds = node.userdb.credentials_for(job.spec.user)
        body = ("\n".join(job.stdout_lines) + "\n").encode()
        try:
            node.vfs.create(job.stdout_path, creds, mode=0o640, data=body)
        except Exception:
            try:
                node.vfs.write(job.stdout_path, creds, body)
            except Exception:  # pragma: no cover - unwritable workdir
                pass

    # -- completion ----------------------------------------------------------------

    def _complete(self, job: Job) -> None:
        if job.state is JobState.RUNNING:
            self._finish(job, JobState.COMPLETED)

    def _finish(self, job: Job, state: JobState) -> None:
        now = self.engine.now
        job.state = state
        job.end_time = now
        self._running.pop(job.job_id, None)
        self._drop_live(job)
        for timer in self._job_events.pop(job.job_id, ()):
            self.engine.cancel(timer)
        self._write_stdout_file(job)
        charge = self._core_charge.pop(job.job_id, None)
        if charge is None:
            charge = (sum(a.cores for a in job.allocations),
                      sum(a.tasks * job.spec.cores_per_task
                          for a in job.allocations))
        charged, useful = charge
        self._busy_cores.add(now, -charged)
        self._useful_cores.add(now, -useful)
        for alloc in job.allocations:
            node = self.nodes[alloc.node]
            if node.fenced:
                # A dead node executes nothing: no process kill, no epilog.
                # Its residue (orphan processes, dirty GPUs, assigned /dev
                # perms) stays put until :meth:`remediate`; the allocation
                # is still released so accounting and requeue see the job
                # off the node.
                self.metrics.counter("epilog_skipped_fenced").inc()
                node.release(job.job_id)
                self._node_changed(node, freed=False)
                continue
            node.node.procs.kill_job(job.job_id)
            if self.epilog is not None:
                self._run_hook("epilog", self.epilog, job, node)
            node.release(job.job_id)
            self._node_changed(node, freed=True)
        self.accounting.record(job)
        self.metrics.counter(_FINISH_COUNTER[state]).inc()
        for f in self.observers.job_finished:
            f(job, state)
        self._try_dispatch()

    def _run_hook(self, which: str, hook, job: Job,
                  node: ComputeNode) -> bool:
        """Run a prolog/epilog hook; True on success.

        A hook exception is a *node* problem (separation setup or cleanup
        did not happen), so it drains the node for remediation via
        :meth:`_hook_failed` instead of propagating into — and wedging —
        the dispatch loop.  Oracle verdicts are exempt: a fail-fast
        ``SeparationViolation`` must stay fatal to the run that caused it.
        On success the observers learn the job's GPUs on the node.
        """
        try:
            hook(job, node)
        except Exception as exc:
            from repro.oracle.oracle import SeparationViolation
            if isinstance(exc, SeparationViolation):
                raise
            self._hook_failed(which, job, node, exc)
            return False
        gpus = node.allocations[job.job_id].gpu_indices
        observers = self.observers
        for f in (observers.prolog_ran if which == "prolog"
                  else observers.epilog_ran):
            f(job, node, gpus)
        return True

    def _hook_failed(self, which: str, job: Job, node: ComputeNode,
                     exc: Exception) -> None:
        """A prolog/epilog raised: suspect separation residue on the node.

        The node is drained (nothing new lands there) and flagged for
        remediation — :meth:`resume` will reap orphans and re-run the GPU
        scrub/perm reset before the node takes work again.
        """
        node.drained = True
        node.needs_remediation = True
        self._node_changed(node, freed=False)
        self.metrics.counter("hook_failures_total", hook=which).inc()
        for f in self.observers.hook_failed:
            f(which, job, node, exc)

    def _trigger_oom(self, job: Job) -> None:
        """The misbehaving job exhausts memory on each of its nodes; the
        kernel OOM-kills *everything* there.  Innocent victims die with
        NODE_FAIL — unless separation policy kept them off those nodes."""
        if job.state is not JobState.RUNNING:
            return
        victim_nodes = set(job.nodes)
        casualties = [
            other for other in self.jobs.values()
            if other.state is JobState.RUNNING and other is not job
            and victim_nodes & set(other.nodes)
        ]
        self._finish(job, JobState.FAILED)
        for other in casualties:
            self.metrics.counter("innocent_job_failures").inc()
            self._finish(other, JobState.NODE_FAIL)

    # -- node administration --------------------------------------------------------

    def drain(self, node_name: str) -> None:
        """scontrol update state=DRAIN: running jobs finish, nothing new."""
        node = self.nodes[node_name]
        node.drained = True
        self._node_changed(node, freed=False)
        for f in self.observers.node_drained:
            f(node_name)

    def resume(self, node_name: str) -> None:
        """scontrol update state=RESUME; a fenced node remediates first.

        Separation-safe rejoin: a node flagged ``needs_remediation`` (it
        was fenced, or a cleanup hook failed there) goes through
        :meth:`remediate` *before* it becomes schedulable, so the next
        tenant can never see the previous tenant's residue.
        """
        node = self.nodes[node_name]
        if node.needs_remediation:
            self.remediate(node_name)
        node.drained = False
        node.failed = False
        self._node_changed(node, freed=True)
        for f in self.observers.node_resumed:
            f(node_name)
        self._try_dispatch()

    def remediate(self, node_name: str) -> dict[str, int]:
        """Separation-safe remediation of a fenced or suspect node.

        Orphan processes of no-longer-allocated jobs are reaped (which
        resyncs the per-uid/per-job procfs indexes), the optional
        ``remediator`` hook scrubs GPUs and resets ``/dev`` permissions,
        and the dispatch index entry is refreshed.  Idempotent: a node not
        flagged ``needs_remediation`` is left untouched and an empty
        summary is returned — remediation runs exactly once per reboot.
        """
        node = self.nodes[node_name]
        if not node.needs_remediation:
            return {}
        summary = {"processes_reaped": len(
            node.node.procs.reap_orphans(set(node.allocations)))}
        if self.remediator is not None:
            summary.update(self.remediator(node) or {})
        node.fenced = False
        node.needs_remediation = False
        node.remediations += 1
        self._node_changed(node, freed=False)
        self.metrics.counter("node_remediations_total").inc()
        for f in self.observers.node_remediated:
            f(self, node, summary)
        return summary

    def fail_node(self, node_name: str) -> list[Job]:
        """Hardware failure: the node is *fenced* — a dead node cannot run
        its epilog or kill its processes, so every running job there dies
        NODE_FAIL leaving its residue in place (cleaned by
        :meth:`remediate` before the node rejoins).  With
        ``requeue_on_node_fail`` victims are resubmitted, each up to
        ``max_requeues`` extra attempts.  Returns the affected jobs."""
        node = self.nodes[node_name]
        node.failed = True
        node.fenced = True
        node.needs_remediation = True
        self._node_changed(node, freed=False)
        self.metrics.counter("node_fencings_total").inc()
        victims = [self.jobs[jid] for jid in list(node.allocations)]
        for f in self.observers.node_fenced:
            f(node_name, len(victims))
        for job in victims:
            self._finish(job, JobState.NODE_FAIL)
            self._maybe_requeue(job)
        return victims

    def _maybe_requeue(self, job: Job) -> bool:
        """Requeue a NODE_FAIL victim if configured and within budget.

        A job whose attempt count already exceeds ``max_requeues`` stays
        NODE_FAIL permanently, with the exhaustion recorded in its reason
        and the ``jobs_requeue_exhausted`` counter.
        """
        if not self.config.requeue_on_node_fail:
            return False
        if job.attempt > self.config.max_requeues:
            job.reason = (f"requeue limit exhausted after "
                          f"{job.attempt} attempts")
            self.metrics.counter("jobs_requeue_exhausted").inc()
            for f in self.observers.node_lifecycle:
                f(self.engine.now, f"job{job.job_id}", job.reason,
                  job_id=job.job_id)
            return False
        self._requeue(job)
        return True

    def _requeue(self, job: Job) -> None:
        """Return a NODE_FAIL job to PENDING (same job id, next attempt)."""
        job.attempt += 1
        job.state = JobState.PENDING
        job.start_time = None
        job.end_time = None
        job.allocations = []
        job.reason = "requeued after node failure"
        self.metrics.counter("jobs_requeued").inc()
        self._live.setdefault(job.uid, {})[job.job_id] = job
        self._enqueue(job)
        for f in self.observers.job_requeued:
            f(job)
        self._note_queue_depth()
        self._try_dispatch()

    # -- queries ------------------------------------------------------------------

    def user_has_job_on(self, uid: int, node_name: str) -> bool:
        """pam_slurm's question: does *uid* have a running job on the node?
        O(1) via the node's running-uid multiset."""
        try:
            node = self.nodes[node_name]
        except KeyError:
            raise NoSuchEntity(f"node {node_name!r}") from None
        return node.uid_present(uid)

    def pending(self) -> list[Job]:
        return list(self._queue)

    def live_jobs(self, uid: int) -> list[Job]:
        """*uid*'s unfinished (pending or running) jobs in job-id order,
        read from the per-uid live index: O(own jobs), not O(all jobs)."""
        live = self._live.get(uid)
        return [live[jid] for jid in sorted(live)] if live else []

    def running(self) -> list[Job]:
        """Running jobs in submission order — maintained incrementally at
        start/finish instead of re-filtering the whole job table."""
        return sorted(self._running.values(), key=lambda j: j.job_id)

    def utilization(self, t_end: float | None = None) -> float:
        """Time-averaged fraction of cores doing *useful* work since t=0.
        Under EXCLUSIVE a 1-core task on a 48-core node contributes 1 core
        here (the paper's 'poor utilization'), not 48."""
        t = self.engine.now if t_end is None else t_end
        if self.total_cores == 0:
            return 0.0
        return self._useful_cores.mean(t) / self.total_cores

    def occupancy(self, t_end: float | None = None) -> float:
        """Time-averaged fraction of cores *charged* (allocated)."""
        t = self.engine.now if t_end is None else t_end
        if self.total_cores == 0:
            return 0.0
        return self._busy_cores.mean(t) / self.total_cores

    def run(self, until: float | None = None) -> float:
        return self.engine.run(until)
