"""Scheduler-side view of compute nodes: capacity and allocations.

A :class:`ComputeNode` pairs the kernel-level
:class:`~repro.kernel.node.LinuxNode` with its schedulable resources (cores,
memory, GPUs) and the live allocation table the node-sharing policy reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu import GPUDevice
from repro.kernel.devices import install_gpu_device
from repro.kernel.node import LinuxNode, ROOT_CREDS
from repro.kernel.errors import InvalidArgument
from repro.sched.jobs import Allocation, Job


@dataclass
class ComputeNode:
    """One schedulable node.

    Free capacity is kept **incrementally** by :meth:`allocate` and
    :meth:`release` as plain attributes, one counter per resource:
    ``free_cores``, ``free_mem_mb`` and ``free_gpus`` (a count).
    ``used_cores`` and ``used_mem_mb`` derive from them; the set of held
    GPU indices says which GPUs the count leaves out.  ``uids`` is a live
    view of the uids holding an allocation here.  The scheduler's hot
    placement loop reads these directly instead of re-summing the
    allocation table or building a set per candidate node.
    ``allocations`` is only ever mutated through those two methods.
    """

    node: LinuxNode
    gpus: list[GPUDevice] = field(default_factory=list)
    allocations: dict[int, Allocation] = field(default_factory=dict)
    failed: bool = False
    drained: bool = False  # admin drain: no new placements, jobs run out
    #: the node is fenced: it crashed (or its epilog failed), so per-job
    #: cleanup hooks cannot run there.  A fenced node keeps its separation
    #: residue (orphan processes, dirty GPUs, assigned /dev perms) until
    #: remediation.
    fenced: bool = False
    #: separation-safe remediation must run before this node may take work
    #: again; set on fencing, cleared by ``Scheduler.remediate``.
    needs_remediation: bool = False
    #: completed remediation passes (each reboot remediates exactly once).
    remediations: int = field(default=0, repr=False)
    #: indices of the GPUs some allocation holds
    _used_gpus: set[int] = field(default_factory=set, repr=False)
    #: uid -> number of this user's jobs allocated here (running-uid multiset)
    _uid_counts: dict[int, int] = field(default_factory=dict, repr=False)
    _alloc_uids: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        spec = self.node.spec
        self.free_cores = spec.cores
        self.free_mem_mb = spec.mem_mb
        # Charge a pre-seeded table (tests) against the counters.
        for alloc in self.allocations.values():
            self.free_cores -= alloc.cores
            self.free_mem_mb -= alloc.mem_mb
            self._used_gpus.update(alloc.gpu_indices)
        self.free_gpus = len(self.gpus) - len(self._used_gpus)
        #: uids holding an allocation here: a live view, never rebuilt
        self.uids = self._uid_counts.keys()

    @classmethod
    def create(cls, node: LinuxNode, *, gpu_mem_bytes: int = 65536,
               gpu_dev_mode: int = 0o666) -> "ComputeNode":
        """Wrap a LinuxNode, instantiating its GPUs as /dev character files.

        ``gpu_dev_mode`` is the *unallocated* permission: stock systems use
        0666 (anyone may open any GPU); the LLSC preset uses 0o000 so
        "GPUs that have not been assigned to a user are not visible at all".
        """
        gpus = []
        for i in range(node.spec.gpus):
            dev = GPUDevice(index=i, mem_bytes=gpu_mem_bytes,
                            host=node.name)
            install_gpu_device(node.vfs, ROOT_CREDS, i, dev, mode=gpu_dev_mode)
            gpus.append(dev)
        return cls(node=node, gpus=gpus)

    # -- capacity ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def total_cores(self) -> int:
        return self.node.spec.cores

    @property
    def total_mem_mb(self) -> int:
        return self.node.spec.mem_mb

    @property
    def used_cores(self) -> int:
        return self.total_cores - self.free_cores

    @property
    def used_mem_mb(self) -> int:
        return self.total_mem_mb - self.free_mem_mb

    @property
    def used_gpu_indices(self) -> set[int]:
        return set(self._used_gpus)

    @property
    def free_gpu_indices(self) -> list[int]:
        return [g.index for g in self.gpus if g.index not in self._used_gpus]

    @property
    def idle(self) -> bool:
        return not self.allocations

    def running_uids(self) -> set[int]:
        """Distinct uids with an allocation here, as a new set."""
        return set(self._uid_counts)

    def uid_present(self, uid: int) -> bool:
        """pam_slurm's O(1) question: does *uid* hold an allocation here?"""
        return uid in self._uid_counts

    @property
    def sole_uid(self) -> int | None:
        """The single uid occupying this node, or None if idle/mixed."""
        if len(self._uid_counts) != 1:
            return None
        return next(iter(self._uid_counts))

    # -- allocation --------------------------------------------------------

    def allocate(self, job: Job, tasks: int, *, whole_node: bool) -> Allocation:
        """Reserve resources for *tasks* tasks of *job* on this node.

        ``whole_node`` charges the full node (EXCLUSIVE semantics) so no
        later job can fit, whatever its size."""
        spec = job.spec
        if whole_node:
            cores, mem = self.total_cores, self.total_mem_mb
        else:
            cores = tasks * spec.cores_per_task
            mem = tasks * spec.mem_mb_per_task
        if cores > self.free_cores or mem > self.free_mem_mb:
            raise InvalidArgument(
                f"over-allocation on {self.name}: want {cores}c/{mem}MB, "
                f"free {self.free_cores}c/{self.free_mem_mb}MB"
            )
        gpu_indices: list[int] = []
        need_gpus = tasks * spec.gpus_per_task
        if need_gpus:
            free = self.free_gpu_indices
            if len(free) < need_gpus:
                raise InvalidArgument(f"not enough free GPUs on {self.name}")
            gpu_indices = free[:need_gpus]
        alloc = Allocation(node=self.name, tasks=tasks, cores=cores,
                           mem_mb=mem, gpu_indices=gpu_indices)
        self.allocations[job.job_id] = alloc
        job.allocations.append(alloc)
        self.free_cores -= cores
        self.free_mem_mb -= mem
        if gpu_indices:
            self._used_gpus.update(gpu_indices)
            self.free_gpus -= len(gpu_indices)
        uid = job.uid
        self._alloc_uids[job.job_id] = uid
        self._uid_counts[uid] = self._uid_counts.get(uid, 0) + 1
        return alloc

    def release(self, job_id: int) -> Allocation | None:
        alloc = self.allocations.pop(job_id, None)
        if alloc is None:
            return None
        self.free_cores += alloc.cores
        self.free_mem_mb += alloc.mem_mb
        if alloc.gpu_indices:
            self._used_gpus.difference_update(alloc.gpu_indices)
            self.free_gpus += len(alloc.gpu_indices)
        uid = self._alloc_uids.pop(job_id, None)
        if uid is not None:
            left = self._uid_counts.get(uid, 0) - 1
            if left > 0:
                self._uid_counts[uid] = left
            else:
                self._uid_counts.pop(uid, None)
        return alloc

    def gpu(self, index: int) -> GPUDevice:
        return self.gpus[index]
