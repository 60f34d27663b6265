"""Free-capacity index for O(candidates) dispatch (the E24 hot path).

The naive scheduler re-scans every node of a job's partition per placement
attempt and every pending job per event — O(nodes x queue) per event, which
is what the paper-scale sweeps in ``benchmarks/bench_e24_scale.py`` choke
on.  This module maintains, per partition:

* ``idle``       — positions of idle, healthy nodes (EXCLUSIVE / per-job
  ``--exclusive`` candidates);
* ``by_cores``   — buckets of positions keyed by *exact* free-core count,
  for healthy nodes with any free cores (SHARED candidates are the union of
  buckets >= cores_per_task);
* ``open_all``   — the union of all buckets (any free cores at all);
* ``user_nodes`` — positions occupied by exactly one uid, keyed by that uid
  (WHOLE_NODE_USER candidates: idle nodes plus the user's own open nodes).

Positions are indexes into the partition's declared node order, so candidate
iteration preserves the naive scheduler's greedy first-fit order exactly:
the index is a *superset filter* — it may still yield nodes the policy
function rejects (not enough memory/GPUs), but it never skips a node the
naive scan would have accepted, and it yields survivors in the same order.
That is what makes the indexed path placement-identical to the ``naive=``
reference (property-tested in ``tests/prop/test_prop_dispatch.py``).

Memory is intentionally *not* a bucket key: ``tasks_placeable`` treats
``mem_mb_per_task == 0`` as unconstrained, so a node with free cores and no
free memory is still a legal target for memory-less jobs and must stay a
candidate.
"""

from __future__ import annotations

from repro.sched.nodes import ComputeNode
from repro.sched.partitions import Partition
from repro.sched.policies import NodeSharing


class PartitionIndex:
    """Incrementally maintained dispatch candidates for one partition."""

    def __init__(self, partition: Partition,
                 nodes: dict[str, ComputeNode]):
        self.partition = partition
        self.names: list[str] = list(partition.node_names)
        self.order: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.idle: set[int] = set()
        self.by_cores: dict[int, set[int]] = {}
        self.open_all: set[int] = set()
        self.user_nodes: dict[int, set[int]] = {}
        self._bucket_of: dict[int, int] = {}   # position -> current bucket
        self._user_of: dict[int, int] = {}     # position -> sole uid
        for name in self.names:
            self.update(nodes[name])

    # -- maintenance --------------------------------------------------------

    def update(self, node: ComputeNode) -> None:
        """Bring this node's index membership in line with its counters.

        Called after every allocate/release/drain/resume/fail touching the
        node.  The node's idle flag, free-core bucket and sole uid are
        derived afresh from its O(1) counters and compared with what was
        recorded for it; only the sets whose key changed are touched.
        """
        pos = self.order.get(node.name)
        if pos is None:
            return
        if node.failed or node.drained:
            idle, bucket, sole = False, None, None
        else:
            idle = not node.allocations
            bucket = node.free_cores if node.free_cores > 0 else None
            sole = node.sole_uid
        if idle != (pos in self.idle):
            if idle:
                self.idle.add(pos)
            else:
                self.idle.discard(pos)
        old_bucket = self._bucket_of.get(pos)
        if bucket != old_bucket:
            if old_bucket is not None:
                members = self.by_cores[old_bucket]
                members.discard(pos)
                if not members:
                    del self.by_cores[old_bucket]
            if bucket is None:
                del self._bucket_of[pos]
                self.open_all.discard(pos)
            else:
                self.by_cores.setdefault(bucket, set()).add(pos)
                self._bucket_of[pos] = bucket
                self.open_all.add(pos)
        old_uid = self._user_of.get(pos)
        if sole != old_uid:
            if old_uid is not None:
                owners = self.user_nodes[old_uid]
                owners.discard(pos)
                if not owners:
                    del self.user_nodes[old_uid]
            if sole is None:
                del self._user_of[pos]
            else:
                self.user_nodes.setdefault(sole, set()).add(pos)
                self._user_of[pos] = sole

    # -- queries ------------------------------------------------------------

    def candidates(self, *, policy: NodeSharing, whole: bool, uid: int,
                   cores_per_task: int) -> list[str]:
        """Node names worth examining for this job, in first-fit order."""
        if whole:
            positions = self.idle
        elif policy is NodeSharing.WHOLE_NODE_USER:
            own = self.user_nodes.get(uid)
            positions = (self.idle | (own & self.open_all)) if own \
                else self.idle
        else:  # SHARED
            if cores_per_task <= 0:
                return []
            positions = set()
            for free, members in self.by_cores.items():
                if free >= cores_per_task:
                    positions |= members
        names = self.names
        return [names[p] for p in sorted(positions)]

    @property
    def any_open(self) -> bool:
        return bool(self.idle or self.open_all)
