"""Node health: heartbeat failure detection, fencing, and rejoin.

The paper's separation guarantees (GPU ``/dev`` perms + epilog scrub
§IV-F, UBF conntrack §IV-D, whole-node placement §IV-B) are enforced by
per-job hooks — and a crashed node never gets to run them.  This module
makes node death and rebirth a first-class, separation-preserving
lifecycle:

* a :class:`HealthMonitor` probes every compute node's heartbeat on a
  fixed tick (the probe consults the fault injector, so ``NODE_CRASH`` /
  ``NODE_FLAP`` / ``HOST_UNREACHABLE`` faults are what it observes) and
  drives an **UP → SUSPECT → DOWN** state machine with miss thresholds;
* on DOWN the node is **fenced**: the residue it will leave behind is
  recorded (orphan processes, dirty GPUs, assigned ``/dev`` perms, peers'
  conntrack flows), victims requeue through the scheduler's budgeted
  path, and the dead host's conntrack/decision-cache state is purged from
  surviving hosts;
* a returning heartbeat triggers **rejoin**: flap damping first (a node
  bouncing DOWN↔UP repeatedly is quarantined rather than trusted), then
  ``Scheduler.resume`` — which remediates (process reap, GPU scrub,
  perm reset, index resync) *before* the node is schedulable again, under
  oracle invariant I7;
* ``HOST_UNREACHABLE``/``NODE_CRASH`` faults persisting past
  ``dead_host_ttl`` trigger the same dead-host purge even for hosts the
  scheduler does not own (login nodes, the portal).

The monitor is engine-driven and self-limiting: ticks reschedule only
while there is something to watch (a non-UP node, a quarantine pending,
or an active node/host fault), so an idle healthy cluster's event heap
drains and ``engine.run()`` terminates as before.  ``ChaosController``
wakes the monitor when it injects a relevant fault.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.faults.injector import FaultInjector, FaultKind
from repro.kernel.node import ROOT_CREDS
from repro.observer import Observers
from repro.sched.prolog_epilog import GPU_MODE_UNASSIGNED, gpu_dev_path


class NodeHealth(enum.Enum):
    """Heartbeat-derived health state of one node."""

    UP = "up"
    SUSPECT = "suspect"
    DOWN = "down"


@dataclass(frozen=True)
class NodeResidue:
    """What a fenced node left behind, recorded at fencing time.

    The rejoin path must account for every item here before the node is
    schedulable again; the E25 benchmark asserts nothing survives
    remediation.
    """

    node: str
    recorded_at: float
    jobs: tuple[int, ...]            # job ids running there at the crash
    orphan_pids: tuple[int, ...]     # their processes, left unreaped
    dirty_gpus: tuple[int, ...]      # GPUs holding another tenant's memory
    assigned_devices: tuple[int, ...]  # /dev files still naming a UPG
    peer_conntrack_flows: int        # peers' flows referencing the host

    @property
    def empty(self) -> bool:
        return not (self.orphan_pids or self.dirty_gpus
                    or self.assigned_devices or self.peer_conntrack_flows)


@dataclass
class NodeLifecycle:
    """Per-node health record the monitor maintains."""

    name: str
    state: NodeHealth = NodeHealth.UP
    missed: int = 0                 # consecutive missed heartbeats
    #: (time, new state) transition history, newest last
    transitions: list[tuple[float, NodeHealth]] = field(default_factory=list)
    #: times the node came back UP from DOWN (flap-damping window input)
    rejoin_times: list[float] = field(default_factory=list)
    quarantined_until: float = 0.0  # flap damping: no rejoin before this
    residue: NodeResidue | None = None
    purged: bool = False            # dead-host purge already ran this episode


class HealthMonitor:
    """Seeded-heartbeat failure detector + fencing/rejoin driver.

    One per cluster, over the scheduler's compute nodes.  ``start()`` arms
    the tick loop; construction alone costs nothing.  All thresholds are
    in ticks (``interval`` seconds apart): ``suspect_after`` consecutive
    misses demote UP → SUSPECT, ``down_after`` misses fence the node.  A
    node rejoining more than ``flap_threshold`` times within
    ``flap_window`` seconds is quarantined for ``flap_hold`` seconds —
    drained rather than trusted — before it may rejoin again.
    """

    def __init__(self, scheduler, engine, faults: FaultInjector, metrics, *,
                 interval: float = 5.0, suspect_after: int = 1,
                 down_after: int = 3, flap_threshold: int = 3,
                 flap_window: float = 600.0, flap_hold: float = 120.0,
                 dead_host_ttl: float = 60.0, observers=(),
                 purge_host=None):
        if suspect_after < 1 or down_after <= suspect_after:
            raise ValueError("need 1 <= suspect_after < down_after")
        self.scheduler = scheduler
        self.engine = engine
        self.faults = faults
        self.metrics = metrics
        self.interval = interval
        self.suspect_after = suspect_after
        self.down_after = down_after
        self.flap_threshold = flap_threshold
        self.flap_window = flap_window
        self.flap_hold = flap_hold
        self.dead_host_ttl = dead_host_ttl
        #: optional planes (repro.observer) told every state change
        self.observers = Observers.of(observers)
        #: optional callable(host) -> dict purging the dead host's
        #: conntrack/verdict-cache state on surviving hosts (wired by
        #: :func:`attach_health`; None in raw-scheduler scenarios)
        self.purge_host = purge_host
        self.nodes: dict[str, NodeLifecycle] = {
            name: NodeLifecycle(name) for name in scheduler.nodes}
        #: host -> time its unreachability was first observed (TTL purge)
        self._unreachable_since: dict[str, float] = {}
        self._purged_hosts: set[str] = set()
        self.started = False
        self._tick_armed = False
        #: pending tick event + its due time — tracked so a control-plane
        #: crash can cancel the tick and recovery can re-arm it on time
        self._tick_event = None
        self._tick_due: float | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "HealthMonitor":
        """Arm the heartbeat tick loop (idempotent)."""
        self.started = True
        self._arm_tick()
        return self

    def wake(self) -> None:
        """Re-arm the tick loop if it went dormant (all-healthy idle).

        Called by :class:`~repro.faults.chaos.ChaosController` when a
        node/host fault is injected or cleared, so a dormant monitor
        notices without a polling tick keeping the event heap alive.
        """
        if self.started:
            self._arm_tick()

    def _arm_tick(self) -> None:
        if self._tick_armed:
            return
        if getattr(self.scheduler, "crashed", False):
            return  # a dead control plane probes nothing until recovery
        self._tick_armed = True
        self._tick_due = self.engine.now + self.interval
        self._tick_event = self.engine.at(self._tick_due, self._tick)
        for f in self.observers.tick_armed:
            f(self._tick_due)

    def state_of(self, name: str) -> NodeHealth:
        return self.nodes[name].state

    def summary(self) -> dict[str, int]:
        """Node counts per health state (dashboard row)."""
        out = {s.value: 0 for s in NodeHealth}
        for lc in self.nodes.values():
            out[lc.state.value] += 1
        return out

    # -- tick ---------------------------------------------------------------

    def _tick(self) -> None:
        self._tick_armed = False
        self._tick_event = None
        self._tick_due = None
        for f in self.observers.tick_fired:
            f()
        now = self.engine.now
        for lc in self.nodes.values():
            if self.faults.heartbeat_ok(lc.name):
                self._beat(lc, now)
            else:
                self._miss(lc, now)
        self._ttl_purge(now)
        if self._watch_needed():
            self._arm_tick()

    def _watch_needed(self) -> bool:
        """Keep ticking only while something demands observation.

        An all-UP cluster with no node/host faults needs no heartbeat
        traffic in the sim — and a self-rescheduling tick would keep
        ``engine.run()`` from ever draining the heap.
        """
        if any(lc.state is not NodeHealth.UP or lc.quarantined_until > 0
               for lc in self.nodes.values()):
            return True
        if self._unreachable_since:
            return True
        return bool(self.faults.active(FaultKind.NODE_CRASH)
                    or self.faults.active(FaultKind.NODE_FLAP)
                    or self.faults.active(FaultKind.HOST_UNREACHABLE))

    # -- state machine ------------------------------------------------------

    def _transition(self, lc: NodeLifecycle, now: float,
                    state: NodeHealth, detail: str) -> None:
        lc.state = state
        lc.transitions.append((now, state))
        self.metrics.counter("node_state_transitions_total",
                             state=state.value).inc()
        for f in self.observers.node_lifecycle:
            f(now, lc.name, f"{state.value}: {detail}", node=lc.name)

    def _miss(self, lc: NodeLifecycle, now: float) -> None:
        lc.missed += 1
        if lc.state is NodeHealth.UP and lc.missed >= self.suspect_after:
            self._transition(lc, now, NodeHealth.SUSPECT,
                             f"{lc.missed} missed heartbeat(s)")
        elif (lc.state is NodeHealth.SUSPECT
                and lc.missed >= self.down_after):
            self._transition(lc, now, NodeHealth.DOWN,
                             f"{lc.missed} missed heartbeat(s); fencing")
            self._fence(lc, now)
        self._journal_hb(lc)

    def _beat(self, lc: NodeLifecycle, now: float) -> None:
        # the absence alert watches this family: while faults are active a
        # frozen total means every watched node has gone silent
        self.metrics.counter("node_heartbeats_total").inc()
        before = (lc.state, lc.missed, lc.quarantined_until,
                  tuple(lc.rejoin_times), lc.purged)
        lc.missed = 0
        if lc.state is NodeHealth.SUSPECT:
            self._transition(lc, now, NodeHealth.UP, "heartbeat returned")
        elif lc.state is NodeHealth.DOWN:
            self._try_rejoin(lc, now)
        if before != (lc.state, lc.missed, lc.quarantined_until,
                      tuple(lc.rejoin_times), lc.purged):
            self._journal_hb(lc)

    def _journal_hb(self, lc: NodeLifecycle) -> None:
        for f in self.observers.heartbeat_state:
            f(lc)

    # -- fencing ------------------------------------------------------------

    def _fence(self, lc: NodeLifecycle, now: float) -> None:
        """The node is DOWN: record residue, fence, requeue, purge peers."""
        node = self.scheduler.nodes[lc.name]
        lc.residue = self._record_residue(node, now)
        for f in self.observers.residue_recorded:
            f(lc.residue)
        self.scheduler.fail_node(lc.name)
        for kind, count in (
                ("orphan-procs", len(lc.residue.orphan_pids)),
                ("dirty-gpus", len(lc.residue.dirty_gpus)),
                ("assigned-devs", len(lc.residue.assigned_devices)),
                ("peer-flows", lc.residue.peer_conntrack_flows)):
            if count:
                self.metrics.counter("node_residue_total",
                                     kind=kind).inc(count)
        if self.purge_host is not None:
            self.purge_host(lc.name)
            lc.purged = True
        r = lc.residue
        for f in self.observers.node_lifecycle:
            f(
                now, lc.name,
                f"fenced with residue: jobs={list(r.jobs)} "
                f"orphans={len(r.orphan_pids)} dirty_gpus={len(r.dirty_gpus)} "
                f"assigned_devs={len(r.assigned_devices)} "
                f"peer_flows={r.peer_conntrack_flows}", node=lc.name)

    def _record_residue(self, node, now: float) -> NodeResidue:
        """Snapshot what fencing will strand on (and around) the node."""
        jobs = tuple(sorted(node.allocations))
        orphans = tuple(p.pid for p in node.node.procs.processes()
                        if p.job_id is not None)
        dirty = tuple(g.index for g in node.gpus if g.dirty)
        assigned = []
        for gpu in node.gpus:
            try:
                st = node.node.vfs.stat(gpu_dev_path(gpu.index), ROOT_CREDS)
            except Exception:
                continue
            if st.gid != 0 or (st.mode & 0o777) != GPU_MODE_UNASSIGNED:
                assigned.append(gpu.index)
        return NodeResidue(
            node=node.name, recorded_at=now, jobs=jobs, orphan_pids=orphans,
            dirty_gpus=dirty, assigned_devices=tuple(assigned),
            peer_conntrack_flows=self._count_peer_flows(node.name))

    def _count_peer_flows(self, host: str) -> int:
        counter = getattr(self.purge_host, "count_peer_flows", None)
        return counter(host) if counter is not None else 0

    # -- rejoin -------------------------------------------------------------

    def _try_rejoin(self, lc: NodeLifecycle, now: float) -> None:
        """Heartbeat returned on a DOWN node: damp flaps, then rejoin."""
        if lc.quarantined_until:
            if now < lc.quarantined_until:
                return  # still serving a flap-damping hold
            # hold served in full: the slate is clean, or stale rejoin
            # timestamps inside the window would re-quarantine forever
            lc.quarantined_until = 0.0
            lc.rejoin_times = []
        recent = [t for t in lc.rejoin_times if now - t <= self.flap_window]
        if len(recent) >= self.flap_threshold:
            lc.quarantined_until = now + self.flap_hold
            lc.rejoin_times = recent
            self.metrics.counter("node_flap_quarantines_total").inc()
            for f in self.observers.node_lifecycle:
                f(
                    now, lc.name,
                    f"flap damping: {len(recent)} rejoins within "
                    f"{self.flap_window:g}s; quarantined "
                    f"{self.flap_hold:g}s", node=lc.name)
            return
        lc.rejoin_times = recent + [now]
        self.scheduler.resume(lc.name)  # remediates before rescheduling
        lc.residue = None
        for f in self.observers.residue_cleared:
            f(lc.name)
        self._purged_hosts.discard(lc.name)
        lc.purged = False
        self._transition(lc, now, NodeHealth.UP,
                         "rejoined after remediation")
        self.metrics.counter("node_rejoins_total").inc()

    # -- dead-host TTL purge ------------------------------------------------

    def _ttl_purge(self, now: float) -> None:
        """Purge peers' state about any host unreachable past the TTL.

        Covers hosts the scheduler does not own (login nodes, the portal):
        a partition or crash that persists longer than ``dead_host_ttl``
        invalidates every conntrack entry and cached UBF verdict that
        references the host, with the eviction reason labeled.
        """
        affected = {f.host for f in
                    self.faults.active(FaultKind.HOST_UNREACHABLE)}
        affected |= {f.host for f in
                     self.faults.active(FaultKind.NODE_CRASH)}
        for host in affected:
            if host not in self._unreachable_since:
                self._unreachable_since[host] = now
                for f in self.observers.host_unreachable:
                    f(host, now)
        for host in list(self._unreachable_since):
            if host not in affected:
                del self._unreachable_since[host]
                self._purged_hosts.discard(host)
                for f in self.observers.host_reachable:
                    f(host)
                continue
            since = self._unreachable_since[host]
            if (now - since >= self.dead_host_ttl
                    and host not in self._purged_hosts
                    and self.purge_host is not None):
                self.purge_host(host)
                self._purged_hosts.add(host)
                self.metrics.counter("dead_host_purges_total").inc()
                for f in self.observers.dead_host_purged:
                    f(host)


def attach_health(cluster, **kw) -> HealthMonitor:
    """Attach (and return) a :class:`HealthMonitor` to a built cluster.

    Idempotent, like the telemetry/oracle/event-log spines: a second call
    returns the existing monitor.  Keyword arguments forward to the
    :class:`HealthMonitor` constructor.  The monitor starts with every
    plane already subscribed to the cluster (later ones reach it through
    :meth:`~repro.core.cluster.Cluster.subscribe`).  The dead-host purge
    closure spans every surviving host's conntrack table and UBF decision
    cache; the monitor still needs :meth:`HealthMonitor.start` to begin
    probing.
    """
    existing = getattr(cluster, "health", None)
    if existing is not None:
        return existing

    def purge_host(host: str) -> dict[str, int]:
        """Purge every surviving host's state about *host*."""
        totals = {"conntrack": 0, "verdicts": 0}
        for stack in cluster.fabric.hosts():
            if stack.hostname == host:
                continue
            totals["conntrack"] += stack.firewall.conntrack.purge_host(host)
        for name, daemon in cluster.ubf_daemons.items():
            if name != host:
                totals["verdicts"] += daemon.purge_host(host)
        return totals

    def count_peer_flows(host: str) -> int:
        return sum(
            1 for stack in cluster.fabric.hosts()
            if stack.hostname != host
            for flow in stack.firewall.conntrack.flows()
            if host in (flow.src_host, flow.dst_host))

    purge_host.count_peer_flows = count_peer_flows
    monitor = HealthMonitor(cluster.scheduler, cluster.engine,
                            cluster.fabric.faults, cluster.metrics,
                            observers=cluster.observers,
                            purge_host=purge_host, **kw)
    cluster.health = monitor
    return monitor
