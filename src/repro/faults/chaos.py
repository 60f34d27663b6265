"""Cluster-level chaos orchestration over the fault injector.

:class:`ChaosController` is the operator-facing face of :mod:`repro.faults`:
it knows the built :class:`~repro.core.cluster.Cluster`, so one call both
records the fault in the fabric's injector (for posture reporting) and
applies the state change the fault implies (killing a daemon, re-bounding a
conntrack table).  Clearing a fault reverses both halves — `heal_all()`
restores a fully healthy cluster with **no manual flushes**: surviving
conntrack state is kept, restarted daemons re-sync against it, and the next
NEW connection simply runs the normal decision path again.

``for_=seconds`` arms an automatic clear on the cluster's sim engine, so a
chaos experiment can inject, run virtual time forward, and measure recovery
without bookkeeping.
"""

from __future__ import annotations

from repro.faults.injector import Fault, FaultInjector, FaultKind


class ChaosController:
    """Inject, clear and heal failure modes on a built cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.injector: FaultInjector = cluster.fabric.faults

    # -- injection ----------------------------------------------------------

    def partition(self, host: str, *, for_: float | None = None) -> Fault:
        """Take *host* off the fabric: every packet to it is lost."""
        return self._arm(self.injector.inject(
            FaultKind.HOST_UNREACHABLE, host), for_)

    def identd_down(self, host: str, *, for_: float | None = None) -> Fault:
        """identd on *host* answers nothing (the host itself stays up)."""
        return self._arm(self.injector.inject(
            FaultKind.IDENTD_UNRESPONSIVE, host), for_)

    def identd_slow(self, host: str, *, fail_attempts: int = 1,
                    for_: float | None = None) -> Fault:
        """identd on *host* drops the next *fail_attempts* queries."""
        return self._arm(self.injector.inject(
            FaultKind.IDENTD_SLOW, host, fail_attempts=fail_attempts), for_)

    def packet_loss(self, host: str, *, loss_rate: float,
                    for_: float | None = None) -> Fault:
        """Drop a seeded-random fraction of data packets toward *host*."""
        return self._arm(self.injector.inject(
            FaultKind.PACKET_LOSS, host, loss_rate=loss_rate), for_)

    def kill_ubf(self, host: str, *, for_: float | None = None) -> Fault:
        """Crash the UBF daemon on *host* (kernel fails closed for NEW)."""
        self.cluster.ubf_daemons[host].crash()
        return self._arm(self.injector.inject(FaultKind.UBF_CRASH, host),
                         for_)

    def conntrack_pressure(self, host: str, *, capacity: int,
                           for_: float | None = None) -> Fault:
        """Re-bound *host*'s conntrack table to *capacity* entries.

        Pressure faults on one host stack: the newest active one sets the
        bound, and clearing the last restores the capacity the table had
        before the first.
        """
        table = self.cluster.fabric.host(host).firewall.conntrack
        stack = self.injector.active(FaultKind.CONNTRACK_PRESSURE, host)
        base = (stack[0].params.get("_prev_capacity") if stack
                else table.capacity)
        fault = self.injector.inject(FaultKind.CONNTRACK_PRESSURE, host,
                                     capacity=capacity,
                                     _prev_capacity=base)
        table.set_capacity(capacity, reason="pressure")
        return self._arm(fault, for_)

    def crash_node(self, host: str, *, for_: float | None = None) -> Fault:
        """Power-fail *host*: heartbeats stop, every packet to it is lost.

        Nothing is fenced here — detection is the
        :class:`~repro.sched.health.HealthMonitor`'s job (it needs
        ``down_after`` missed heartbeats to act, exactly like a real
        failure detector).  ``for_=`` models the reboot arriving on its
        own; :meth:`reboot_node` is the explicit form.
        """
        return self._arm(self.injector.inject(FaultKind.NODE_CRASH, host),
                         for_)

    def reboot_node(self, host: str) -> None:
        """The crashed *host* comes back up (all its crash faults clear).

        Only the power state changes: the node rejoins scheduling when the
        health monitor sees its heartbeats return and runs the
        remediation-gated rejoin path.
        """
        for fault in self.injector.active(FaultKind.NODE_CRASH, host):
            self.clear(fault)

    def flap_node(self, host: str, *, flake_rate: float = 0.5,
                  for_: float | None = None) -> Fault:
        """Make *host*'s heartbeat path flaky (each probe drops with
        seeded probability *flake_rate*), exercising the health monitor's
        flap damping."""
        return self._arm(self.injector.inject(
            FaultKind.NODE_FLAP, host, flake_rate=flake_rate), for_)

    def crash_scheduler(self, *, for_: float | None = None) -> Fault:
        """Kill the control plane mid-flight (requires an armed
        persistence spine — there is no recovery without a journal).

        Scheduler/accounting/health tables are wiped and their timers
        cancelled; compute nodes, running processes, the fabric, and the
        UBF daemons keep going.  ``for_=`` schedules the automatic
        recovery; :meth:`recover_scheduler` is the explicit form.
        """
        from repro.persist.recovery import crash_control_plane
        fault = self.injector.inject(FaultKind.SCHED_CRASH, "scheduler")
        crash_control_plane(self.cluster)
        return self._arm(fault, for_)

    def recover_scheduler(self) -> "object":
        """Recover the crashed control plane; returns the RecoveryReport
        (see :meth:`~repro.core.cluster.Cluster.recover`)."""
        return self.cluster.recover()

    # -- recovery -----------------------------------------------------------

    def clear(self, fault: Fault) -> None:
        """Clear one fault, reversing any state change it applied."""
        if not fault.active:
            return
        if fault.kind is FaultKind.UBF_CRASH:
            daemon = self.cluster.ubf_daemons.get(fault.host)
            if daemon is not None and not daemon.alive:
                daemon.restart()
        elif fault.kind is FaultKind.SCHED_CRASH:
            # recover_cluster clears every SCHED_CRASH fault itself; the
            # injector.clear below is then an idempotent no-op
            if getattr(self.cluster.scheduler, "crashed", False):
                self.cluster.recover()
        self.injector.clear(fault)
        if fault.kind is FaultKind.CONNTRACK_PRESSURE:
            table = self.cluster.fabric.host(fault.host).firewall.conntrack
            rest = self.injector.active(FaultKind.CONNTRACK_PRESSURE,
                                        fault.host)
            table.set_capacity(rest[-1].params.get("capacity") if rest
                               else fault.params.get("_prev_capacity"),
                               reason="pressure")
        if fault.kind in _HEALTH_KINDS:
            self._wake_health()

    def heal_all(self) -> None:
        for fault in list(self.injector.active()):
            self.clear(fault)

    def active(self) -> list[Fault]:
        return self.injector.active()

    def _arm(self, fault: Fault, for_: float | None) -> Fault:
        if for_ is not None:
            self.cluster.engine.after(for_, lambda: self.clear(fault))
        if fault.kind in _HEALTH_KINDS:
            self._wake_health()
        return fault

    def _wake_health(self) -> None:
        """Nudge a dormant health monitor: its self-limiting tick loop may
        have gone to sleep on an all-healthy cluster, and a freshly
        injected (or cleared) node/host fault is exactly what it needs to
        start observing again."""
        health = getattr(self.cluster, "health", None)
        if health is not None:
            health.wake()


#: fault kinds the health monitor observes via heartbeats — inject/clear
#: of one wakes a dormant monitor
_HEALTH_KINDS = frozenset({FaultKind.NODE_CRASH, FaultKind.NODE_FLAP,
                           FaultKind.HOST_UNREACHABLE})
