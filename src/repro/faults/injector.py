"""Injectable failure modes for the network/enforcement data path.

The UBF (paper Section IV-D) is a userspace daemon *on the connection-setup
critical path*: if a peer host is down, its identd is slow, or the daemon
itself dies, the design must degrade predictably — fail closed for new
flows, conntrack keeps established ones alive.  This module is the fault
side of that contract: a :class:`FaultInjector` rides on the
:class:`~repro.net.stack.Fabric` and the network components consult it at
exactly the points where real infrastructure fails:

* ``HOST_UNREACHABLE`` — the peer is down: every packet to it (data or
  ident) is lost;
* ``IDENTD_UNRESPONSIVE`` — the host is up but its identd answers nothing;
* ``IDENTD_SLOW`` — identd drops the first *fail_attempts* queries, then
  answers (what a retry-with-backoff policy is for);
* ``UBF_CRASH`` — the decision daemon is dead (recorded here for posture
  reporting; the crash itself is `UBFDaemon.crash()`);
* ``PACKET_LOSS`` — the path to a host drops a seeded-random fraction of
  data packets;
* ``CONNTRACK_PRESSURE`` — the host's conntrack table is re-bounded so LRU
  eviction kicks in (recorded here; applied via
  ``ConntrackTable.set_capacity``).

Injection is instant, explicit and reversible; every transition is counted
(``faults_injected_total{kind=}`` / ``faults_cleared_total{kind=}``) so the
ops dashboard's degradation-posture section can render live fault state.
Packet-loss and heartbeat-flap draws come from a :mod:`repro.sim.rng`
generator seeded with ``DEFAULT_SEED`` unless a seed is given — identical
runs lose identical packets.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.observer import Observers
from repro.sim.rng import DEFAULT_SEED, make_rng


class FaultKind(enum.Enum):
    """The kinds of infrastructure fault the injector can impose."""

    HOST_UNREACHABLE = "host-unreachable"
    IDENTD_UNRESPONSIVE = "identd-unresponsive"
    IDENTD_SLOW = "identd-slow"
    UBF_CRASH = "ubf-crash"
    PACKET_LOSS = "packet-loss"
    CONNTRACK_PRESSURE = "conntrack-pressure"
    #: the node itself is down (power fail / kernel panic): heartbeats stop
    #: and every packet to it is lost; detection and fencing are the health
    #: monitor's job (repro.sched.health)
    NODE_CRASH = "node-crash"
    #: the node's heartbeat path flaps: each heartbeat is dropped with a
    #: seeded probability (``flake_rate``) while the node otherwise works
    NODE_FLAP = "node-flap"
    #: the host's identd lies: ident queries about its ports return a
    #: forged (uid, egid, groups) instead of the socket owner's — the
    #: compromised-initiator scenario the UBF's local cross-check
    #: ("the same query run locally") exists to catch
    IDENT_SPOOF = "ident-spoof"
    #: the control plane (scheduler/accounting/health/UserDB views) is
    #: dead: its tables are wiped and its timers cancelled; the data
    #: plane keeps running.  Recovery is ``Cluster.recover()``
    #: (repro.persist), verified by oracle invariant I8.
    SCHED_CRASH = "sched-crash"


@dataclass(eq=False)  # identity semantics: each injection is its own fault
class Fault:
    """One active (or cleared) injected fault."""

    fault_id: int
    kind: FaultKind
    host: str
    params: dict[str, object] = field(default_factory=dict)
    active: bool = True

    def describe(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in sorted(self.params.items())
                         if not str(k).startswith("_"))
        return f"{self.kind.value} on {self.host}" + (f" ({inner})"
                                                      if inner else "")


class FaultInjector:
    """Fault registry + the predicates the data path consults.

    One injector per fabric (``fabric.faults``).  With nothing injected
    every predicate returns its no-fault answer before it looks for a
    fault, so the healthy path pays one attribute read and a truthiness
    check and draws nothing.
    """

    def __init__(self, metrics, seed: int | None = DEFAULT_SEED):
        self.metrics = metrics
        self._rng = make_rng(seed)
        self._ids = itertools.count(1)
        self._active: list[Fault] = []
        #: optional planes (repro.observer) told of each fresh injection
        self.observers = Observers()

    # -- lifecycle ----------------------------------------------------------

    def inject(self, kind: FaultKind, host: str, **params: object) -> Fault:
        fault = Fault(next(self._ids), kind, host, dict(params))
        self._active.append(fault)
        self.metrics.counter("faults_injected_total", kind=kind.value).inc()
        self.metrics.gauge("faults_active").set(len(self._active))
        for f in self.observers.fault_injected:
            f(fault)
        return fault

    def clear(self, fault: Fault) -> None:
        if not fault.active:
            return
        fault.active = False
        self._active.remove(fault)
        self.metrics.counter("faults_cleared_total",
                             kind=fault.kind.value).inc()
        self.metrics.gauge("faults_active").set(len(self._active))

    def clear_all(self) -> None:
        for fault in list(self._active):
            self.clear(fault)

    def active(self, kind: FaultKind | None = None,
               host: str | None = None) -> list[Fault]:
        return [f for f in self._active
                if (kind is None or f.kind is kind)
                and (host is None or f.host == host)]

    # -- predicates (the data path asks these) ------------------------------

    def host_unreachable(self, host: str) -> bool:
        """Partitioned *or* crashed: either way no packet gets through."""
        if not self._active:
            return False
        return bool(self.active(FaultKind.HOST_UNREACHABLE, host)
                    or self.active(FaultKind.NODE_CRASH, host))

    def node_crashed(self, host: str) -> bool:
        if not self._active:
            return False
        return bool(self.active(FaultKind.NODE_CRASH, host))

    def heartbeat_ok(self, host: str) -> bool:
        """Did one heartbeat probe of *host* succeed right now?

        A crashed or partitioned host answers nothing; a ``NODE_FLAP``
        fault drops each probe with probability ``flake_rate`` (seeded
        draws — identical runs observe identical flaps).
        """
        if not self._active:
            return True
        if self.host_unreachable(host):
            return False
        for fault in self.active(FaultKind.NODE_FLAP, host):
            rate = float(fault.params.get("flake_rate", 0.5))
            if rate > 0 and self._rng.random() < rate:
                self.metrics.counter("fault_heartbeats_dropped").inc()
                return False
        return True

    def ident_attempt_ok(self, host: str) -> bool:
        """May one ident query to *host* succeed right now?

        ``IDENTD_SLOW`` faults consume one failed attempt per call until
        their ``fail_attempts`` budget is spent, then stop interfering —
        which is exactly the shape a retry-with-backoff client recovers
        from without operator action.
        """
        if not self._active:
            return True
        if self.host_unreachable(host) \
                or self.active(FaultKind.IDENTD_UNRESPONSIVE, host):
            return False
        for fault in self.active(FaultKind.IDENTD_SLOW, host):
            remaining = int(fault.params.get("fail_attempts", 1))
            if remaining > 0:
                fault.params["fail_attempts"] = remaining - 1
                return False
        return True

    def spoofed_reply(self, host: str):
        """The forged identd answer *host* would give, or None when honest.

        An ``IDENT_SPOOF`` fault models a compromised initiating host whose
        identd answers with an attacker-chosen identity (params ``uid``,
        ``egid``, ``groups``) instead of the true socket owner.  The fabric
        still delivers the reply — detecting the lie is the *receiving*
        daemon's job, by cross-checking against the kernel-stamped uid on
        the connection packet itself.
        """
        if not self._active:
            return None
        for fault in self.active(FaultKind.IDENT_SPOOF, host):
            from repro.net.ident import IdentReply
            uid = int(fault.params.get("uid", 0))
            egid = int(fault.params.get("egid", uid))
            groups = frozenset(
                int(g) for g in fault.params.get("groups", (egid,)))
            self.metrics.counter("ident_spoofed_replies").inc()
            return IdentReply(uid=uid, egid=egid, groups=groups)
        return None

    def drop_packet(self, dst_host: str) -> bool:
        """Seeded-random loss draw for one data packet toward *dst_host*."""
        if not self._active:
            return False
        for fault in self.active(FaultKind.PACKET_LOSS, dst_host):
            rate = float(fault.params.get("loss_rate", 0.0))
            if rate > 0 and self._rng.random() < rate:
                self.metrics.counter("fault_packets_dropped").inc()
                return True
        return False
