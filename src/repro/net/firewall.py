"""iptables-style firewall: rule chains, conntrack, and NFQUEUE.

Section IV-D: "Our UBF uses the IPTables NetFilter Queue module (nfqueue) to
send new connection requests to a userspace daemon for decision.  Only 'new'
connections are sent; IPTables connection tracking (conntrack) handles
established connections."

The model keeps exactly the pieces that matter for that data path:

* a **conntrack table** keyed by five-tuple; hits bypass the rule walk
  entirely (the zero-per-packet-cost property the paper relies on);
* an **INPUT chain** of :class:`Rule` objects matched on protocol, dport
  range and connection state, each yielding ACCEPT, DROP, or NFQUEUE;
* an **nfqueue binding**: a userspace callback (the UBF daemon) that returns
  the final verdict for NEW connections.

Costs are recorded in a :class:`~repro.sim.metrics.MetricSet` so experiment
E8 can price the fast and slow paths.  The packet path bumps its counters
through :class:`HeldCounters`, which resolves each series once instead of
asking the registry by name at every bump.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.sim.metrics import Counter, MetricSet


class Proto(enum.Enum):
    """Transport protocol of a flow."""

    TCP = "tcp"
    UDP = "udp"


class Verdict(enum.Enum):
    """Firewall decision for a packet."""

    ACCEPT = "accept"
    DROP = "drop"
    NFQUEUE = "nfqueue"


class ConnState(enum.Enum):
    """Conntrack state of a tracked connection."""

    NEW = "new"
    ESTABLISHED = "established"


class HeldCounters(dict):
    """The counter series of one registry that packet-path code bumps,
    held under the key it bumps them by: ``held[key].value += 1``.

    A ``str`` key is an unlabelled series; a tuple ``(name, label, value,
    ...)`` is the series of family *name* with those label pairs.  A key
    resolves at its first bump through the ``counter()`` call it stands
    for, so the registered series (and every export) stay what asking by
    name gives; after that a bump is one dict lookup.  An owner whose
    registry can be rewired starts a fresh table when ``held.registry``
    is no longer its registry.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricSet | None) -> None:
        super().__init__()
        self.registry = registry

    def __missing__(self, key: str | tuple) -> Counter:
        if type(key) is str:
            series = self.registry.counter(key)
        else:
            name, *pairs = key
            series = self.registry.counter(
                name, **dict(zip(pairs[::2], pairs[1::2])))
        self[key] = series
        return series


@dataclass(frozen=True, init=False)
class FiveTuple:
    """Flow identity: (proto, src host/port, dst host/port).

    A flow is a dict key on both hosts' conntrack, probed in both
    directions per packet, so it hashes once (the same value the
    dataclass hash gives) and builds its reverse once: ``reversed()``
    links the twins, and ``f.reversed().reversed() is f``.  Linked twins
    are a reference cycle, so a flow leaving conntrack by
    :meth:`ConntrackTable.evict` unlinks them (:meth:`unlink`), and a
    closed connection's flows are freed by reference counting; the next
    ``reversed()`` of an unlinked flow builds and links a fresh twin.
    The hash and the twin are plain attributes, not fields, so ``==``,
    ``repr``, ``dataclasses.fields`` and ``asdict`` see the five flow
    fields only.  The constructor writes the instance dict directly: the
    generated frozen ``__init__`` would pay one ``object.__setattr__``
    per field, and flows are built per connection.
    """

    proto: Proto
    src_host: str
    src_port: int
    dst_host: str
    dst_port: int

    def __init__(self, proto: Proto, src_host: str, src_port: int,
                 dst_host: str, dst_port: int) -> None:
        d = self.__dict__
        d["proto"] = proto
        d["src_host"] = src_host
        d["src_port"] = src_port
        d["dst_host"] = dst_host
        d["dst_port"] = dst_port
        d["_hash"] = hash((proto, src_host, src_port, dst_host, dst_port))
        d["_reverse"] = None

    def __hash__(self) -> int:
        return self._hash

    def reversed(self) -> "FiveTuple":
        rev = self._reverse
        if rev is None:
            rev = FiveTuple(self.proto, self.dst_host, self.dst_port,
                            self.src_host, self.src_port)
            rev.__dict__["_reverse"] = self
            self.__dict__["_reverse"] = rev
        return rev

    def unlink(self) -> None:
        """Forget the linked twin, and have the twin forget this flow."""
        rev = self._reverse
        if rev is not None:
            rev.__dict__["_reverse"] = None
            self.__dict__["_reverse"] = None


@dataclass(frozen=True, init=False)
class Packet:
    """The firewall-visible part of a segment/datagram.

    ``src_uid`` is the uid of the process that owns the sending socket,
    stamped by the *initiating* host's kernel.  Cluster hosts run the same
    root-administered system image (the paper's trust model — the same
    assumption that makes the identd responder trustworthy), so the UBF
    daemon may use it as a **cache key**: a hit on a previously-decided
    principal triple skips the ident round trip entirely.  It is never used
    as the authoritative identity — a cache miss still pays the ident RTT,
    which returns uid *and* group membership.  ``None`` models a packet
    whose origin offers no credential (e.g. hand-crafted test traffic); the
    daemon then always runs the full query.

    Every packet that crosses the fabric is built, so the constructor
    writes the instance dict directly, as :class:`FiveTuple`'s does.
    """

    flow: FiveTuple
    state: ConnState
    payload_len: int = 0
    src_uid: int | None = None

    def __init__(self, flow: FiveTuple, state: ConnState,
                 payload_len: int = 0, src_uid: int | None = None) -> None:
        d = self.__dict__
        d["flow"] = flow
        d["state"] = state
        d["payload_len"] = payload_len
        d["src_uid"] = src_uid


@dataclass(frozen=True)
class Rule:
    """One INPUT-chain rule: match → verdict.

    ``dport_min``/``dport_max`` bound the destination port (the appendix:
    the UBF "would normally be configured ... to inspect connections on
    ports numbered 1024 and above"); ``state`` restricts to NEW or
    ESTABLISHED; None fields match everything.
    """

    verdict: Verdict
    proto: Proto | None = None
    dport_min: int | None = None
    dport_max: int | None = None
    state: ConnState | None = None
    comment: str = ""

    def matches(self, pkt: Packet) -> bool:
        if self.proto is not None and pkt.flow.proto is not self.proto:
            return False
        if self.dport_min is not None and pkt.flow.dst_port < self.dport_min:
            return False
        if self.dport_max is not None and pkt.flow.dst_port > self.dport_max:
            return False
        if self.state is not None and pkt.state is not self.state:
            return False
        return True


@dataclass
class ConntrackEntry:
    """One tracked connection and the verdict stamped on its flow."""

    flow: FiveTuple
    packets: int = 0
    bytes: int = 0


class ConntrackTable:
    """Established-flow table; both directions of a flow share one entry.

    Like the kernel's, the table is **bounded**: ``capacity`` (None =
    unbounded, matching ``nf_conntrack_max`` left at default) caps the
    number of live entries, and commits beyond it evict the least recently
    used flow.  An evicted flow is not broken — its next packet is simply
    NEW again and re-runs the full decision path (the nfqueue/UBF slow
    path), which is exactly the real system's degradation mode under
    conntrack pressure.  Evictions are counted per reason
    (``conntrack_evictions_total{reason=lru|close|refused|pressure}``) and
    the table's length per host (``conntrack_table_size{host}``) when a
    metrics registry is attached.
    """

    def __init__(self, enabled: bool = True, capacity: int | None = None,
                 metrics: MetricSet | None = None):
        self.enabled = enabled
        self.capacity = capacity
        #: registry evictions/size are reported to; wired by the owning
        #: Firewall / HostStack (may stay None in unit scenarios)
        self.metrics = metrics
        #: the ``host`` label of this table's ``conntrack_table_size``
        #: series; wired by the owning HostStack before its first commit
        self.host = ""
        #: (registry, its size series): a labelled lookup per commit costs
        #: more than the rest of the commit
        self._size = (None, None)
        #: the eviction counters, held against ``metrics``
        self._held = HeldCounters(None)
        self._table: OrderedDict[FiveTuple, ConntrackEntry] = OrderedDict()

    # -- accounting ---------------------------------------------------------

    def _count_eviction(self, reason: str) -> None:
        metrics = self.metrics
        if metrics is not None:
            held = self._held
            if held.registry is not metrics:
                held = self._held = HeldCounters(metrics)
            held["conntrack_evictions_total", "reason", reason].value += 1

    def _note_size(self) -> None:
        metrics = self.metrics
        if metrics is not None:
            registry, gauge = self._size
            if registry is not metrics:
                gauge = metrics.gauge("conntrack_table_size", host=self.host)
                self._size = (metrics, gauge)
            gauge.set(len(self._table))

    def _trim(self, reason: str) -> int:
        """Evict LRU-first down to ``capacity``; returns the count."""
        evicted = 0
        while self.capacity is not None and len(self._table) > self.capacity:
            self._table.popitem(last=False)
            self._count_eviction(reason)
            evicted += 1
        return evicted

    # -- data path ----------------------------------------------------------

    def lookup(self, flow: FiveTuple) -> ConntrackEntry | None:
        if not self.enabled:
            return None
        entry = self._table.get(flow)
        key = flow
        if entry is None:
            key = flow.reversed()
            entry = self._table.get(key)
        if entry is not None:
            self._table.move_to_end(key)  # LRU touch
        return entry

    def commit(self, flow: FiveTuple) -> ConntrackEntry:
        """Track *flow*, returning the live entry if either direction is
        already tracked.

        Re-committing must not build a fresh :class:`ConntrackEntry`: that
        would zero the packet/byte counters of a live flow, and a commit of
        the reverse direction would insert a second entry for the same
        connection — doubling occupancy, skewing LRU eviction, and
        double-counting in :meth:`purge_host`.  A commit of a tracked flow
        is just an LRU touch.
        """
        if not self.enabled:
            return ConntrackEntry(flow)
        key, entry = flow, self._table.get(flow)
        if entry is None:
            rev = flow.reversed()
            entry = self._table.get(rev)
            if entry is not None:
                key = rev
        if entry is None:
            entry = ConntrackEntry(flow)
            self._table[key] = entry
        self._table.move_to_end(key)
        if self.capacity is not None:
            self._trim("lru")
        self._note_size()
        return entry

    def evict(self, flow: FiveTuple, reason: str = "close") -> None:
        """Stop tracking *flow*, in whichever direction it is tracked.

        :meth:`commit` never keys both directions of one flow, so the
        reverse is probed only when *flow* itself is not a key.  *flow*
        and the evicted key leave unlinked from their twins
        (:meth:`FiveTuple.unlink`): nothing that only those twins hold
        outlives the flow.
        """
        table = self._table
        entry = table.pop(flow, None)
        if entry is None:
            entry = table.pop(flow.reversed(), None)
        flow.unlink()
        if entry is not None:
            entry.flow.unlink()
            self._count_eviction(reason)
            self._note_size()

    def purge_host(self, host: str, reason: str = "dead-host") -> int:
        """Evict every flow touching *host*; returns the eviction count.

        Conntrack state referencing a dead peer is worse than useless: it
        would keep admitting packets "from" a host that can no longer be
        ident-verified once something else answers to its name.  Surviving
        hosts call this when a peer's crash/partition persists past the
        health monitor's TTL.
        """
        doomed = [f for f in self._table
                  if host in (f.src_host, f.dst_host)]
        for flow in doomed:
            del self._table[flow]
            self._count_eviction(reason)
        if doomed:
            self._note_size()
        return len(doomed)

    def set_capacity(self, capacity: int | None,
                     reason: str = "pressure") -> int:
        """Re-bound the table, trimming LRU-first; returns evicted count."""
        self.capacity = capacity
        evicted = self._trim(reason)
        if evicted:
            self._note_size()
        return evicted

    def flows(self) -> list[FiveTuple]:
        """Live flow keys, LRU-first (what a restarted daemon re-syncs on)."""
        return list(self._table)

    def __len__(self) -> int:
        return len(self._table)


NfqueueHandler = Callable[[Packet], Verdict]
NfqueueBatchHandler = Callable[[list[Packet]], list[Verdict]]


@dataclass
class Firewall:
    """Per-host INPUT chain + conntrack + one nfqueue binding.

    A packet no rule matches is accepted (stock hosts ship that policy).
    Metrics are shared with the owning fabric when provided.
    """

    rules: list[Rule] = field(default_factory=list)
    conntrack: ConntrackTable = field(default_factory=ConntrackTable)
    metrics: MetricSet = field(default_factory=MetricSet)
    _nfqueue: NfqueueHandler | None = None
    _nfqueue_batch: NfqueueBatchHandler | None = None

    def __post_init__(self) -> None:
        if self.conntrack.metrics is None:
            self.conntrack.metrics = self.metrics
        #: the walk's counters, held against ``metrics``
        self._held = HeldCounters(self.metrics)

    def bind_nfqueue(self, handler: NfqueueHandler) -> None:
        self._nfqueue = handler

    def bind_nfqueue_batch(self, handler: NfqueueBatchHandler) -> None:
        """Attach the daemon's burst entry point used by
        :meth:`evaluate_batch`; packets queued in one burst reach the
        daemon as a single list instead of one callback each."""
        self._nfqueue_batch = handler

    def unbind_nfqueue(self) -> NfqueueHandler | None:
        """Detach the userspace daemon (it crashed or was stopped).

        With no handler bound, NFQUEUE rules fail **closed**: the kernel
        drops NEW connections while conntrack keeps established flows
        alive — the degradation contract of the real nfqueue data path.
        Returns the detached handler so a restart can rebind the exact
        callable (including any monitoring wrappers around it).  The batch
        handler is detached alongside it — a crashed daemon must not keep
        serving bursts.
        """
        handler, self._nfqueue = self._nfqueue, None
        self._nfqueue_batch = None
        return handler

    def _walk(self, pkt: Packet) -> Verdict:
        """Conntrack, then the first matching rule (none: ACCEPT).  An
        ACCEPT is committed; an NFQUEUE is counted and left to the caller
        to hand to the daemon."""
        held = self._held
        if held.registry is not self.metrics:  # a HostStack rewired it
            held = self._held = HeldCounters(self.metrics)
        entry = self.conntrack.lookup(pkt.flow)
        if entry is not None:
            entry.packets += 1
            entry.bytes += pkt.payload_len
            held["conntrack_fastpath_packets"].value += 1
            return Verdict.ACCEPT
        held["rule_walks"].value += 1
        verdict = Verdict.ACCEPT
        for rule in self.rules:
            if rule.matches(pkt):
                verdict = rule.verdict
                break
        if verdict is Verdict.ACCEPT:
            self.conntrack.commit(pkt.flow)
        elif verdict is Verdict.NFQUEUE:
            held["nfqueue_decisions"].value += 1
        return verdict

    def evaluate(self, pkt: Packet) -> Verdict:
        """Run a packet through conntrack then the INPUT chain.

        ESTABLISHED fast path: a conntrack hit accepts immediately without
        touching the rules or the userspace daemon — this is what keeps the
        UBF's cost off the per-packet path.
        """
        verdict = self._walk(pkt)
        if verdict is not Verdict.NFQUEUE:
            return verdict
        if self._nfqueue is None:
            # queue with no daemon: kernel drops (fail closed)
            return Verdict.DROP
        verdict = self._nfqueue(pkt)
        if verdict is Verdict.ACCEPT:
            self.conntrack.commit(pkt.flow)
        return verdict

    def evaluate_batch(self, pkts: list[Packet]) -> list[Verdict]:
        """Run a burst through conntrack/rules with one daemon callback.

        Each packet takes the same conntrack-then-chain walk as
        :meth:`evaluate`, but every packet that lands on an NFQUEUE rule is
        parked and handed to the bound batch handler (or, failing that, the
        per-packet handler) in a single call — the kernel analogue of
        nfqueue's range verdicts.  The burst is treated as arriving
        together: a queued packet does not see conntrack entries created by
        later verdicts in the same burst, which mirrors
        :meth:`UBFDaemon.decide_batch`'s coalescing semantics.
        """
        out = [self._walk(pkt) for pkt in pkts]
        queued = [i for i, v in enumerate(out) if v is Verdict.NFQUEUE]
        if queued:
            burst = [pkts[i] for i in queued]
            if self._nfqueue_batch is not None:
                verdicts = self._nfqueue_batch(burst)
            elif self._nfqueue is not None:
                verdicts = [self._nfqueue(p) for p in burst]
            else:  # no daemon: fail closed
                verdicts = [Verdict.DROP] * len(burst)
            for i, verdict in zip(queued, verdicts):
                if verdict is Verdict.ACCEPT:
                    self.conntrack.commit(pkts[i].flow)
                out[i] = verdict
        return out


def ubf_ruleset() -> list[Rule]:
    """The appendix ruleset: NEW connections to ports ≥1024 go to the UBF
    daemon via nfqueue; privileged ports (root-run system services such as
    sshd, identd, the scheduler) are accepted; everything ESTABLISHED is
    conntrack's business and never reaches these rules."""
    return [
        Rule(Verdict.NFQUEUE, dport_min=1024, state=ConnState.NEW,
             comment="UBF: user-port NEW connections to userspace daemon"),
        Rule(Verdict.ACCEPT, dport_max=1023, state=ConnState.NEW,
             comment="system services on privileged ports"),
    ]
