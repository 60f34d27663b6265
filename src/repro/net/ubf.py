"""The User-Based Firewall daemon (paper Section IV-D + appendix).

Decision rule, verbatim from the appendix: "The ruleset implemented only
permits a connection when the connecting and listening processes are running
as the same user, or the connecting process is a member of the primary group
(egid) of the listening process."

Data path: the kernel's nfqueue hands the daemon each NEW connection to a
user port (≥1024).  The daemon then

1. runs the ident query *locally* to learn the listening process's uid/egid,
2. checks the decision cache keyed on (initiator uid, listener uid,
   listener egid) — a hit answers without any network traffic,
3. on a miss, sends the ident-like query to the *initiating* host to learn
   the connecting process's uid and groups (one RTT),
4. applies the same-user-or-egid-member rule,
5. returns ACCEPT/DROP to the kernel; ACCEPT flows are committed to
   conntrack by the firewall so later packets never reach the daemon.

The cache (an ablation knob for E8) keys on the packet's kernel-stamped
initiator uid — every cluster host runs the same root-administered system
image, so the stamp shares the trust basis of the ident answer it stands in
for.  A hit skips the ident RTT entirely; that is the whole point of the
cache, and the regression test pins it.  The cache is conservative —
listener egid changes are handled by keying on the egid *value*, so an
``sg`` to a new group produces a different key and a fresh (authoritative)
decision.  Packets arriving without a uid stamp always take the full path.

The cache is **bounded** and there is exactly one of it, shared by the
naive reference and the fast path: an LRU dict that reads the daemon's
``cache_capacity`` (None = unbounded) at every insert, so changing it on
a live daemon takes effect at the next decision.  Evictions are counted
under ``ubf_cache_evictions_total{reason="lru"}``.  At millions of
distinct principal triples an unbounded decision cache is an OOM, not a
cache.  Nothing else ages an entry out: the cache is flushed whenever
the account database's generation moves (so a revoked membership's
cached ACCEPT dies with the revocation), on :meth:`UBFDaemon.resync`,
and per initiating host by :meth:`UBFDaemon.purge_host` when that host
is declared dead.

A hit answers from the uid alone, so only a verdict that holds for every
process of that uid is stored.  A same-user or root verdict does.  A
group verdict reads the initiator's credential snapshot, which is the
account database's answer only if the process logged in after the last
change to that group; a verdict reached from a snapshot the database
contradicts belongs to that one process and is not cached, so a
revoked member's fresh login is never answered from an old session's
ACCEPT, nor a new member's fresh login from an old session's DROP.

Degradation: when the initiating host (or its identd) cannot answer, the
remote query raises :class:`~repro.net.ident.IdentUnavailable`.  The daemon
retries with backoff (``ident_retries`` × ``ident_backoff_us``) and, if the
fault persists, issues a *degraded* verdict: DROP under the default
fail-closed policy, ACCEPT under ``fail_open=True`` (the availability-over-
separation ablation).  Degraded verdicts are never cached — they reflect a
fault, not an identity decision — and are counted under
``ubf_degraded_verdicts{policy=}`` so posture dashboards see them.

Crash/restart: ``crash()`` detaches the daemon from the nfqueue (the kernel
then fails closed for NEW connections — no handler means DROP) while
conntrack keeps established flows alive.  ``restart()`` rebinds through
:meth:`UBFDaemon.install`, flushes the decision cache (stale across a
restart) and re-syncs against the surviving conntrack table — no manual
flush is ever needed.

Observers: every verdict passes through one point, ``_log``, which
counts it and reports it to the daemon's ``observers``
(:mod:`repro.observer`) on the single-packet and burst paths alike — the
security-event log turns a DROP into ``NET_DENY`` and a degraded verdict
into ``DEGRADED``, the audit trail records clean ACCEPTs — so nothing
ever wraps the nfqueue handler.  The daemon keeps no record of its own:
observers are the only way a verdict leaves it.  Cache hits, full
decisions and degraded verdicts are reported where they are made (the
oracle checks each), and each ``decide`` call and ``decide_batch`` burst
is reported as a whole (telemetry's spans).

Scale-out hot path (E24): ``decide_batch`` takes a burst of queued packets
and **coalesces** ident queries — packets from the same remote (host, proto,
src-port), i.e. the same initiating process, park as waiters on a single
upstream exchange and all receive verdicts derived from its one reply
(savings counted under ``ident_coalesced``).  ``naive=True`` preserves the
original sequential per-packet path as the differential-testing reference
the oracle shadows.  Every path concludes through the same rule
(``_rule``, on the ident reply's group snapshot) and the same cache, so
both produce identical verdicts by construction; the property test keeps
it so, under faults too (coalescing legitimately consumes fewer identd
attempts than per-packet retry loops, never a different verdict).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.kernel.errors import NoSuchEntity
from repro.kernel.users import UserDB
from repro.net.firewall import Packet, Verdict
from repro.net.ident import (
    IdentReply,
    IdentUnavailable,
    local_ident,
    remote_ident_query,
)
from repro.net.stack import Fabric, HostStack


class DecisionReason(enum.Enum):
    """Closed reason vocabulary for the ``ubf_verdicts_total`` metric label.

    The counter used to be labeled with the free-text reason string, and
    degraded verdicts embedded the fault message — every distinct fault
    minted a new counter series, unbounded label cardinality.  Metric
    labels now always come from this enum; the human-readable detail goes
    only to the observers (span tags, the audit trail).
    """

    NO_LISTENER = "no-listener"
    ROOT_SERVICE = "root-service"
    CACHED = "cached"
    ROOT_INITIATOR = "root-initiator"
    SAME_USER = "same-user"
    GROUP_MEMBER = "group-member"
    CROSS_USER = "cross-user"
    UNIDENTIFIABLE = "unidentifiable"
    DEGRADED = "degraded"
    #: the remote identd's answer contradicts the kernel-stamped uid on
    #: the packet — a forged/compromised responder; always a DROP
    IDENT_MISMATCH = "ident-mismatch"


@dataclass
class UBFDaemon:
    """Userspace decision daemon bound to one host's nfqueue."""

    stack: HostStack
    fabric: Fabric
    userdb: UserDB
    cache_enabled: bool = True
    #: degraded-mode policy: ACCEPT (True) or DROP (False) when the
    #: initiator's identity cannot be learned due to an infrastructure fault.
    #: The paper's separation-first posture defaults to fail-closed.
    fail_open: bool = False
    #: extra ident attempts after the first failure, each preceded by a
    #: simulated exponential backoff (ident_backoff_us * 2^attempt).
    ident_retries: int = 2
    ident_backoff_us: float = 200.0
    #: optional planes (repro.observer) told every verdict and decision
    observers: list = field(default_factory=list, repr=False)
    #: original sequential per-packet reference path for differential testing.
    naive: bool = False
    #: decision-cache entry bound, read at every insert; None = unbounded
    cache_capacity: int | None = 65_536
    alive: bool = True
    #: the one decision cache, shared by the naive and fast paths: key ->
    #: (verdict, initiating host whose ident answer decided it), in LRU
    #: order (oldest first)
    _cache: OrderedDict[tuple[int, int, int], tuple[Verdict, str]] = field(
        default_factory=OrderedDict, repr=False)
    #: account-database generation the decision cache was filled under;
    #: a mismatch at decide time flushes it (see _revalidate_generation)
    _cache_gen: int = field(default=-1, repr=False)

    def install(self) -> "UBFDaemon":
        self.stack.firewall.bind_nfqueue(self.decide)
        self.stack.firewall.bind_nfqueue_batch(self.decide_batch)
        return self

    # -- lifecycle --------------------------------------------------------------

    def crash(self) -> None:
        """The daemon process dies: the nfqueue loses its handler.

        From the kernel's point of view this is the fail-safe posture the
        design promises — NEW connections to user ports now DROP (nobody to
        ask), while conntrack-established flows keep flowing untouched.
        """
        if not self.alive:
            return
        self.stack.firewall.unbind_nfqueue()
        self.alive = False
        self.fabric.metrics.counter("ubf_crashes").inc()

    def restart(self) -> None:
        """Restart after a crash: rebind, flush the cache, re-sync.

        Monitoring rides the ``observers`` rather than a wrapper around
        the handler, so rebinding through :meth:`install` loses nothing.
        The decision cache is dropped (identity state from before the
        crash is stale); the conntrack table is *kept* — established flows
        never noticed the outage and need no manual flush.
        """
        if self.alive:
            return
        self.install()
        self.resync(reason="restart")
        self.alive = True
        self.fabric.metrics.counter("ubf_restarts").inc()
        self.fabric.metrics.gauge("ubf_resync_flows").set(
            len(self.stack.firewall.conntrack))

    def resync(self, *, reason: str) -> int:
        """Drop every cached verdict and pin the cache to the *current*
        account-database generation; returns the number purged.

        ``flush_cache`` alone leaves the generation markers at ``-1``,
        deferring the re-pin to the next decide's revalidation — which is
        correct only if the generation moved.  After a control-plane
        recovery the replayed database lands numerically *equal* to the
        pre-crash generation, so an un-resynced daemon would pass the
        equality check and keep serving pre-crash verdicts.  Recovery
        bumps the generation past every value any daemon ever saw and
        then calls this on each one.
        """
        purged = len(self._cache)
        self.flush_cache()
        self._cache_gen = self.userdb.generation
        if purged:
            self.fabric.metrics.counter(
                "ubf_cache_purged_total", reason=reason).inc(purged)
        self.fabric.metrics.counter("ubf_resyncs_total",
                                    reason=reason).inc()
        return purged

    # -- decision ---------------------------------------------------------------

    def decide(self, pkt: Packet) -> Verdict:
        try:
            verdict = self._decide(pkt)
        except Exception as exc:
            for o in self.observers:
                o.ubf_decided(self, pkt, None, exc)
            raise
        for o in self.observers:
            o.ubf_decided(self, pkt, verdict, None)
        return verdict

    def _decide(self, pkt: Packet) -> Verdict:
        verdict, listener = self._pre_decide(pkt)
        if verdict is not None:
            return verdict
        try:
            initiator = self._remote_ident(pkt.flow)
        except IdentUnavailable as exc:
            return self._degraded(pkt, listener, exc)
        return self._conclude(pkt, listener, initiator)

    # -- the decision cache -----------------------------------------------------

    def _cache_get(self, key: tuple[int, int, int]) -> Verdict | None:
        entry = self._cache.get(key)
        if entry is None:
            return None
        self._cache.move_to_end(key)  # LRU touch
        return entry[0]

    def _cache_put(self, key: tuple[int, int, int], verdict: Verdict,
                   host: str) -> None:
        if self.cache_capacity is not None and key not in self._cache:
            while len(self._cache) >= self.cache_capacity:
                self._cache.popitem(last=False)
                self.fabric.metrics.counter("ubf_cache_evictions_total",
                                            reason="lru").inc()
        self._cache[key] = (verdict, host)
        self._cache.move_to_end(key)

    def _revalidate_generation(self) -> None:
        """Flush cached verdicts minted under an older account database.

        A cached verdict is a frozen conclusion: without this check a uid
        removed from a project group keeps replaying its pre-revocation
        cross-user ACCEPT out of the decision cache for as long as the
        entry lives, and nothing else ages an entry out.  One integer
        compare per decide call; on a generation change the cache is
        dropped and the purge is counted under
        ``ubf_cache_purged_total{reason="membership-change"}``.
        """
        gen = self.userdb.generation
        if gen == self._cache_gen:
            return
        purged = len(self._cache)
        self._cache.clear()
        self._cache_gen = gen
        if purged:
            self.fabric.metrics.counter(
                "ubf_cache_purged_total",
                reason="membership-change").inc(purged)

    def _pre_decide(self, pkt: Packet
                    ) -> tuple[Verdict | None, IdentReply | None]:
        """The pre-ident phase: listener lookup + cache/root short-circuits.

        Returns ``(verdict, listener)``; ``verdict is None`` means the
        packet needs a remote ident exchange before it can be concluded.
        """
        if self.cache_enabled:
            self._revalidate_generation()
        flow = pkt.flow
        listener = local_ident(self.stack, flow.proto, flow.dst_port)
        if listener is None:
            # nothing listening; let the stack produce ECONNREFUSED rather
            # than leaking whether the port is filtered
            return self._log(pkt, None, Verdict.ACCEPT,
                             "no listener (refusal handled by stack)",
                             DecisionReason.NO_LISTENER), None
        if listener.uid == 0:
            return self._log(pkt, None, Verdict.ACCEPT, "root-owned service",
                             DecisionReason.ROOT_SERVICE), listener
        # Cache first: a hit answers from the kernel-stamped initiator uid
        # without touching the network.  (The stamp is trusted for the same
        # reason the ident answer is — same root-administered system image.)
        if self.cache_enabled and pkt.src_uid is not None:
            key = (pkt.src_uid, listener.uid, listener.egid)
            cached = self._cache_get(key)
            if cached is not None:
                self.fabric.metrics.counter("ubf_cache_hits").inc()
                for o in self.observers:
                    o.ubf_cached(self, key, cached)
                return self._log(pkt, pkt.src_uid, cached, "cached",
                                 DecisionReason.CACHED), listener
        return None, listener

    def _conclude(self, pkt: Packet, listener: IdentReply,
                  initiator: IdentReply | None) -> Verdict:
        """The post-ident phase: rule, cache store, full-decision metrics."""
        if initiator is None:
            for o in self.observers:
                o.ubf_concluded(self, pkt, listener, None, Verdict.DROP)
            return self._log(pkt, None, Verdict.DROP,
                             "initiator unidentifiable",
                             DecisionReason.UNIDENTIFIABLE)
        if pkt.src_uid is not None and initiator.uid != pkt.src_uid:
            # "…and the same query run locally": the kernel-stamped uid on
            # the packet is the local half of the paper's double check.  A
            # responder whose answer contradicts it is forged or
            # compromised — the claimed identity is worthless, so the flow
            # is treated as unidentifiable (never cached, always DROP).
            self.fabric.metrics.counter("ubf_ident_mismatches").inc()
            for o in self.observers:
                o.ubf_concluded(self, pkt, listener, None, Verdict.DROP)
            return self._log(
                pkt, None, Verdict.DROP,
                f"ident reply uid {initiator.uid} contradicts "
                f"kernel-stamped uid {pkt.src_uid}",
                DecisionReason.IDENT_MISMATCH)
        verdict, reason, code = self._rule(initiator.uid, initiator.groups,
                                           listener.uid, listener.egid)
        for o in self.observers:
            o.ubf_concluded(self, pkt, listener, initiator, verdict)
        if self.cache_enabled and self._cacheable(initiator.uid,
                                                  listener.egid, code):
            self._cache_put((initiator.uid, listener.uid, listener.egid),
                            verdict, pkt.flow.src_host)
        self.fabric.metrics.counter("ubf_full_decisions").inc()
        return self._log(pkt, initiator.uid, verdict, reason, code)

    def decide_batch(self, pkts: list[Packet]) -> list[Verdict]:
        """Decide a burst of simultaneously queued packets, coalescing
        ident queries.

        All packets go through the pre-ident phase first (a burst arrives
        together, so none can hit a cache entry another member is about to
        create); misses are then grouped by the initiating *process* —
        ``(src_host, proto, src_port)`` — and each group performs exactly
        one upstream ident exchange whose answer (or failure) concludes
        every waiter.  ``ident_coalesced`` counts the queries saved.

        Observers see the burst start and end and each coalesced
        exchange in between (telemetry's ``ubf.decide_batch`` span and
        its ``ubf.ident_group`` children).
        """
        pkts = list(pkts)
        if self.naive:
            return [self.decide(p) for p in pkts]
        for o in self.observers:
            o.ubf_batch_started(self, pkts)
        try:
            results = self._decide_batch(pkts)
        except Exception as exc:
            for o in self.observers:
                o.ubf_batch_finished(self, None, exc)
            raise
        for o in self.observers:
            o.ubf_batch_finished(self, results, None)
        return results

    def _decide_batch(self, pkts: list[Packet]) -> list[Verdict]:
        results: list[Verdict | None] = [None] * len(pkts)
        waiters: dict[tuple, list[tuple[int, IdentReply]]] = {}
        for i, pkt in enumerate(pkts):
            verdict, listener = self._pre_decide(pkt)
            if verdict is not None:
                results[i] = verdict
                continue
            flow = pkt.flow
            waiters.setdefault((flow.src_host, flow.proto, flow.src_port),
                               []).append((i, listener))
        coalesced = self.fabric.metrics.counter("ident_coalesced")
        for gkey, parked in waiters.items():
            if len(parked) > 1:
                coalesced.inc(len(parked) - 1)
            try:
                initiator = self._remote_ident(pkts[parked[0][0]].flow)
            except IdentUnavailable as exc:
                for i, listener in parked:
                    results[i] = self._degraded(pkts[i], listener, exc)
                for o in self.observers:
                    o.ubf_ident_group(self, gkey, len(parked), None, exc)
                continue
            for i, listener in parked:
                results[i] = self._conclude(pkts[i], listener, initiator)
            for o in self.observers:
                o.ubf_ident_group(self, gkey, len(parked), initiator, None)
        return results

    def _remote_ident(self, flow) -> IdentReply | None:
        """One authoritative ident exchange, with retry + backoff.

        :class:`IdentUnavailable` (identd down/slow, host partitioned) is
        retried ``ident_retries`` times with exponential backoff; an unknown
        peer host is converted to the same fault without retries (it cannot
        get better by waiting).  The *final* failure propagates to the
        degraded-verdict path.
        """
        attempts = 1 + max(0, self.ident_retries)
        for attempt in range(attempts):
            try:
                return remote_ident_query(self.fabric, self.stack.hostname,
                                          flow.src_host, flow.proto,
                                          flow.src_port)
            except NoSuchEntity as exc:
                raise IdentUnavailable(
                    f"peer host {flow.src_host!r} unknown") from exc
            except IdentUnavailable:
                self.fabric.metrics.counter("ubf_ident_timeouts").inc()
                if attempt + 1 >= attempts:
                    raise
                self.fabric.metrics.counter("ubf_ident_retries").inc()
                self.fabric.metrics.samples("ubf_ident_backoff_us").add(
                    self.ident_backoff_us * (2 ** attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def _degraded(self, pkt: Packet, listener: IdentReply,
                  exc: IdentUnavailable) -> Verdict:
        """Identity unavailable after retries: apply the degradation policy.

        Never cached — a degraded verdict reflects an infrastructure fault,
        not an identity decision, and must not outlive the fault.  The
        metric reason label is the closed ``degraded`` code; the fault
        detail goes only to the observers.
        """
        policy = "fail-open" if self.fail_open else "fail-closed"
        verdict = Verdict.ACCEPT if self.fail_open else Verdict.DROP
        for o in self.observers:
            o.ubf_degraded(self, verdict)
        self.fabric.metrics.counter("ubf_degraded_verdicts",
                                    policy=policy).inc()
        return self._log(pkt, None, verdict, f"degraded: {exc} ({policy})",
                         DecisionReason.DEGRADED)

    def _rule(self, init_uid: int, init_groups: frozenset[int],
              listen_uid: int, listen_egid: int
              ) -> tuple[Verdict, str, DecisionReason]:
        """The appendix rule: same user, or connector ∈ listener's egid."""
        if init_uid == 0:
            return (Verdict.ACCEPT, "root initiator",
                    DecisionReason.ROOT_INITIATOR)
        if init_uid == listen_uid:
            return Verdict.ACCEPT, "same user", DecisionReason.SAME_USER
        if listen_egid in init_groups:
            return (Verdict.ACCEPT, "initiator in listener's primary group",
                    DecisionReason.GROUP_MEMBER)
        return (Verdict.DROP, "cross-user connection denied",
                DecisionReason.CROSS_USER)

    def _cacheable(self, uid: int, egid: int, code: DecisionReason) -> bool:
        """Whether a full decision's verdict is the one every process of
        *uid* gets, so a cache hit on the kernel-stamped uid may replay it.

        Same-user and root verdicts are.  A group verdict read the ident
        snapshot; it is also the database's verdict only if the database
        agrees with the snapshot on whether *uid* is in *egid*.
        """
        if code is DecisionReason.GROUP_MEMBER:
            member = True
        elif code is DecisionReason.CROSS_USER:
            member = False
        else:
            return True
        try:
            return (uid in self.userdb.group(egid).members) == member
        except NoSuchEntity:
            return not member

    def _log(self, pkt: Packet, iu: int | None, verdict: Verdict,
             reason: str, code: DecisionReason) -> Verdict:
        """Count one verdict and report it to the observers; every
        decision path ends here."""
        flow = pkt.flow
        self.fabric.metrics.counter("ubf_verdicts_total",
                                    verdict=verdict.value,
                                    reason=code.value).inc()
        if verdict is Verdict.DROP:
            self.fabric.metrics.counter("ubf_denials").inc()
        for o in self.observers:
            o.ubf_verdict(self, flow, iu, verdict, reason, code)
        return verdict

    def purge_host(self, host: str) -> int:
        """Drop every cached verdict whose deciding flow came from *host*.

        Called when a peer host's crash/partition persists past the health
        monitor's TTL: identity decisions derived from that host's ident
        answers must not outlive it (whatever next answers to its name gets
        a fresh authoritative decision).  Each entry carries the host whose
        ident answer decided it, so this scans the cache, as
        :meth:`ConntrackTable.purge_host` scans its table; it runs only when
        a dead host's TTL expires.  Returns the number of entries purged.
        """
        keys = [key for key, (_, src) in self._cache.items() if src == host]
        for key in keys:
            del self._cache[key]
        purged = len(keys)
        if purged:
            self.fabric.metrics.counter(
                "ubf_cache_purged_total", reason="dead-host").inc(purged)
        return purged

    def flush_cache(self) -> None:
        self._cache.clear()
        self._cache_gen = -1


#: Cost model for experiment E8, in microseconds.  Values are representative
#: of the components involved (a kernel->userspace nfqueue round trip, a
#: cross-host TCP ident exchange, a conntrack hash lookup); the *shape* —
#: setup cost amortised to zero by the conntrack fast path — is the paper's
#: claim, not the absolute numbers.
COST_US = {
    "conntrack_fastpath_packets": 0.3,
    "rule_walks": 0.5,
    "nfqueue_decisions": 30.0,
    "ident_round_trips": 120.0,
    "ubf_cache_hits": 1.0,
    "ubf_full_decisions": 5.0,
}


def firewall_cost_us(metrics) -> float:
    """Total firewall-path cost implied by a run's counters."""
    report = metrics.report()
    return sum(report.get(k, 0) * v for k, v in COST_US.items())
