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
``cache_capacity`` (None = unbounded) and ``cache_ttl`` where they are
used, so changing either knob on a live daemon takes effect at the next
decision.  Evictions are counted under
``ubf_cache_evictions_total{reason=lru|ttl}``.  At millions of distinct
principal triples an unbounded decision cache is an OOM, not a cache.
``cache_ttl`` (logical decision ticks; the strict-zone posture sets it)
expires entries at read time, bounding how long a revoked group
membership can keep serving a stale cached ACCEPT.

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

Security events: every verdict passes through one point, ``_log``.  With
an ``events`` sink attached (``instrument_cluster`` sets it), a DROP is
reported as ``NET_DENY`` and a degraded verdict as ``DEGRADED`` — on the
single-packet and burst paths alike — so monitoring never has to wrap
the nfqueue handler.  ``log`` keeps only the last
:data:`DECISION_LOG_MAX` decisions.

Scale-out hot path (E24): ``decide_batch`` takes a burst of queued packets
and **coalesces** ident queries — packets from the same remote (host, proto,
src-port), i.e. the same initiating process, park as waiters on a single
upstream exchange and all receive verdicts derived from its one reply
(savings counted under ``ident_coalesced``).  The group rule consults a
precomputed per-egid **allow-set** derived from the account database
(invalidated via ``UserDB.generation``), falling back to the ident reply's
group snapshot before ever dropping.  ``naive=True`` preserves the
original sequential per-packet path as the differential-testing reference
the oracle shadows; both paths produce identical verdicts (property-tested
fault-free — under faults, coalescing legitimately consumes fewer identd
attempts than per-packet retry loops).
"""

from __future__ import annotations

import enum
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.kernel.errors import NoSuchEntity
from repro.kernel.users import UserDB
from repro.monitor.events import EventKind
from repro.net.firewall import Packet, Verdict
from repro.net.ident import (
    IdentReply,
    IdentService,
    IdentUnavailable,
    remote_ident_query,
)
from repro.net.stack import Fabric, HostStack

#: decisions kept in :attr:`UBFDaemon.log` (the newest win); the daemon
#: lives as long as its host, so an unbounded log is a leak
DECISION_LOG_MAX = 1024


class DecisionReason(enum.Enum):
    """Closed reason vocabulary for the ``ubf_verdicts_total`` metric label.

    The counter used to be labeled with the free-text reason string, and
    degraded verdicts embedded the fault message — every distinct fault
    minted a new counter series, unbounded label cardinality.  Metric
    labels now always come from this enum; the human-readable detail lives
    only in :class:`UBFDecisionLog`, span tags, and the audit trail.
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
class UBFDecisionLog:
    """One decision, for audit trails and tests."""

    flow: str
    initiator_uid: int | None
    listener_uid: int | None
    listener_egid: int | None
    verdict: Verdict
    reason: str


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
    #: optional span source (repro.obs.trace.Tracer); None = no tracing cost
    tracer: object | None = None
    #: separation oracle (repro.oracle); None = zero-cost hooks
    oracle: object | None = field(default=None, repr=False)
    #: forensic audit trail (repro.obs.audit); when set, clean ACCEPT
    #: verdicts are recorded with causal attribution (denies reach the
    #: trail through the security-event stream).  None = zero cost.
    audit: object | None = field(default=None, repr=False)
    #: security event log (repro.monitor); when set, DROPs are reported as
    #: NET_DENY and degraded verdicts as DEGRADED.  None = zero cost.
    events: object | None = field(default=None, repr=False)
    #: original sequential per-packet reference path for differential testing.
    naive: bool = False
    #: decision-cache entry bound, read at every insert; None = unbounded
    cache_capacity: int | None = 65_536
    #: max cached-verdict age in decision ticks, read at every lookup;
    #: None = no expiry.  Set by the strict zone posture (repro.net.zones).
    cache_ttl: int | None = None
    #: data-sensitivity posture label applied by repro.net.zones
    tier: str = "standard"
    log: deque[UBFDecisionLog] = field(
        default_factory=lambda: deque(maxlen=DECISION_LOG_MAX))
    alive: bool = True
    #: the one decision cache, shared by the naive and fast paths:
    #: key -> (verdict, tick stored), in LRU order (oldest first)
    _cache: OrderedDict[tuple[int, int, int], tuple[Verdict, int]] = field(
        default_factory=OrderedDict, repr=False)
    #: initiating host -> cache keys its flows created, so a dead host's
    #: cached identity decisions can be purged without a full flush
    _keys_by_host: dict[str, set[tuple[int, int, int]]] = field(
        default_factory=dict, repr=False)
    _allow_sets: dict[int, frozenset[int]] = field(default_factory=dict,
                                                   repr=False)
    _allow_gen: int = field(default=-1, repr=False)
    #: logical decision clock: one tick per decided flow (cache TTL unit)
    _tick: int = field(default=0, repr=False)
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

        Monitoring rides the ``events`` sink rather than a wrapper around
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
        gen = self.userdb.generation
        self._cache_gen = gen
        self._allow_gen = gen  # allow-sets refill lazily per egid
        if purged:
            self.fabric.metrics.counter(
                "ubf_cache_purged_total", reason=reason).inc(purged)
        self.fabric.metrics.counter("ubf_resyncs_total",
                                    reason=reason).inc()
        return purged

    # -- decision ---------------------------------------------------------------

    def decide(self, pkt: Packet) -> Verdict:
        if self.tracer is None:
            return self._decide(pkt)
        span = self.tracer.start_span(
            "ubf.decide", host=self.stack.hostname,
            src=f"{pkt.flow.src_host}:{pkt.flow.src_port}",
            dst=f"{pkt.flow.dst_host}:{pkt.flow.dst_port}")
        try:
            verdict = self._decide(pkt)
        except Exception as exc:
            # The span must finish even when the decision path blows up,
            # or the tracer leaks an open span per failed decision.
            self.tracer.finish(span, status="error",
                               error=type(exc).__name__)
            raise
        self.tracer.finish(span, verdict=verdict.value,
                           reason=self.log[-1].reason if self.log else "")
        return verdict

    def _decide(self, pkt: Packet) -> Verdict:
        verdict, listener = self._pre_decide(pkt, IdentService(self.stack))
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
        verdict, stamp = entry
        if self.cache_ttl is not None and self._tick - stamp > self.cache_ttl:
            del self._cache[key]
            self._count_cache_eviction("ttl")
            return None
        self._cache.move_to_end(key)  # LRU touch
        return verdict

    def _cache_put(self, key: tuple[int, int, int], verdict: Verdict) -> None:
        if self.cache_capacity is not None and key not in self._cache:
            while len(self._cache) >= self.cache_capacity:
                self._cache.popitem(last=False)
                self._count_cache_eviction("lru")
        self._cache[key] = (verdict, self._tick)
        self._cache.move_to_end(key)

    def _count_cache_eviction(self, reason: str) -> None:
        self.fabric.metrics.counter("ubf_cache_evictions_total",
                                    reason=reason).inc()

    def _revalidate_generation(self) -> None:
        """Flush cached verdicts minted under an older account database.

        The allow-sets behind *full* decisions are generation-invalidated,
        but a cached verdict is a frozen conclusion: without this check a
        uid removed from a project group keeps replaying its pre-revocation
        cross-user ACCEPT out of the decision cache for as long as the
        entry lives (indefinitely in the standard tier, which has no TTL).
        One integer compare per decide call; on a generation change the
        cache is dropped and the purge is counted under
        ``ubf_cache_purged_total{reason="membership-change"}``.
        """
        gen = self.userdb.generation
        if gen == self._cache_gen:
            return
        purged = len(self._cache)
        self._cache.clear()
        self._keys_by_host.clear()
        self._cache_gen = gen
        if purged:
            self.fabric.metrics.counter(
                "ubf_cache_purged_total",
                reason="membership-change").inc(purged)

    def _pre_decide(self, pkt: Packet, local_ident: IdentService
                    ) -> tuple[Verdict | None, IdentReply | None]:
        """The pre-ident phase: listener lookup + cache/root short-circuits.

        Returns ``(verdict, listener)``; ``verdict is None`` means the
        packet needs a remote ident exchange before it can be concluded.
        """
        if self.cache_enabled:
            self._revalidate_generation()
        self._tick += 1
        flow = pkt.flow
        listener = local_ident.query_local(flow.proto, flow.dst_port)
        if listener is None:
            # nothing listening; let the stack produce ECONNREFUSED rather
            # than leaking whether the port is filtered
            return self._log(pkt, None, None, None, Verdict.ACCEPT,
                             "no listener (refusal handled by stack)",
                             DecisionReason.NO_LISTENER), None
        if listener.uid == 0:
            return self._log(pkt, None, listener.uid, listener.egid,
                             Verdict.ACCEPT, "root-owned service",
                             DecisionReason.ROOT_SERVICE), listener
        # Cache first: a hit answers from the kernel-stamped initiator uid
        # without touching the network.  (The stamp is trusted for the same
        # reason the ident answer is — same root-administered system image.)
        if self.cache_enabled and pkt.src_uid is not None:
            key = (pkt.src_uid, listener.uid, listener.egid)
            cached = self._cache_get(key)
            if cached is not None:
                self.fabric.metrics.counter("ubf_cache_hits").inc()
                if self.oracle is not None:
                    self.oracle.check_ubf_cached(self, key, cached)
                return self._log(pkt, pkt.src_uid, listener.uid,
                                 listener.egid, cached, "cached",
                                 DecisionReason.CACHED), listener
        return None, listener

    def _conclude(self, pkt: Packet, listener: IdentReply,
                  initiator: IdentReply | None) -> Verdict:
        """The post-ident phase: rule, cache store, full-decision metrics."""
        if initiator is None:
            if self.oracle is not None:
                self.oracle.check_ubf_conclude(self, pkt, listener, None,
                                               Verdict.DROP)
            return self._log(pkt, None, listener.uid, listener.egid,
                             Verdict.DROP, "initiator unidentifiable",
                             DecisionReason.UNIDENTIFIABLE)
        if pkt.src_uid is not None and initiator.uid != pkt.src_uid:
            # "…and the same query run locally": the kernel-stamped uid on
            # the packet is the local half of the paper's double check.  A
            # responder whose answer contradicts it is forged or
            # compromised — the claimed identity is worthless, so the flow
            # is treated as unidentifiable (never cached, always DROP).
            self.fabric.metrics.counter("ubf_ident_mismatches").inc()
            if self.oracle is not None:
                self.oracle.check_ubf_conclude(self, pkt, listener, None,
                                               Verdict.DROP)
            return self._log(
                pkt, None, listener.uid, listener.egid, Verdict.DROP,
                f"ident reply uid {initiator.uid} contradicts "
                f"kernel-stamped uid {pkt.src_uid}",
                DecisionReason.IDENT_MISMATCH)
        rule = self._rule if self.naive else self._rule_indexed
        verdict, reason, code = rule(initiator.uid, initiator.groups,
                                     listener.uid, listener.egid)
        if self.oracle is not None:
            self.oracle.check_ubf_conclude(self, pkt, listener, initiator,
                                           verdict)
        if self.cache_enabled:
            key = (initiator.uid, listener.uid, listener.egid)
            self._cache_put(key, verdict)
            self._keys_by_host.setdefault(pkt.flow.src_host, set()).add(key)
        self.fabric.metrics.counter("ubf_full_decisions").inc()
        return self._log(pkt, initiator.uid, listener.uid, listener.egid,
                         verdict, reason, code)

    def decide_batch(self, pkts: list[Packet]) -> list[Verdict]:
        """Decide a burst of simultaneously queued packets, coalescing
        ident queries.

        All packets go through the pre-ident phase first (a burst arrives
        together, so none can hit a cache entry another member is about to
        create); misses are then grouped by the initiating *process* —
        ``(src_host, proto, src_port)`` — and each group performs exactly
        one upstream ident exchange whose answer (or failure) concludes
        every waiter.  ``ident_coalesced`` counts the queries saved.

        When a tracer is attached the whole burst is one ``ubf.decide_batch``
        span with a child ``ubf.ident_group`` span per coalesced exchange —
        previously the batch path bypassed ``decide()``'s span entirely and
        coalesced decisions were invisible to traces and the flight
        recorder.
        """
        pkts = list(pkts)
        if self.naive:
            return [self.decide(p) for p in pkts]
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span("ubf.decide_batch",
                                          host=self.stack.hostname,
                                          n=len(pkts))
        try:
            results = self._decide_batch(pkts, span)
        except Exception as exc:
            if span is not None:
                self.tracer.finish(span, status="error",
                                   error=type(exc).__name__)
            raise
        if span is not None:
            drops = sum(1 for v in results if v is Verdict.DROP)
            self.tracer.finish(span, accepts=len(results) - drops,
                               drops=drops)
        return results

    def _decide_batch(self, pkts: list[Packet],
                      span: object | None) -> list[Verdict]:
        local_ident = IdentService(self.stack)
        results: list[Verdict | None] = [None] * len(pkts)
        waiters: dict[tuple, list[tuple[int, IdentReply]]] = {}
        for i, pkt in enumerate(pkts):
            verdict, listener = self._pre_decide(pkt, local_ident)
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
            child = None
            if span is not None:
                child = self.tracer.start_span(
                    "ubf.ident_group", parent=span,
                    src=f"{gkey[0]}:{gkey[2]}", proto=gkey[1].value,
                    waiters=len(parked))
            try:
                initiator = self._remote_ident(pkts[parked[0][0]].flow)
            except IdentUnavailable as exc:
                for i, listener in parked:
                    results[i] = self._degraded(pkts[i], listener, exc)
                if child is not None:
                    self.tracer.finish(child, status="degraded",
                                       error=type(exc).__name__)
                continue
            for i, listener in parked:
                results[i] = self._conclude(pkts[i], listener, initiator)
            if child is not None:
                self.tracer.finish(
                    child,
                    status="ok" if initiator is not None else "unidentifiable",
                    uid=initiator.uid if initiator is not None else -1)
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
        detail stays in the decision log only.
        """
        policy = "fail-open" if self.fail_open else "fail-closed"
        verdict = Verdict.ACCEPT if self.fail_open else Verdict.DROP
        if self.oracle is not None:
            self.oracle.check_ubf_degraded(self, verdict)
        self.fabric.metrics.counter("ubf_degraded_verdicts",
                                    policy=policy).inc()
        return self._log(pkt, None, listener.uid, listener.egid, verdict,
                         f"degraded: {exc} ({policy})",
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

    def _rule_indexed(self, init_uid: int, init_groups: frozenset[int],
                      listen_uid: int, listen_egid: int
                      ) -> tuple[Verdict, str, DecisionReason]:
        """Same rule, group check against the precomputed per-egid allow-set.

        The allow-set reflects the live account database; an initiator whose
        credential snapshot carries the egid but whom the database no longer
        (or never — ``with_extra_group``) lists falls back to the snapshot
        check before a DROP, so no connection the naive rule accepts is ever
        refused (``ubf_allowset_fallbacks`` counts how often that saves one).
        """
        if init_uid == 0:
            return (Verdict.ACCEPT, "root initiator",
                    DecisionReason.ROOT_INITIATOR)
        if init_uid == listen_uid:
            return Verdict.ACCEPT, "same user", DecisionReason.SAME_USER
        if init_uid in self._egid_members(listen_egid):
            return (Verdict.ACCEPT, "initiator in listener's primary group",
                    DecisionReason.GROUP_MEMBER)
        if listen_egid in init_groups:
            self.fabric.metrics.counter("ubf_allowset_fallbacks").inc()
            return (Verdict.ACCEPT, "initiator in listener's primary group",
                    DecisionReason.GROUP_MEMBER)
        return (Verdict.DROP, "cross-user connection denied",
                DecisionReason.CROSS_USER)

    def _egid_members(self, egid: int) -> frozenset[int]:
        """Allow-set for one listener egid, cached until the account
        database's generation moves (any membership mutation invalidates)."""
        if self._allow_gen != self.userdb.generation:
            self._allow_sets.clear()
            self._allow_gen = self.userdb.generation
        members = self._allow_sets.get(egid)
        if members is None:
            try:
                members = frozenset(self.userdb.group(egid).members)
            except NoSuchEntity:
                members = frozenset()
            self._allow_sets[egid] = members
        return members

    def _log(self, pkt: Packet, iu, lu, lg, verdict: Verdict,
             reason: str, code: DecisionReason) -> Verdict:
        """Record one verdict; every decision path ends here."""
        flow = pkt.flow
        self.log.append(UBFDecisionLog(
            flow=(f"{flow.proto.value} {flow.src_host}:"
                  f"{flow.src_port}->{flow.dst_host}:{flow.dst_port}"),
            initiator_uid=iu, listener_uid=lu, listener_egid=lg,
            verdict=verdict, reason=reason))
        self.fabric.metrics.counter("ubf_verdicts_total",
                                    verdict=verdict.value,
                                    reason=code.value).inc()
        if verdict is Verdict.DROP:
            self.fabric.metrics.counter("ubf_denials").inc()
        elif self.audit is not None and iu is not None:
            self.audit.ubf_verdict(
                uid=iu, node=flow.src_host,
                target=f"{flow.dst_host}:{flow.dst_port}",
                verdict=verdict.value, reason=reason)
        if self.events is not None and (verdict is Verdict.DROP
                                        or code is DecisionReason.DEGRADED):
            self._report(flow, iu, verdict, reason, code)
        return verdict

    def _report(self, flow, iu, verdict: Verdict, reason: str,
                code: DecisionReason) -> None:
        """Emit a DROP or degraded verdict to the ``events`` sink, stamped
        with the host's simulation clock.

        A degraded verdict is an infrastructure fault, not a principal's
        denial: it is recorded as DEGRADED (whatever the policy decided)
        so posture and probe views never blame the user for it.
        """
        if code is DecisionReason.DEGRADED:
            kind, detail = EventKind.DEGRADED, f"{verdict.value}: {reason}"
        else:
            kind, detail = EventKind.NET_DENY, reason
        self.events.emit(self.stack.node.vfs.clock(), kind,
                         -1 if iu is None else iu,
                         f"{flow.dst_host}:{flow.dst_port}", detail,
                         node=flow.src_host)

    def purge_host(self, host: str) -> int:
        """Drop every cached verdict whose deciding flow came from *host*.

        Called when a peer host's crash/partition persists past the health
        monitor's TTL: identity decisions derived from that host's ident
        answers must not outlive it (whatever next answers to its name gets
        a fresh authoritative decision).  A key shared with another live
        host's flows is dropped too — conservatively forcing a re-decision,
        never widening access.  Returns the number of entries purged.
        """
        keys = self._keys_by_host.pop(host, None)
        if not keys:
            return 0
        purged = sum(self._cache.pop(key, None) is not None for key in keys)
        if purged:
            self.fabric.metrics.counter(
                "ubf_cache_purged_total", reason="dead-host").inc(purged)
        return purged

    def flush_cache(self) -> None:
        self._cache.clear()
        self._keys_by_host.clear()
        self._allow_sets.clear()
        self._allow_gen = -1
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
