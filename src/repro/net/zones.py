"""Data-sensitivity zoning for the UBF: per-zone strict/standard posture.

SURF's "Secure Platform for Processing Sensitive Data on Shared HPC
Systems" (PAPERS.md) motivates running sensitive-data workloads in zones
with a *stricter* network posture than the general batch partitions, on the
same fabric.  This module models that as a per-partition **tier**:

* ``STANDARD`` — the paper's §IV-D defaults: the configured fail-open/closed
  policy stands, two ident retries, cached verdicts never expire (only the
  LRU bound evicts them);
* ``STRICT`` — the sensitive-data posture: fail-**closed** is forced
  regardless of the cluster-wide ``ubf_fail_open`` ablation (an identity
  fault must never admit a flow into the zone), ident is retried harder
  before degrading (availability inside the zone is worth extra RTTs), and
  cached verdicts carry a TTL so a revoked group membership stops being
  honored after a bounded number of decisions rather than on cache
  pressure.

Tiers apply *per host*: :func:`apply_zone_tiers` walks the scheduler's
partitions and pushes each partition's posture onto the UBF daemons of its
nodes.  The posture only tightens knobs the daemon already has — every
decision still runs the same appendix rule on every path (naive / batch),
so differential verdict identity (oracle invariant I2) is unaffected by
tier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ZoneTier(enum.Enum):
    """Data-sensitivity tier of a partition/zone."""

    STANDARD = "standard"
    STRICT = "strict"


@dataclass(frozen=True)
class UBFPosture:
    """The UBF knob settings one tier implies."""

    tier: ZoneTier
    #: False forces fail-closed regardless of the daemon's configured policy
    fail_open_allowed: bool
    #: minimum ident retry attempts (never lowers a higher configured value)
    ident_retries: int
    #: cached-verdict TTL in decision ticks (None = no expiry)
    cache_ttl: int | None


POSTURES: dict[ZoneTier, UBFPosture] = {
    ZoneTier.STANDARD: UBFPosture(ZoneTier.STANDARD,
                                  fail_open_allowed=True,
                                  ident_retries=2, cache_ttl=None),
    ZoneTier.STRICT: UBFPosture(ZoneTier.STRICT,
                                fail_open_allowed=False,
                                ident_retries=4, cache_ttl=4096),
}


def apply_tier(daemon, tier: ZoneTier, metrics=None) -> UBFPosture:
    """Push one tier's posture onto one UBF daemon; returns the posture.

    Idempotent, and monotone on safety: strict can only force fail-closed,
    raise retries, and add a TTL — it never loosens a knob the operator set
    tighter.  Counted under ``ubf_tier_applied_total{tier=}`` so posture
    dashboards can see zone coverage.
    """
    posture = POSTURES[tier]
    daemon.tier = tier.value
    if not posture.fail_open_allowed:
        daemon.fail_open = False
    daemon.ident_retries = max(daemon.ident_retries, posture.ident_retries)
    if posture.cache_ttl is not None:
        daemon.cache_ttl = (posture.cache_ttl
                            if daemon.cache_ttl is None
                            else min(daemon.cache_ttl, posture.cache_ttl))
    if metrics is None:
        metrics = daemon.fabric.metrics
    metrics.counter("ubf_tier_applied_total", tier=tier.value).inc()
    return posture


def apply_zone_tiers(cluster) -> int:
    """Apply every partition's tier to the UBF daemons of its nodes.

    Walks ``cluster.scheduler.partitions`` (duck-typed — this module must
    not import :mod:`repro.core`) and returns the number of daemons whose
    posture was set.  Nodes outside any partition (login, portal, DTN)
    keep the standard posture.
    """
    applied = 0
    daemons = getattr(cluster, "ubf_daemons", None) or {}
    scheduler = getattr(cluster, "scheduler", None)
    partitions = getattr(scheduler, "partitions", None) or {}
    if hasattr(partitions, "values"):
        partitions = list(partitions.values())
    for part in partitions:
        tier = getattr(part, "tier", ZoneTier.STANDARD)
        if tier is ZoneTier.STANDARD:
            continue
        for name in part.node_names:
            daemon = daemons.get(name)
            if daemon is not None:
                apply_tier(daemon, tier, metrics=cluster.metrics)
                applied += 1
    return applied
