"""Wiring the separation oracle into a built cluster.

:func:`attach_oracle` follows the same contract as
:func:`repro.obs.telemetry.attach_telemetry` and
:func:`repro.monitor.wiring.instrument_cluster`: idempotent (a second call
returns the existing oracle) and strictly additive (every enforcement
outcome is identical with or without it — the oracle observes decisions,
it never makes them).  It subscribes the oracle
(:meth:`~repro.core.cluster.Cluster.subscribe`) to every enforcement
point, and reports violations to the cluster's planes.

Checks are armed *conditionally on the cluster's configuration*: a
BASELINE or ablated cluster legitimately leaks through the mechanisms it
turned off, and the oracle verifies enforcement, not configuration — so
the GPU residue check requires both Section IV-F measures, the portal
ownership check requires ``portal_auth``, and so on.  This is what lets
``REPRO_ORACLE=1`` run fail-fast over the whole tier-1 suite (which
builds many deliberately weakened clusters) and still expect zero
violations.

Raw components outside a :class:`~repro.core.cluster.Cluster` (the E24
benchmarks build schedulers, daemons, and ProcFS views directly) attach by
appending the oracle to their ``observers`` themselves.
"""

from __future__ import annotations

from repro.oracle.oracle import DEFAULT_SEED, SeparationOracle


def attach_oracle(cluster, *, sampling_rate: float = 1.0,
                  shadow_rate: float | None = None,
                  fail_fast: bool = False,
                  seed: int = DEFAULT_SEED) -> SeparationOracle:
    """Attach a :class:`SeparationOracle` to every enforcement choke point.

    Returns the oracle (also stored as ``cluster.oracle``); a second call
    is a no-op returning the existing one.  ``sampling_rate`` bounds the
    check overhead, ``shadow_rate`` (default: the sampling rate) the
    naive-reference differential fraction, and ``fail_fast`` turns any
    violation into an immediate :class:`SeparationViolation` — the CI
    oracle job's mode.
    """
    existing = getattr(cluster, "oracle", None)
    if existing is not None:
        return existing
    oracle = SeparationOracle(
        sampling_rate=sampling_rate, shadow_rate=shadow_rate,
        fail_fast=fail_fast, metrics=cluster.metrics,
        observers=cluster.observers,
        clock=lambda: cluster.engine.now, seed=seed)
    # I5 checks follow the measures this cluster's hooks enforce
    oracle.gpu_perms = cluster.config.gpu_dev_assignment
    oracle.gpu_scrub = cluster.config.gpu_scrub
    cluster.oracle = oracle
    cluster.subscribe(oracle)
    return oracle
