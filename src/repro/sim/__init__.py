"""Discrete-event simulation engine, sharding, metrics and RNG utilities."""

from repro.sim.engine import Engine
from repro.sim.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSet,
    Samples,
    TimeWeighted,
)
from repro.sim.rng import DEFAULT_SEED, make_rng, poisson_arrivals, spawn, substream
from repro.sim.shard import (
    MergeProtocolError,
    Outbox,
    ShardedEngine,
    ShardHost,
    ShardMessage,
    ShardReport,
    SimZone,
)

__all__ = [
    "Engine",
    "Counter", "Gauge", "Histogram", "MetricSet", "Samples", "TimeWeighted",
    "DEFAULT_SEED", "make_rng", "poisson_arrivals", "spawn", "substream",
    "MergeProtocolError", "Outbox", "ShardedEngine", "ShardHost",
    "ShardMessage", "ShardReport", "SimZone",
]
