"""Partitions: named node groups with per-partition policy overrides.

Section IV-B's whole-node-per-user policy governs the batch partitions, but
the paper is explicit that some nodes remain multi-user: "there are still
some nodes like login nodes, data transfer nodes, and interactive debug
queue nodes on which multiple simultaneous users are working" — which is
why process hiding stays necessary even with whole-node scheduling.

A :class:`Partition` carries its node set, an optional node-sharing policy
override (the interactive/debug partition runs SHARED), and an optional
time limit (debug queues are short).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sched.policies import NodeSharing


@dataclass(frozen=True)
class Partition:
    """One scheduler partition."""

    name: str
    node_names: tuple[str, ...]
    policy_override: NodeSharing | None = None
    max_duration: float | None = None
    interactive: bool = False

    def accepts_duration(self, duration: float) -> bool:
        return self.max_duration is None or duration <= self.max_duration


DEFAULT_PARTITION = "normal"
