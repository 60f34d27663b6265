"""Audit driver: run the attack battery, build the leakage matrix (E14).

``run_battery(config)`` runs each probe through the campaign runner's
probe step — a fresh armed standard cluster per probe (so probes cannot
perturb each other), the oracle's attack window, classification — and
aggregates an :class:`AuditReport`: per-area leak counts, the list of
open paths, whether the sanctioned project-group path still works, and
the comparison hooks the benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.attacks import ALL_ATTACKS, AttackModel
from repro.core.cluster import Cluster
from repro.core.config import SeparationConfig

if TYPE_CHECKING:
    from repro.attacks.runner import AttackOutcome


def standard_cluster(config: SeparationConfig, **overrides) -> Cluster:
    """The canonical audit scenario: 4 compute nodes with 2 GPUs each,
    victim/attacker strangers, one approved project group, one staff
    account."""
    params = dict(
        n_compute=4, n_login=1, cores=16, mem_mb=64_000, gpus_per_node=2,
        users=("alice", "bob", "carol", "dave"),
        staff=("sam",),
        projects={"fusion": ("carol", "dave")},
    )
    params.update(overrides)
    return Cluster.build(config, **params)


@dataclass
class AuditReport:
    """Results of the adversarial probe battery against one cluster."""

    config: SeparationConfig
    results: list[AttackOutcome] = field(default_factory=list)

    # -- aggregates ----------------------------------------------------------

    @property
    def probes(self) -> list[AttackOutcome]:
        """All adversarial probes (excludes the intended-sharing control)."""
        return [r for r in self.results if not r.intended]

    @property
    def open_paths(self) -> list[AttackOutcome]:
        return [r for r in self.probes if r.leaked]

    @property
    def unexpected_paths(self) -> list[AttackOutcome]:
        """Leaks that are NOT documented residuals."""
        return [r for r in self.open_paths if not r.residual]

    @property
    def residual_paths(self) -> list[AttackOutcome]:
        return [r for r in self.open_paths if r.residual]

    @property
    def intended_sharing_works(self) -> bool:
        controls = [r for r in self.results if r.intended]
        return all(r.leaked for r in controls)  # 'leaked' = data flowed

    def by_area(self) -> dict[str, tuple[int, int]]:
        """area -> (open paths, total probes)."""
        areas: dict[str, tuple[int, int]] = {}
        for r in self.probes:
            open_n, total = areas.get(r.area, (0, 0))
            areas[r.area] = (open_n + (1 if r.leaked else 0), total + 1)
        return areas

    def summary_rows(self) -> list[dict[str, object]]:
        return [
            {"attack": r.name, "area": r.area,
             "outcome": "LEAK" if r.leaked else "blocked",
             "residual": r.residual, "detail": r.malicious_detail}
            for r in self.probes
        ]

    def format(self) -> str:
        lines = [f"Leakage audit — config {self.config.name}", "-" * 64]
        for r in self.probes:
            mark = "LEAK" if r.leaked else "ok  "
            tag = " (documented residual)" if r.leaked and r.residual else ""
            lines.append(f"  [{mark}] {r.area:<11} {r.name:<28}{tag}")
        lines.append("-" * 64)
        lines.append(
            f"open paths: {len(self.open_paths)}/{len(self.probes)}"
            f"  (unexpected: {len(self.unexpected_paths)},"
            f" documented residual: {len(self.residual_paths)})")
        lines.append(
            "intended project-group sharing: "
            + ("works" if self.intended_sharing_works else "BROKEN"))
        return "\n".join(lines)


def run_battery(config: SeparationConfig,
                attacks: tuple[AttackModel, ...] = ALL_ATTACKS) -> AuditReport:
    """Run every attack through the campaign runner's probe step; aggregate."""
    from repro.attacks.runner import CampaignRunner
    runner = CampaignRunner(config.name, config=config)
    return AuditReport(config=config,
                       results=[runner.probe(a) for a in attacks])


def blast_radius_trial(config: SeparationConfig) -> dict[str, int]:
    """E16 scenario: one OOM-bombing user amid two innocent users.

    Returns counts of innocent jobs failed vs completed.
    """
    cluster = standard_cluster(config)
    bombs = [cluster.submit("alice", name=f"bomb{i}", ntasks=2,
                            oom_bomb=True, duration=50.0, at=float(i))
             for i in range(2)]
    innocents = []
    for i in range(6):
        user = ("bob", "carol", "dave")[i % 3]
        innocents.append(cluster.submit(user, name=f"inn{i}", ntasks=2,
                                        duration=60.0, at=float(i)))
    cluster.run()
    from repro.sched.jobs import JobState
    failed = sum(1 for j in innocents if j.state is JobState.NODE_FAIL)
    completed = sum(1 for j in innocents if j.state is JobState.COMPLETED)
    return {"innocent_failed": failed, "innocent_completed": completed,
            "bombs": len(bombs)}
