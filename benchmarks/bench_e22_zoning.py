"""E22 — coarse MAC "zoning" vs fine-grained separation (§IV-C/§IV-D).

The paper rejects the MAC/zoning family (e.g. the ClusterStor Secure Data
Appliance): "These existing techniques have focused on 'zoning' HPC
resources into coarse buckets, often requiring network-level or node-level
separation ... They do not scale to thousands or tens of thousands of
individual users and project groups."

We quantify the scaling argument on the scheduler: give each project a
dedicated node zone (hard partition — the zoning deployment model) versus
one shared pool under the whole-node-per-user policy (the paper's
fine-grained model).  Same total hardware, same offered load, bursty
per-project demand.  Zoning forfeits statistical multiplexing: a bursting
project is capped at its zone while other zones idle.  The effect grows
with the number of zones — the paper's "does not scale" made measurable.

Both models keep users separated; the cost difference is pure utilization/
wait.  (The administrative cost — a zone assignment per project vs nothing
— mirrors E17's ticket count and is reported alongside.)
"""

from repro import Cluster, LLSC
from repro.sched import JobState, Partition
from repro.sim import make_rng
from repro.workloads import sweep_jobs

from _helpers import print_table, write_series_csv

HORIZON = 2_000.0
CORES = 16


def run_model(n_projects: int, *, zoned: bool, seed: int = 99,
              nodes_per_project: int = 2,
              load: float = 0.6) -> dict[str, float]:
    """n_projects bursty users over n_projects*nodes_per_project nodes."""
    n_nodes = n_projects * nodes_per_project
    users = tuple(f"proj{i}" for i in range(n_projects))
    cluster = Cluster.build(LLSC, n_compute=n_nodes, cores=CORES,
                            users=users)
    if zoned:
        # hard partition: each project locked to its own node bucket
        names = [cn.name for cn in cluster.compute_nodes]
        partitions = {}
        for i in range(n_projects):
            zone = tuple(names[i * nodes_per_project:
                               (i + 1) * nodes_per_project])
            partitions[f"zone{i}"] = Partition(f"zone{i}", zone)
        partitions["normal"] = cluster.scheduler.partitions["normal"]
        cluster.scheduler.partitions = partitions
        cluster.scheduler.reindex_partitions()

    rng = make_rng(seed)
    total_core_seconds = load * n_nodes * CORES * HORIZON
    jobs = []
    for i, user in enumerate(users):
        # bursty: each project concentrates its demand in one quarter of
        # the horizon (staggered), so zones alternate hot and idle
        burst_start = (i % 4) * (HORIZON / 4)
        n_jobs = max(1, int(total_core_seconds / n_projects / 150.0))
        reqs = sweep_jobs(cluster.user(user), rng, n_jobs=n_jobs,
                          horizon=HORIZON / 4, mean_duration=150.0)
        for r in reqs:
            spec = r.spec
            if zoned:
                from dataclasses import replace
                spec = replace(spec, partition=f"zone{i}")
            jobs.append(cluster.scheduler.submit(
                spec, r.duration, at=burst_start + r.arrival))
    cluster.run(until=HORIZON * 3)
    done = [j for j in jobs if j.state is JobState.COMPLETED]
    waits = [j.wait_time for j in done]
    return {
        "utilization": cluster.scheduler.utilization(HORIZON),
        "mean_wait": sum(waits) / max(len(waits), 1),
        "completed": len(done),
        "submitted": len(jobs),
        "admin_zone_assignments": n_projects if zoned else 0,
    }


def test_e22_zoning_scaling(benchmark):
    project_counts = (2, 4, 8)
    results = benchmark.pedantic(
        lambda: {(n, z): run_model(n, zoned=z)
                 for n in project_counts for z in (False, True)},
        rounds=1, iterations=1)
    rows = [[n, "zoned" if z else "shared pool",
             f"{r['utilization']:.1%}", f"{r['mean_wait']:.1f}",
             f"{r['completed']}/{r['submitted']}",
             r["admin_zone_assignments"]]
            for (n, z), r in sorted(results.items())]
    print_table("E22: MAC zoning vs fine-grained pool (bursty projects)",
                ["projects", "model", "useful util", "mean wait",
                 "completed", "zone assignments"], rows)
    write_series_csv(
        "e22_zoning", ["projects", "zoned", "utilization", "mean_wait",
                       "completed", "submitted"],
        [[n, z, r["utilization"], r["mean_wait"], r["completed"],
          r["submitted"]] for (n, z), r in sorted(results.items())])
    benchmark.extra_info["results"] = {f"{n}/{z}": r
                                       for (n, z), r in results.items()}
    penalties = {}
    for n in project_counts:
        pool = results[(n, False)]
        zoned = results[(n, True)]
        # zoning always pays a wait penalty on bursty demand
        assert zoned["mean_wait"] > 1.2 * max(pool["mean_wait"], 1.0), n
        # and completes no more work
        assert zoned["completed"] <= pool["completed"]
        penalties[n] = zoned["mean_wait"] / max(pool["mean_wait"], 1.0)
    # "does not scale": more projects means a bigger shared pool, which
    # absorbs the same bursts better and better — so pooled waits shrink
    # with scale while zoned waits do not, and the relative penalty grows
    # monotonically
    pool_waits = [results[(n, False)]["mean_wait"] for n in project_counts]
    assert pool_waits == sorted(pool_waits, reverse=True)
    assert (penalties[2] <= penalties[4] <= penalties[8])
    assert penalties[8] > 1.9 * penalties[2]
    assert results[(8, True)]["admin_zone_assignments"] == 8


def test_e22_zoning_separation_equivalence(benchmark):
    """Both models keep nodes single-user (separation is NOT the
    difference; cost is)."""

    def check() -> dict[str, int]:
        out = {}
        for zoned in (False, True):
            r = run_model(4, zoned=zoned)
            out["zoned" if zoned else "pool"] = r["completed"]
        return out

    done = benchmark.pedantic(check, rounds=1, iterations=1)
    print_table("E22: both models complete work in full isolation",
                ["model", "completed"], [[k, v] for k, v in done.items()])
    assert done["pool"] > 0 and done["zoned"] > 0
