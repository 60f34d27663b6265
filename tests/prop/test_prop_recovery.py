"""Property: crash anywhere, recover, end digest-identical to no-crash.

The E30 acceptance bar, Hypothesis-driven: for an arbitrary small
workload — staggered arrivals, optional GPU custody, optional node
failure with requeue, optional membership revocation — killing the
control plane at *any* event index and recovering must (a) rebuild the
exact crash-time control plane (``report.identical``) and (b) leave the
rest of the run bit-for-bit on the uncrashed reference trajectory
(equal :func:`state_digest` at drain), with the separation oracle armed
fail-fast at full sampling the whole time.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Cluster
from repro.core.config import SeparationConfig
from repro.oracle import attach_oracle
from repro.persist import attach_persistence, state_digest
from repro.sched.health import attach_health
from tests.prop.test_prop_scheduler_machine import (
    assert_private_squeue_matches_job_table,
)

scenarios = st.fixed_dictionaries({
    "n_jobs": st.integers(3, 9),
    "gpus": st.booleans(),
    "node_fail": st.booleans(),
    "revoke": st.booleans(),
    "crash_frac": st.floats(0.0, 1.0),
})


def _drive(params, crash_at=None):
    """Run the scenario; crash+recover after *crash_at* engine events."""
    cluster = Cluster.build(
        SeparationConfig(), n_compute=4, gpus_per_node=2,
        users=("alice", "bob"), projects={"fusion": ("alice", "bob")})
    cluster.scheduler.config.requeue_on_node_fail = True
    attach_persistence(cluster)
    attach_health(cluster).start()
    attach_oracle(cluster, sampling_rate=1.0, fail_fast=True)
    chaos = cluster.chaos()
    for i in range(params["n_jobs"]):
        cluster.submit(
            "alice" if i % 2 else "bob", name=f"j{i}", ntasks=1,
            gpus_per_task=1 if params["gpus"] else 0, exclusive=True,
            duration=20.0 + (i % 4) * 6.5 + i * 0.01, at=i * 0.9)
    if params["node_fail"]:
        chaos.crash_node("c2", for_=40.0)
    if params["revoke"]:
        db = cluster.userdb
        db.remove_from_project("fusion", db.user("bob"),
                               approver=db.user("alice"))
    steps = 0
    while True:
        if steps == crash_at:
            chaos.crash_scheduler()
            report = cluster.recover()
            assert report.identical, \
                f"recovery diverged at event {steps}"
            # the per-uid live-job index is rebuilt from the job table
            assert_private_squeue_matches_job_table(
                cluster.scheduler, [cluster.user(u) for u in ("alice", "bob")])
        if not cluster.engine.step():
            break
        steps += 1
    return cluster, steps


@settings(max_examples=20)
@given(scenarios)
def test_crash_at_any_event_is_digest_invisible(params):
    reference, total = _drive(params)
    ref_digest = state_digest(reference)
    crash_at = min(int(params["crash_frac"] * total), max(total - 1, 0))
    recovered, _ = _drive(params, crash_at=crash_at)
    assert state_digest(recovered) == ref_digest, \
        f"post-recovery trajectory diverged (crash at event {crash_at})"
