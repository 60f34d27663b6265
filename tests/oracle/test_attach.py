"""Tests: attach_oracle wiring — idempotent, additive, config-aware."""

from __future__ import annotations

import pytest

from repro import BASELINE, LLSC, Cluster, ablate
from repro.kernel.errors import KernelError
from repro.monitor import EventKind, instrument_cluster
from repro.oracle import SeparationOracle, attach_oracle


def build(config=LLSC, **kw):
    kw.setdefault("n_compute", 2)
    kw.setdefault("gpus_per_node", 1)
    kw.setdefault("users", ("alice", "bob"))
    return Cluster.build(config, **kw)


def exercise(c):
    """A small mixed workload; returns its user-observable outcomes."""
    c.submit("alice", duration=5.0, gpus_per_task=1)
    c.submit("bob", duration=5.0)
    c.run(until=60.0)
    alice, bob = c.login("alice"), c.login("bob")
    alice.sys.create("/home/alice/data", data=b"mine")
    outcomes = {
        "alice_ps": sorted((e.pid, e.uid) for e in alice.sys.ps()),
        "bob_pids": sorted(bob.sys.list_proc_pids()),
        "chmod": alice.sys.chmod("/home/alice/data", 0o777),
        "jobs": sorted((j.job_id, j.state.name)
                       for j in c.scheduler.jobs.values()),
    }
    try:
        bob.sys.open_read("/home/alice/data")
        outcomes["bob_read"] = "allowed"
    except KernelError as e:
        outcomes["bob_read"] = type(e).__name__
    return outcomes


class TestAttach:
    def test_returns_and_stores_oracle(self):
        c = build()
        oracle = attach_oracle(c)
        assert isinstance(oracle, SeparationOracle)
        assert c.oracle is oracle
        assert oracle in c.scheduler.observers
        assert all(oracle in d.observers for d in c.ubf_daemons.values())
        assert oracle in c.portal.observers

    def test_idempotent(self):
        c = build()
        oracle = attach_oracle(c)
        prolog, epilog = c.scheduler.prolog, c.scheduler.epilog
        again = attach_oracle(c, sampling_rate=0.5)
        assert again is oracle
        assert again.sampling_rate == 1.0  # second call changed nothing
        assert c.scheduler.prolog is prolog  # no double wrap
        assert c.scheduler.epilog is epilog

    def test_gpu_read_check_armed_only_with_both_measures(self):
        def read_checks(config):
            c = build(config)
            oracle = attach_oracle(c)
            gpu = c.compute_nodes[0].gpus[0]
            assert oracle in gpu.observers
            before = oracle.checks_for("I5")
            gpu.dev_read(c.userdb.credentials_for(c.user("bob")))
            return oracle.checks_for("I5") - before

        assert read_checks(LLSC) == 1
        for weakened in (BASELINE, ablate(LLSC, gpu_scrub=False),
                         ablate(LLSC, gpu_dev_assignment=False)):
            assert read_checks(weakened) == 0

    def test_event_log_linked_in_either_attach_order(self):
        def oracle_events(log_first):
            c = build()
            if log_first:
                log = instrument_cluster(c)
                oracle = attach_oracle(c)
            else:
                oracle = attach_oracle(c)
                log = instrument_cluster(c)
            creds = c.userdb.credentials_for(c.user("alice"))
            oracle.check_vfs_mode(c.login_nodes[0].vfs, "/f",
                                  creds.with_smask(0o007), 0o777, "chmod")
            return [e.kind for e in log.events]

        assert oracle_events(True) == oracle_events(False) \
            == [EventKind.ORACLE]

    def test_env_gate_attaches_at_build(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE", "1")
        monkeypatch.setenv("REPRO_ORACLE_RATE", "0.25")
        monkeypatch.setenv("REPRO_ORACLE_FAILFAST", "0")
        c = build()
        assert c.oracle is not None
        assert c.oracle.sampling_rate == 0.25
        assert not c.oracle.fail_fast

    def test_env_gate_defaults_fail_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE", "1")
        c = build()
        assert c.oracle.fail_fast and c.oracle.sampling_rate == 1.0

    def test_no_env_no_oracle(self, monkeypatch):
        monkeypatch.delenv("REPRO_ORACLE", raising=False)
        assert build().oracle is None


class TestAdditivity:
    def test_shadow_leaves_dispatch_scan_count_unchanged(self):
        """The shadow replays the scheduler's reference placement; only
        the dispatch loops count examined nodes."""
        def scans(armed):
            c = build(n_compute=4)
            if armed:
                oracle = attach_oracle(c, shadow_rate=1.0)
            for user in ("alice", "bob") * 4:
                c.submit(user, duration=5.0, ntasks=2)
            c.run(until=60.0)
            if armed:
                assert oracle.shadow_checks >= 8
            return c.metrics.counter("sched_dispatch_scan").value

        assert scans(armed=True) == scans(armed=False) > 0

    def test_outcomes_identical_with_oracle(self):
        plain = exercise(build())
        observed = build()
        oracle = attach_oracle(observed, fail_fast=True)
        assert exercise(observed) == plain
        assert oracle.total_checks > 0
        oracle.assert_clean()

    def test_checks_span_invariants(self):
        c = build()
        oracle = attach_oracle(c, fail_fast=True)
        exercise(c)
        c.portal.login("alice")
        assert oracle.checks_for("I1") > 0  # ps / list_pids
        assert oracle.checks_for("I3") > 0  # create/chmod
        assert oracle.checks_for("I4") > 0  # two job starts
        assert oracle.checks_for("I5") > 0  # gpu prolog/epilog
        assert oracle.shadow_checks > 0
        assert not oracle.violations

    def test_metrics_labelled_per_invariant(self):
        c = build()
        oracle = attach_oracle(c)
        exercise(c)
        checks = c.metrics.counter("oracle_checks_total", invariant="I4")
        assert checks.value == oracle.checks_for("I4") > 0

    def test_sampled_oracle_checks_less(self):
        c = build()
        oracle = attach_oracle(c, sampling_rate=0.05, shadow_rate=0.0)
        full = attach_oracle(build(), fail_fast=True)
        exercise(c)
        assert oracle.total_checks < 40
        assert not oracle.violations
        assert full.total_checks == 0  # nothing ran on that cluster


class TestFailFastEndToEnd:
    def test_broken_scrub_is_caught(self):
        """Disable the scrub behind the oracle's back: the epilog
        post-condition check must catch the residue."""
        from repro.oracle import SeparationViolation
        c = build()
        attach_oracle(c, fail_fast=True)
        c.submit("alice", duration=5.0, gpus_per_task=1)
        c.run(until=1.0)  # job started, device assigned
        alice = c.userdb.credentials_for(c.userdb.user("alice"))
        dirtied = 0
        for cn in c.compute_nodes:
            for gpu in cn.gpus:
                gpu.scrub = lambda: None  # sabotage
                if cn.node.name in {a.node for j in
                                    c.scheduler.jobs.values()
                                    for a in j.allocations}:
                    gpu.dev_write(alice, b"secret")
                    dirtied += 1
        assert dirtied
        with pytest.raises(SeparationViolation, match=r"\[I5\].*residue"):
            c.run(until=60.0)
