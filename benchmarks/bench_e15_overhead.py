"""E15 — security-control overhead shapes (paper §I, ref [2]).

Claims reproduced: (a) Spectre/Meltdown-class mitigations (a per-syscall
tax) cost syscall-bound HPC workloads 15-40% while compute-bound work is
untouched — the measurement that motivates the paper's zero-hot-path
philosophy; (b) every Section-IV control pays at a coarser granularity
(session, connection, job boundary), so the same workload mix under the
full LLSC configuration shows ~zero slowdown.

Series printed: per-workload slowdown under the mitigation tax; the
slowdown-vs-syscall-fraction curve; the LLSC control cost table.
"""

import time

import numpy as np

from repro.core import (
    llsc_control_costs,
    make_profiles,
    slowdown,
    sweep_syscall_fraction,
)

from _helpers import print_table, write_series_csv


def test_e15_mitigation_slowdown_by_workload(benchmark):
    profiles = make_profiles()
    results = benchmark.pedantic(
        lambda: {p.name: (p.syscall_fraction, slowdown(p))
                 for p in profiles},
        rounds=1, iterations=1)
    rows = [[name, f"{frac:.1%}", f"{slow:.1%}"]
            for name, (frac, slow) in results.items()]
    print_table("E15: per-syscall mitigation tax by workload",
                ["workload", "syscall time share", "slowdown"], rows)
    benchmark.extra_info["slowdowns"] = {
        k: {"fraction": f, "slowdown": s}
        for k, (f, s) in results.items()}
    slows = dict(results.values())
    by_name = {k: v[1] for k, v in results.items()}
    assert by_name["dense-linalg"] < 0.01        # compute-bound untouched
    affected = [v for k, v in by_name.items()
                if results[k][0] > 0.05]
    assert affected and all(0.10 < s < 0.55 for s in affected)
    assert sum(0.15 <= s <= 0.40 for s in affected) >= 2  # published band


def test_e15_slowdown_curve(benchmark):
    frac, slow = benchmark.pedantic(
        lambda: sweep_syscall_fraction(50), rounds=1, iterations=1)
    picks = [0, 12, 25, 37, 49]
    print_table("E15: slowdown vs syscall fraction (model curve)",
                ["syscall fraction", "slowdown"],
                [[f"{frac[i]:.2f}", f"{slow[i]:.1%}"] for i in picks])
    csv = write_series_csv("e15_slowdown_curve",
                           ["syscall_fraction", "slowdown"],
                           [[f, s] for f, s in zip(frac, slow)])
    print(f"series written to {csv}")
    assert slow[0] == 0.0
    assert np.all(np.diff(slow) >= 0)            # monotone
    # the 15-40% band is hit at realistic fractions (6%-17%)
    band = frac[(slow >= 0.15) & (slow <= 0.40)]
    assert band.size and 0.04 < band.min() < 0.09
    assert 0.15 < band.max() < 0.20


def test_e15_llsc_controls_off_hot_path(benchmark):
    costs = benchmark.pedantic(llsc_control_costs, rounds=1, iterations=1)
    print_table("E15: where each LLSC control pays",
                ["control", "unit", "cost (us)", "hot path"],
                [[c.control, c.unit, c.cost_us, c.per_operation_hot_path]
                 for c in costs])
    assert all(not c.per_operation_hot_path for c in costs)


def test_e15_mpi_job_overhead_under_ubf(benchmark):
    """End-to-end: a 1000-message same-user MPI-style flow pays the UBF
    only at channel setup — total firewall cost is <1% of even a
    millisecond-scale message budget."""
    from repro import Cluster, LLSC
    from repro.net import firewall_cost_us

    def run_flow():
        cluster = Cluster.build(LLSC, n_compute=2, users=("alice",))
        job = cluster.submit("alice", ntasks=2, duration=10_000.0)
        cluster.run(until=1.0)
        shell = cluster.job_session(job)
        svc = shell.node.net.listen(shell.node.net.bind(shell.process, 7000))
        peer = cluster.login("alice")
        conn = peer.socket().connect(shell.node.name, 7000)
        for _ in range(1000):
            conn.send(b"halo" * 64)
        return firewall_cost_us(cluster.metrics)

    total_us = benchmark.pedantic(run_flow, rounds=1, iterations=1)
    per_msg = total_us / 1000
    print_table("E15: UBF cost across a 1000-message same-user flow",
                ["total modelled us", "per message us"],
                [[f"{total_us:.1f}", f"{per_msg:.3f}"]])
    benchmark.extra_info["per_message_us"] = per_msg
    assert per_msg < 1.0  # amortised to noise


def test_e15_telemetry_overhead(benchmark):
    """The observability spine itself must stay off the hot path: a full
    operations day with telemetry (tracing + labeled counters +
    instrumented façades) costs <5% of the bare runtime.

    Method: per-round A/B wall-clock at the ~40 ms day scale cannot
    resolve a few-percent signal on a shared machine (bare-vs-bare rounds
    routinely differ by 10%+), so the overhead is *attributed* instead —
    stable amortised unit costs from tight loops (span start+finish,
    observed-vs-bare façade over the same process, labeled counter bump),
    multiplied by the telemetry operation counts of the instrumented day,
    divided by the bare day's best-of-N wall time (whose minima ARE
    stable run to run).  Every term is measured, none modelled."""
    from repro import Cluster, LLSC
    from repro.monitor import instrument_cluster
    from repro.obs import attach_telemetry
    from repro.obs.trace import Tracer

    def build():
        return Cluster.build(LLSC, n_compute=4, gpus_per_node=1,
                             users=("alice", "bob"), staff=("sam",))

    def run_day(cluster) -> None:
        for _ in range(24):
            cluster.submit("alice", duration=50.0, gpus_per_task=1)
            cluster.submit("bob", duration=30.0)
        cluster.run(until=5_000.0)
        alice = cluster.login("alice")
        alice.sys.create("/home/alice/data", mode=0o600, data=b"x" * 512)
        for _ in range(1_200):
            alice.sys.open_read("/home/alice/data")
        job = cluster.submit("alice", duration=10_000.0)
        cluster.run(until=6_000.0)
        shell = cluster.job_session(job)
        shell.node.net.listen(shell.node.net.bind(shell.process, 7000))
        conn = cluster.login("alice").socket().connect(shell.node.name,
                                                       7000)
        for _ in range(600):
            conn.send(b"halo" * 16)

    def bare_day_seconds() -> float:
        best = float("inf")
        for _ in range(7):
            cluster = build()
            t0 = time.perf_counter()
            run_day(cluster)
            best = min(best, time.perf_counter() - t0)
        return best

    def span_unit_cost() -> float:
        tracer = Tracer(clock=lambda: 1.0)

        def loop() -> float:
            n = 30_000
            t0 = time.perf_counter()
            for _ in range(n):
                s = tracer.start_span("job", job_id=1)
                tracer.finish(s, state="ok")
            dt = time.perf_counter() - t0
            tracer.spans.clear()
            return dt / n

        loop()
        return min(loop() for _ in range(3))

    def syscall_unit_cost() -> float:
        # observed vs bare façade over the SAME process, so cluster-to-
        # cluster variation cancels; each observed chunk is bracketed by
        # two bare chunks and the median of the paired differences taken,
        # so a noise spike in any one chunk cannot skew the estimate
        import statistics

        from repro.kernel.syscalls import SyscallInterface

        cluster = Cluster.build(LLSC, n_compute=1, users=("alice",))
        attach_telemetry(cluster)
        alice = cluster.login("alice")
        alice.sys.create("/home/alice/d", mode=0o600, data=b"x" * 512)
        wrapped = alice.sys
        inner = SyscallInterface(alice.node, alice.process)

        def chunk(sys) -> float:
            n = 2_000
            t0 = time.perf_counter()
            for _ in range(n):
                sys.open_read("/home/alice/d")
            return (time.perf_counter() - t0) / n

        chunk(wrapped), chunk(inner)
        diffs = []
        for _ in range(15):
            before = chunk(inner)
            mid = chunk(wrapped)
            after = chunk(inner)
            diffs.append(mid - min(before, after))
        return max(0.0, statistics.median(diffs))

    def counter_unit_cost() -> float:
        from repro.sim.metrics import MetricSet
        counter = MetricSet().counter("c", result="x")

        def loop() -> float:
            n = 100_000
            t0 = time.perf_counter()
            for _ in range(n):
                counter.inc()
            return (time.perf_counter() - t0) / n

        loop()
        return min(loop() for _ in range(3))

    def measure():
        bare = bare_day_seconds()
        # one instrumented day, to count the telemetry operations it emits
        cluster = build()
        tele = attach_telemetry(cluster)
        instrument_cluster(cluster)
        run_day(cluster)
        n_spans = len(tele.tracer.spans)
        n_syscalls = sum(c.value for c in
                         cluster.metrics.family("syscalls_total"))
        n_incs = sum(c.value for fam in
                     ("ubf_verdicts_total", "pam_decisions_total",
                      "portal_requests_total", "gpu_grants_total",
                      "gpu_scrubs_total")
                     for c in cluster.metrics.family(fam))
        return (bare, n_spans, n_syscalls, n_incs,
                span_unit_cost(), syscall_unit_cost(), counter_unit_cost())

    (bare, n_spans, n_syscalls, n_incs, span_us, sys_us, inc_us) = \
        benchmark.pedantic(measure, rounds=1, iterations=1)
    parts = [
        ("spans (start+finish)", n_spans, span_us),
        ("observed syscalls", n_syscalls, sys_us),
        ("labeled counter bumps", n_incs, inc_us),
    ]
    telemetry_s = sum(n * cost for _, n, cost in parts)
    overhead = telemetry_s / bare
    print_table("E15: attributed telemetry overhead (operations day)",
                ["component", "ops/day", "unit cost (us)", "total (ms)"],
                [[name, n, f"{cost * 1e6:.3f}", f"{n * cost * 1e3:.3f}"]
                 for name, n, cost in parts]
                + [["bare day (best-of-7)", "-", "-", f"{bare * 1e3:.1f}"],
                   ["overhead", "-", "-", f"{overhead:.1%}"]])
    benchmark.extra_info["telemetry_overhead"] = overhead
    assert overhead < 0.05
