"""The repository's benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0

Workloads are ``batch``, ``wireup``, ``interactive`` and ``armed`` (see
``workloads.py``).  A run repeats rounds — build a fresh cluster, load the
seed's inputs, run every operation — until ``--seconds`` have passed,
interleaving the calibration kernel of ``calibrate.py`` so that every
time is reported in reference units.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median set-up
time), ``ops_per_s``, ``op_p50_us``, ``op_p95_us`` and ``peak_rss_mb``.
``--trace 1`` spends the first half of the run untraced and the second
half with spans around every layer's entry points (``tracing.py``) and
prints the per-layer metrics instead.

The second-to-last line of output is a JSON run header (host, hash seed,
workload seed, calibration factor, raw wall time, outcome digests); the
last line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  ``correct`` is false when any round's outcome digest
differs from the digest of the outcomes the generator expected, when
rounds disagree on an exact count, or (``batch``) when the placements
differ from those of a replay certified by the separation oracle.

The interpreter's hash seed is pinned: when ``PYTHONHASHSEED`` is unset
the script re-executes itself with ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("batch", "wireup", "interactive", "armed")
HASH_SEED = "0"
#: set-ups per run at least; ``setup_s`` is their median
MIN_SETUPS = 9
#: input variants a run cycles through (see workloads.py)
VARIANTS = 9
#: the source tree the benchmark measures, relative to the checkout root
SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=float, default=1.0,
                   help="scale of one round's inputs (tests use a "
                        "smoke size below 1)")
    return p.parse_args(argv)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = min(len(sorted_values) - 1,
                max(0, round(q / 100 * len(sorted_values)) - 1))
    return sorted_values[index]


class Runner:
    """Repeats rounds of one workload and keeps what they measured."""

    def __init__(self, workload: str, seed: int, size: float):
        from calibrate import Calibrator
        self.workload, self.seed, self.size = workload, seed, size
        self.cal = Calibrator()
        self.setup_s: list[float] = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        #: per input variant: outcome digests, placements, exact counts
        self.digests: dict[int, set[tuple[str, str]]] = {}
        self.placements: dict[int, set[str]] = {}
        self.counts: dict[int, list[dict]] = {}

    def run_round(self, tracer=None) -> None:
        """Set up one round, then time each of its calls."""
        from repro.kernel.errors import KernelError
        from workloads import Round
        variant = self.rounds % VARIANTS
        rnd = Round(self.workload, self.seed, self.size, variant)
        gc.collect()  # the previous round's cluster, outside any timing
        hooks = {}
        if tracer is not None:
            hooks = {"store_factory": tracer.timing_store,
                     "on_build": tracer.arm}
            calls0 = dict(tracer.calls)
        seconds = self.cal.timed(lambda: rnd.setup(**hooks))
        self.setup_s.append(seconds)
        add, clock = self.cal.add, time.perf_counter
        for op in rnd.ops():
            fn = op.fn if tracer is None else tracer.wrap("op", op.fn)
            t0 = clock()
            try:
                result = fn()
            except KernelError as exc:
                result = exc
            dt = clock() - t0
            # a burst's packets share its time: one sample per packet
            add(dt, rnd.settle(op, result), op.n)
        self.cal.flush()
        rnd.finish()
        self.rounds += 1
        self.attempted += rnd.attempted
        self.failed += rnd.failed
        self.digests.setdefault(variant, set()).add(
            (rnd.actual.hexdigest(), rnd.expected.hexdigest()))
        if self.workload == "batch":
            self.placements.setdefault(variant, set()).add(
                rnd.batch.placement_digest())
        if tracer is not None:
            tracer.fold()
            counts = rnd.counts()
            for name in ("persist.append", "persist.snapshot"):
                counts[name + "s"] = (
                    tracer.calls.get(name, 0) - calls0.get(name, 0))
            self.counts.setdefault(variant, []).append(counts)

    def run_for(self, seconds: float, tracer=None) -> None:
        """Whole rounds until *seconds* of wall time have passed."""
        deadline = time.perf_counter() + seconds
        self.run_round(tracer)
        while time.perf_counter() < deadline:
            self.run_round(tracer)

    def extra_setups(self) -> None:
        """Top the set-up samples up to :data:`MIN_SETUPS`."""
        from workloads import Round
        while len(self.setup_s) < MIN_SETUPS:
            rnd = Round(self.workload, self.seed, self.size,
                        len(self.setup_s) % VARIANTS)
            gc.collect()
            seconds = self.cal.timed(rnd.setup)
            self.setup_s.append(seconds)

    def ops_per_s(self) -> float:
        return self.cal.ops / self.cal.ref_s

    def consistent(self) -> bool:
        """Every round met its expected outcomes and counted the same."""
        return (all(len(d) == 1 and all(a == e for a, e in d)
                    for d in self.digests.values())
                and all(c == counts[0] for counts in self.counts.values()
                        for c in counts))


def end_to_end(runner: Runner) -> dict[str, tuple[float, str]]:
    lat = sorted(runner.cal.latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(runner.setup_s), "s"),
        "ops_per_s": (runner.ops_per_s(), "1/s"),
        "op_p50_us": (percentile(lat, 50) * 1e6, "us"),
        "op_p95_us": (percentile(lat, 95) * 1e6, "us"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


#: per-layer time metric -> the span it is the mean self time of, per
#: call (per packet for the burst handler)
LAYER_TIMES = {
    "sched.dispatch_self_us": "sched.dispatch",
    "sched.submit_us": "sched.submit",
    "sched.squeue_us": "sched.squeue",
    "kernel.spawn_us": "kernel.spawn",
    "kernel.pam_us": "kernel.pam",
    "kernel.procfs_us": "kernel.procfs",
    "kernel.vfs_us": "kernel.vfs",
    "gpu.prolog_us": "gpu.prolog",
    "gpu.epilog_us": "gpu.epilog",
    "net.evaluate_us": "net.evaluate",
    "ubf.decide_us": "ubf.decide",
    "ubf.batch_us_per_pkt": "ubf.batch",
    "portal.connect_us": "portal.connect",
    "oracle.check_us": "oracle.check",
    "obs.audit_us": "obs.audit",
    "persist.append_us": "persist.append",
    "persist.snapshot_us": "persist.snapshot",
}


def per_layer(untraced: Runner, traced: Runner,
              tracer) -> dict[str, tuple[float, str]]:
    factor = traced.cal.factor
    out: dict[str, tuple[float, str]] = {}
    for metric, span in LAYER_TIMES.items():
        units = tracer.units.get(span, 0)
        value = tracer.self_s.get(span, 0.0) / units * factor * 1e6 \
            if units else 0.0
        out[metric] = (value, "us")
    for name, value in traced.counts[0][0].items():
        ratio = name.endswith("_ratio") or name.endswith("_per_job")
        out[name] = (value, "ratio" if ratio else "count")
    total = tracer.op_total_s
    out["trace.unattributed_share"] = (
        tracer.op_self_s / total if total else 0.0, "ratio")
    out["trace.overhead"] = (
        untraced.ops_per_s() / traced.ops_per_s() - 1.0, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") is None:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(SRC))
    wall0 = time.perf_counter()
    runner = Runner(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        from tracing import Tracer
        runner.run_for(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = Runner(args.workload, args.seed, args.size)
        traced.run_for(args.seconds / 2, tracer)
        metrics = per_layer(runner, traced, tracer)
        correct = runner.consistent() and traced.consistent()
        measured = (runner, traced)
    else:
        runner.run_for(args.seconds)
        runner.extra_setups()
        metrics = end_to_end(runner)
        correct = runner.consistent()
        measured = (runner,)
    if args.workload == "batch":
        from workloads import reference_digest
        placements = {}
        for r in measured:
            for variant, digests in r.placements.items():
                placements.setdefault(variant, set()).update(digests)
        reference = {v: reference_digest(args.seed, args.size, v)
                     for v in sorted(placements)}
        correct = correct and all(placements[v] == {reference[v]}
                                  for v in reference)
    header = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "pythonhashseed": os.environ["PYTHONHASHSEED"],
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "calibration_factor": runner.cal.factor,
        "kernel_runs": len(runner.cal.kernel_s),
        "raw_wall_s": time.perf_counter() - wall0,
        "raw_op_s": sum(r.cal.raw_s for r in measured),
        "ops": sum(r.cal.ops for r in measured),
        "rounds": sum(r.rounds for r in measured),
        "setups": len(runner.setup_s),
        "digests": {v: sorted({d for r in measured
                               for d in r.digests.get(v, ())})
                    for v in range(VARIANTS)
                    if any(v in r.digests for r in measured)},
    }
    if args.workload == "batch":
        header["placements"] = {v: sorted(d) for v, d in placements.items()}
        header["reference_placements"] = reference
    if tracer is not None:
        header["trace_seconds"] = {
            "op_total": tracer.op_total_s, "op_unattributed":
            tracer.op_self_s, "layers_in_ops": tracer.layer_in_op_s}
    print(json.dumps({"header": header}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in measured),
        "failed": sum(r.failed for r in measured),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
