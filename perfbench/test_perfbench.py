"""The benchmark's own tests, at smoke size.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
Each case runs ``perfbench/run.py`` as a subprocess, as the benchmark is
run for real.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE = ["--seed", "5", "--seconds", "0.2", "--size", "0.05"]


def run(workload: str, trace: int, hash_seed: str = "0",
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", str(trace), *SMOKE],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int, hash_seed: str = "0",
           repeat: int = 0) -> tuple[dict, dict]:
    """(header, result) of one smoke run; *repeat* forces a fresh run."""
    proc = run(workload, trace, hash_seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["header"], json.loads(lines[-1])


def exact(metrics: dict) -> dict:
    """The per-layer metrics that are counts, not timings."""
    return {k: v["value"] for k, v in metrics.items()
            if not k.endswith("_us") and not k.endswith("_us_per_pkt")
            and not k.startswith("trace.")}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_prints_every_named_metric_with_its_unit(workload, trace, section):
    header, res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want
    assert header["pythonhashseed"] == "0"
    assert header["cpu_count"] >= 1 and header["calibration_factor"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_and_digests_repeat(workload):
    first_header, first = result(workload, 1)
    again_header, again = result(workload, 1, repeat=1)
    assert exact(first["metrics"]) == exact(again["metrics"])
    common = first_header["digests"].keys() & again_header["digests"].keys()
    assert "0" in common
    for variant in common:
        assert first_header["digests"][variant] == \
            again_header["digests"][variant]
        [[actual, expected]] = first_header["digests"][variant]
        assert actual == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digests_identical_under_both_ci_hash_seeds(workload):
    h0, r0 = result(workload, 0, "0")
    h1, r1 = result(workload, 0, "424242")
    assert h1["pythonhashseed"] == "424242"
    for variant in h0["digests"].keys() & h1["digests"].keys():
        assert h0["digests"][variant] == h1["digests"][variant]
        if workload == "batch":
            assert h0["placements"][variant] == h1["placements"][variant]
    assert r0["correct"] and r1["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layer_times_reconcile_with_the_traced_total(workload):
    header, res = result(workload, 1)
    t = header["trace_seconds"]
    assert t["op_total"] > 0
    assert t["op_unattributed"] + t["layers_in_ops"] == \
        pytest.approx(t["op_total"], rel=1e-9)
    share = res["metrics"]["trace.unattributed_share"]["value"]
    assert share == pytest.approx(t["op_unattributed"] / t["op_total"])


def test_batch_placements_match_the_certified_replay():
    header, res = result("batch", 0)
    assert header["placements"] == {
        v: [d] for v, d in header["reference_placements"].items()}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("batch", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
