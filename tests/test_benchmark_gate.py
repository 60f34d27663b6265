"""The benchmark regression gate (``benchmarks/gate.py``) and its baselines.

Tier-1 runs these so that a missing baseline, a mistyped rule path or a
CI gate job out of step with ``benchmarks/baselines/`` fails here rather
than in the last CI job.  ``benchmarks/`` is not a package, so the gate
is loaded from its file.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "gate", os.path.join(ROOT, "benchmarks", "gate.py"))
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _rules(smoke, full=()):
    return {"rules": {"smoke": [list(r) for r in smoke],
                      "full": [list(r) for r in full]}}


def _committed(name: str) -> tuple[dict, dict]:
    """(baseline, its committed reference result)."""
    baseline = gate.load(os.path.join(gate.BASELINES_DIR, f"{name}.json"))
    return baseline, gate.load(
        os.path.join(gate.BASELINES_DIR, baseline["result"]))


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "RESULTS_DIR", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("op,bound,good,bad", [
    ("true", None, True, 1),
    ("==", ["A1", "A4"], ["A1", "A4"], ["A1"]),
    (">=", 10.0, 10.0, 9.9),
    ("<=", 1.5, 1.5, 1.51),
])
def test_each_op_passes_good_value_and_fails_bad(op, bound, good, bad):
    rules = _rules([("a.b", op, bound)])
    assert gate.check(rules, {"mode": "smoke", "a": {"b": good}}) == (1, [])
    _, failures = gate.check(rules, {"mode": "smoke", "a": {"b": bad}})
    assert len(failures) == 1 and failures[0].startswith(f"a.b {op}")


def test_missing_path_fails_and_names_its_rule():
    _, failures = gate.check(_rules([("points.3.speedup", ">=", 3.0)]),
                             {"mode": "smoke", "points": [{}]})
    assert failures == ["points.3.speedup >= 3.0: missing from the result"]


def test_full_rules_apply_only_to_full_results():
    rules = _rules([("x", "==", 1)], full=[("sweep.y", "==", 2)])
    assert gate.check(rules, {"mode": "smoke", "x": 1}) == (1, [])
    assert gate.check(rules, {"mode": "full", "x": 1}) == (
        2, ["sweep.y == 2: missing from the result"])
    _, failures = gate.check(rules, {"x": 1})
    assert failures == ["mode: null is neither smoke nor full"]


@pytest.mark.parametrize("name", gate.baselines())
def test_baseline_passes_on_its_committed_reference(name, results_dir,
                                                     capsys):
    baseline, reference = _committed(name)
    assert reference["experiment"] == baseline["experiment"] == name.upper()
    (results_dir / baseline["result"]).write_text(json.dumps(reference))
    assert gate.main([name.upper()]) == 0
    out = capsys.readouterr().out
    assert "rules evaluated" in out and "baseline host:" in out
    assert out.rstrip().endswith("OK")


@pytest.mark.parametrize("name,mutate,rule", [
    ("e28", lambda d: d["smoke"].update(identity_single_vs_mp=False),
     "smoke.identity_single_vs_mp true: got false"),
    ("e30", lambda d: d["smoke"].update(oracle_violations=1),
     "smoke.oracle_violations == 0: got 1"),
    ("e24", lambda d: d["ubf"]["indexed"].update(verdicts_per_sec=1.0),
     "ubf.indexed.verdicts_per_sec >= "),
    ("e30", lambda d: d["smoke"].update(recovery_s=60.0),
     "smoke.recovery_s <= "),
    ("e29", lambda d: d["ablations"]["no-ubf"]["flips"].remove("A9"),
     "ablations.no-ubf.flips == "),
    ("e29", lambda d: d["full_campaign"].pop("blocked_with_deny_record"),
     "full_campaign.blocked_with_deny_record >= 11: missing"),
])
def test_gate_exits_nonzero_and_names_the_broken_rule(name, mutate, rule,
                                                       results_dir, capsys):
    baseline, reference = _committed(name)
    result = copy.deepcopy(reference)
    mutate(result)
    (results_dir / baseline["result"]).write_text(json.dumps(result))
    assert gate.main([name]) == 1
    assert f"FAIL {rule}" in capsys.readouterr().out


def test_gate_fails_when_the_result_was_never_written(results_dir, capsys):
    assert gate.main(["E29"]) == 1
    assert "FAILED, no" in capsys.readouterr().out


def test_ci_gate_job_runs_every_gated_smoke_then_the_gate():
    """CI installs no YAML parser, so ci.yml is read as text."""
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml")) as fh:
        ci = fh.read()
    job = re.search(r"^  benchmark-gates:\n(.*?)(?=^  \S|\Z)", ci,
                    re.M | re.S).group(1)
    smokes = re.findall(r"benchmarks/(bench_(e\d+)_\w+\.py)", job)
    gated = set()
    for path, experiment in smokes:
        with open(os.path.join(ROOT, "benchmarks", path)) as fh:
            if "write_result(" in fh.read():
                gated.add(experiment)
    assert gated == set(gate.baselines())
    assert "run: python benchmarks/gate.py\n" in job
    assert job.index("benchmarks/gate.py") > max(
        job.index(path) for path, _ in smokes)
