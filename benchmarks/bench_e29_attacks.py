"""E29 — full attack-campaign replay: the catalog vs the preset matrix.

The paper's separation claim is only meaningful adversarially: every
mechanism in §IV must stop a *live* attacker, not just pass its unit
tests.  E29 replays the whole ``repro.attacks`` catalog (A1..A14, one or
more per paper mechanism) against the campaign preset matrix and records
the classified outcome of every (attack, preset) pair:

* **full**      — the paper's complete stack: every probe must come back
  ``BLOCKED`` with zero oracle violations at full sampling.  One
  ``SUCCEEDED`` here is a silent separation failure and fails CI.
* **baseline**  — everything off: every probe must come back
  ``SUCCEEDED``.  This is the differential that proves the probes are
  real attacks and not no-ops.
* **ablations** — one mechanism off at a time: each must flip exactly
  its declared attacks (``flipped_by``/``detected_in`` in the catalog)
  and nothing else, proving every mechanism is load-bearing and no
  attack is covered by an accidental second line of defence it does not
  declare.

Timed sections record campaign throughput (attacks/sec over the full
preset and over the whole matrix — each attack builds two fully armed
clusters, so this is an end-to-end enforcement-stack benchmark), plus
attribution coverage: how many blocked probes were pinned to a concrete
deny record with a causal trace id by the PR 6 audit trail.

Determinism is asserted on every run: the full-preset campaign replayed
twice must produce row-identical outcomes (the byte-identical
``docs/ATTACKS.md`` regeneration gate depends on this).  ``E29_FULL=1``
(or ``python benchmarks/bench_e29_attacks.py``) extends the check to the
entire matrix and to the rendered report itself.

Results land in ``benchmarks/results/e29_attacks.json`` (scratch output
and the CI artifact); ``python benchmarks/gate.py E29`` checks them
against the rules in ``benchmarks/baselines/e29.json``.
"""

from __future__ import annotations

import os
import sys
import time

from repro.attacks import ABLATIONS, CATALOG, run_campaign
from repro.attacks.report import render_report

from _helpers import print_table, write_result


def _campaign_section(preset_key: str) -> tuple[dict, list[dict]]:
    """Run one campaign, timed; return (summary, rows)."""
    t0 = time.perf_counter()
    result = run_campaign(preset_key)
    wall = time.perf_counter() - t0
    rows = [o.row() for o in result.outcomes]
    attributed = sum(1 for o in result.outcomes
                     if o.outcome.value == "BLOCKED" and o.deny_records > 0)
    traced = sum(1 for o in result.outcomes if o.audit_trace)
    return {
        "preset": preset_key,
        "attacks": len(result.outcomes),
        "counts": result.counts(),
        "wall_sec": round(wall, 3),
        "attacks_per_sec": round(len(result.outcomes) / wall, 1),
        "blocked_with_deny_record": attributed,
        "with_audit_trace": traced,
    }, rows


def _flips(rows: list[dict]) -> list[str]:
    """Attack ids that did not come back BLOCKED."""
    return sorted(r["attack"] for r in rows if r["outcome"] != "BLOCKED")


def run_e29(full: bool = False) -> dict:
    """Execute the campaign matrix; return the results document."""
    results: dict = {}

    full_summary, full_rows = _campaign_section("full")
    results["full_campaign"] = full_summary
    results["full_rows"] = full_rows

    base_summary, base_rows = _campaign_section("baseline")
    results["baseline_campaign"] = base_summary
    results["baseline_flips"] = _flips(base_rows)

    expected = {key: sorted(a.id for a in CATALOG
                            if a.expected(key) != "BLOCKED")
                for key in ABLATIONS}
    ablations = {}
    t0 = time.perf_counter()
    for key in ABLATIONS:
        _, rows = _campaign_section(key)
        observed = _flips(rows)
        ablations[key] = {
            "flips": observed,
            "expected": expected[key],
            "matches_catalog": observed == expected[key],
        }
    ablation_wall = time.perf_counter() - t0
    results["ablations"] = ablations
    matrix_attacks = len(CATALOG) * (len(ABLATIONS) + 2)
    matrix_wall = (ablation_wall + full_summary["wall_sec"]
                   + base_summary["wall_sec"])
    results["matrix"] = {
        "presets": len(ABLATIONS) + 2,
        "attacks_total": matrix_attacks,
        "wall_sec": round(matrix_wall, 3),
        "attacks_per_sec": round(matrix_attacks / matrix_wall, 1),
    }

    # determinism: the report regeneration gate depends on row identity
    replay = [o.row() for o in run_campaign("full").outcomes]
    results["determinism"] = {"full_rows_identical": replay == full_rows}
    if full:
        replay_ablation = [o.row() for o in run_campaign("no-ubf").outcomes]
        first_ablation = [o.row() for o in run_campaign("no-ubf").outcomes]
        results["determinism"]["ablation_rows_identical"] = \
            replay_ablation == first_ablation
        results["determinism"]["report_bytes_identical"] = \
            render_report() == render_report()

    write_result("e29_attacks", results, full=full)
    return results


def _report(results: dict) -> None:
    fc = results["full_campaign"]
    rows = [[r["attack"], r["outcome"], r["blocked_by"] or "-",
             r["audit_trace"] or "-", r["deny_records"]]
            for r in results["full_rows"]]
    print_table(
        "E29 full-preset campaign",
        ["attack", "outcome", "blocked by", "trace", "denies"], rows)
    print(f"full: {fc['counts']['BLOCKED']} blocked / "
          f"{fc['counts']['DETECTED']} detected / "
          f"{fc['counts']['SUCCEEDED']} succeeded · "
          f"{fc['attacks_per_sec']} attacks/s · "
          f"{fc['blocked_with_deny_record']}/{fc['attacks']} deny-attributed")
    bc = results["baseline_campaign"]
    print(f"baseline differential: {bc['counts']['SUCCEEDED']}/"
          f"{bc['attacks']} probes succeed with everything off")
    flip_rows = [[k, " ".join(v["flips"]) or "-",
                  "ok" if v["matches_catalog"] else "MISMATCH"]
                 for k, v in sorted(results["ablations"].items())]
    print_table("E29 ablation flips", ["ablation", "flipped", "vs catalog"],
                flip_rows)
    m = results["matrix"]
    print(f"matrix: {m['attacks_total']} attack runs over {m['presets']} "
          f"presets in {m['wall_sec']}s ({m['attacks_per_sec']} attacks/s)")
    sys.stdout.flush()


def test_e29_attacks_smoke(benchmark):
    """CI smoke: the whole campaign matrix with classification, ablation,
    and determinism assertions (extended determinism with E29_FULL=1)."""
    full = os.environ.get("E29_FULL") == "1"
    results = benchmark.pedantic(run_e29, args=(full,),
                                 rounds=1, iterations=1)
    _report(results)
    fc = results["full_campaign"]
    benchmark.extra_info["e29"] = {
        "attacks_per_sec": fc["attacks_per_sec"],
        "blocked": fc["counts"]["BLOCKED"],
    }
    assert fc["counts"]["SUCCEEDED"] == 0, "silent crossing under full"
    assert fc["counts"]["DETECTED"] == 0
    assert fc["counts"]["BLOCKED"] == len(CATALOG)
    bc = results["baseline_campaign"]
    assert bc["counts"]["SUCCEEDED"] == len(CATALOG), \
        "a probe is a no-op: it cannot even cross an unprotected boundary"
    for key, section in results["ablations"].items():
        assert section["flips"], f"ablation {key} is not load-bearing"
        assert section["matches_catalog"], \
            f"{key}: flips {section['flips']} != catalog {section['expected']}"
    assert results["determinism"]["full_rows_identical"]
    if full:
        assert results["determinism"]["ablation_rows_identical"]
        assert results["determinism"]["report_bytes_identical"]


if __name__ == "__main__":
    t0 = time.perf_counter()
    res = run_e29(full=os.environ.get("E29_SMOKE") != "1")
    _report(res)
    print(f"[e29] total wall: {time.perf_counter() - t0:.1f}s")
