"""One regression gate for every benchmark with a committed baseline.

Each ``benchmarks/baselines/eNN.json`` names the result file its
benchmark writes under ``benchmarks/results/``, the host and run its
bounds came from, how each bound was derived, and its rules
``[path, op, bound]``: the ``smoke`` list applies to every result, the
``full`` list (the sweep-only points) only to a result whose recorded
``mode`` is ``full``.  ``path`` is dotted, list items by index; ``op`` is
``true`` (the value is ``true``; bound unused), ``==``, ``>=`` or ``<=``.
Tolerances are already folded into the bounds.  The gate fails on any
broken rule and on any rule whose path is missing from the result.

Beside each baseline sits a committed reference result (same file name
as under ``results/``): the recorded run the tier-1 tests gate.

Usage: ``python benchmarks/gate.py [EXPERIMENT ...]`` (``E24``, ``E29``,
...; default: every baseline), after the benchmarks' smokes have written
their results.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINES_DIR = os.path.join(HERE, "baselines")
RESULTS_DIR = os.path.join(HERE, "results")

OPS = {
    "true": lambda got, bound: got is True,
    "==": lambda got, bound: got == bound,
    ">=": lambda got, bound: got >= bound,
    "<=": lambda got, bound: got <= bound,
}
_MISSING = object()


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def baselines() -> list[str]:
    """Names of the experiments with a baseline, e.g. ``['e24', 'e28']``."""
    return sorted(name[:-len(".json")] for name in os.listdir(BASELINES_DIR)
                  if re.fullmatch(r"e\d+\.json", name))


def lookup(doc, path: str):
    """The value at dotted *path* in *doc*, or ``_MISSING``."""
    for key in path.split("."):
        if isinstance(doc, dict) and key in doc:
            doc = doc[key]
        elif isinstance(doc, list) and key.isdigit() and int(key) < len(doc):
            doc = doc[int(key)]
        else:
            return _MISSING
    return doc


def check(baseline: dict, result: dict) -> tuple[int, list[str]]:
    """Apply *baseline*'s rules for *result*'s recorded mode.

    Returns the number of rules evaluated and one line per failure,
    each naming its rule."""
    mode = result.get("mode")
    if mode not in ("smoke", "full"):
        return 0, [f"mode: {json.dumps(mode)} is neither smoke nor full"]
    rules = baseline["rules"]["smoke"]
    if mode == "full":
        rules = rules + baseline["rules"]["full"]
    failures = []
    for path, op, bound in rules:
        rule = f"{path} {op}" + ("" if op == "true" else f" {bound}")
        got = lookup(result, path)
        if got is _MISSING:
            failures.append(f"{rule}: missing from the result")
            continue
        try:
            ok = OPS[op](got, bound)
        except TypeError:  # e.g. a null where a number belongs
            ok = False
        if not ok:
            failures.append(f"{rule}: got {json.dumps(got)}")
    return len(rules), failures


def describe(host: dict | None) -> str:
    if host is None:
        return "not recorded"
    return (f"{host['cpus']} CPUs, Python {host['python']}, "
            f"PYTHONHASHSEED={host['pythonhashseed'] or 'unset'}")


def main(names: list[str]) -> int:
    failed = 0
    for name in [n.lower() for n in names] or baselines():
        baseline = load(os.path.join(BASELINES_DIR, f"{name}.json"))
        path = os.path.join(RESULTS_DIR, baseline["result"])
        if not os.path.exists(path):
            print(f"{baseline['experiment']}: FAILED, no {path}; "
                  "run its smoke first")
            failed += 1
            continue
        result = load(path)
        n, failures = check(baseline, result)
        print(f"{baseline['experiment']}: {n} rules evaluated on a "
              f"{result.get('mode')} result")
        print(f"  baseline host: {baseline['host']} ({baseline['run']})")
        print(f"  current host:  {describe(result.get('host'))}")
        for failure in failures:
            print(f"  FAIL {failure}")
        print("  FAILED" if failures else "  OK")
        failed += bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
