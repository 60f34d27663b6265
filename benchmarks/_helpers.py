"""Shared table-printing / result-export helpers for the benchmarks."""

from __future__ import annotations

import json
import os
import platform
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def cpu_count() -> int:
    """CPUs this process may run on (the affinity mask, not the machine)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def write_result(name: str, doc: dict, *, full: bool) -> str:
    """Write an experiment's result document to
    benchmarks/results/<name>.json, stamped with what ran and where.

    The stamp is ``experiment`` (``E24`` for ``e24_scale``), ``mode``
    (``full`` or ``smoke``; ``benchmarks/gate.py`` picks its rules by it)
    and ``host`` (CPU count, Python version, ``PYTHONHASHSEED``, null when
    unset).  Returns the path."""
    stamped = {
        "experiment": name.split("_")[0].upper(),
        "mode": "full" if full else "smoke",
        "host": {"cpus": cpu_count(),
                 "python": platform.python_version(),
                 "pythonhashseed": os.environ.get("PYTHONHASHSEED")},
        **doc,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(stamped, fh, indent=2)
        fh.write("\n")
    print(f"\n[{name.split('_')[0]}] results written to {path}")
    return path


def write_series_csv(name: str, header: list[str],
                     rows: list[list[object]]) -> str:
    """Persist an experiment's data series to benchmarks/results/<name>.csv
    so figures can be regenerated outside the test run.  Returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.csv")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(str(c) for c in r) + "\n")
    return path


def print_table(title: str, header: list[str], rows: list[list[object]]) -> None:
    """Fixed-width experiment table on stdout (visible with ``pytest -s``)."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) + 2
              for i, h in enumerate(header)] if rows else [len(h) + 2
                                                           for h in header]
    out = [f"\n=== {title} ==="]
    out.append("".join(str(h).ljust(w) for h, w in zip(header, widths)))
    out.append("-" * sum(widths))
    for r in rows:
        out.append("".join(str(c).ljust(w) for c, w in zip(r, widths)))
    print("\n".join(out))
    sys.stdout.flush()
