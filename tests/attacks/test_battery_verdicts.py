"""Golden E14 verdicts: every battery probe under 17 configurations.

``golden_battery_verdicts.json`` holds the ``leaked`` verdict of each of
the 33 battery probes, keyed by probe name and configuration: 561
verdicts.  The 17 configurations are the 12 campaign presets, E14's
``hidepid=0``, ``PrivateData off``, ``no GPU measures`` and ``link
sysctls off`` knockouts, and E6's pre-LU-4746 Lustre.  E14's other
knockouts, BASELINE, LLSC and the open-homes configuration of
``tests/core/test_audit.py`` equal campaign presets field for field.

Regenerate (only for an intended verdict change) with
``PYTHONPATH=src python tests/attacks/test_battery_verdicts.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import ALL_ATTACKS, LLSC, ablate, run_battery
from repro.attacks import CAMPAIGN_PRESETS
from repro.sched.privatedata import PrivateData

GOLDEN = Path(__file__).parent / "golden_battery_verdicts.json"

CONFIGS = {
    **CAMPAIGN_PRESETS,
    "hidepid=0": ablate(LLSC, hidepid=0),
    "PrivateData off": ablate(LLSC, private_data=PrivateData()),
    "no GPU measures": ablate(LLSC, gpu_dev_assignment=False,
                              gpu_scrub=False),
    "link sysctls off": ablate(LLSC, protected_symlinks=False,
                               protected_hardlinks=False),
    "old Lustre": ablate(LLSC, lustre_honors_smask=False),
}


def verdicts() -> dict[str, dict[str, bool]]:
    """probe name -> configuration label -> ``leaked``."""
    out: dict[str, dict[str, bool]] = {a.name: {} for a in ALL_ATTACKS}
    for label, config in CONFIGS.items():
        for r in run_battery(config).results:
            out[r.name][label] = r.leaked
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def observed():
    return verdicts()


def test_golden_covers_every_probe_under_every_config(golden):
    assert list(golden) == [a.name for a in ALL_ATTACKS]
    assert all(list(row) == list(CONFIGS) for row in golden.values())
    assert sum(len(row) for row in golden.values()) == 561


@pytest.mark.parametrize("label", list(CONFIGS))
def test_verdicts_match_golden(label, golden, observed):
    want = {name: row[label] for name, row in golden.items()}
    got = {name: row[label] for name, row in observed.items()}
    assert got == want


if __name__ == "__main__":
    rows = [f"{json.dumps(name)}: {json.dumps(row)}"
            for name, row in verdicts().items()]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
