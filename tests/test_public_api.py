"""Release-quality checks on the public API surface.

Every subpackage must import cleanly, every name in ``__all__`` must exist,
and the top-level convenience exports must stay stable (downstream users
program against these).
"""

import importlib
import os
import subprocess
import sys

import pytest

SUBPACKAGES = [
    "repro",
    "repro.containers",
    "repro.core",
    "repro.gpu",
    "repro.kernel",
    "repro.modules",
    "repro.monitor",
    "repro.net",
    "repro.persist",
    "repro.portal",
    "repro.sched",
    "repro.shell",
    "repro.sim",
    "repro.transfer",
    "repro.workloads",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol}"


def test_top_level_convenience_exports():
    import repro
    for symbol in ("Cluster", "Session", "SeparationConfig", "BASELINE",
                   "LLSC", "ablate", "run_battery", "standard_cluster",
                   "blast_radius_trial", "seepid", "smask_relax",
                   "UserDB", "ALL_ATTACKS", "AuditReport"):
        assert hasattr(repro, symbol), symbol


def test_import_repro_leaves_the_armed_planes_unloaded():
    """``import repro`` re-exports the attack catalog but must not pull in
    the campaign runner, the oracle or forensics: those load when a run
    needs them, keeping their modules off every plain import."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print(' '.join(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True).stdout.split()
    loaded = [m for m in out if m == "repro.attacks.runner"
              or m == "repro.obs.forensics" or m.startswith("repro.oracle")]
    assert loaded == []


def test_version_string():
    import repro
    assert repro.__version__.count(".") == 2


def test_presets_are_frozen():
    from repro import LLSC
    with pytest.raises(Exception):
        LLSC.hidepid = 0  # type: ignore[misc]


def test_battery_names_unique():
    from repro import ALL_ATTACKS
    names = [a.name for a in ALL_ATTACKS]
    assert len(names) == len(set(names))
    assert len(names) == 33


def test_every_attack_has_area_and_doc():
    from repro import ALL_ATTACKS
    from repro.attacks import AttackModel
    areas = {"processes", "scheduler", "filesystem", "network", "portal",
             "gpu", "containers"}
    for a in ALL_ATTACKS:
        assert a.area in areas, a.name
        assert isinstance(a, AttackModel), a.name
