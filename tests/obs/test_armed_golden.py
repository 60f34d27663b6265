"""End-to-end golden exports of one fixed, fully armed scenario.

The unit goldens (``golden_audit.jsonl``, ``golden_prometheus.txt``) are
built from hand-fed components; these four are built *through the
wiring*: a cluster with the event log, telemetry, forensics, the oracle,
the health monitor and persistence attached runs one scripted day, and
its audit trail, telemetry JSONL (events and spans), Prometheus text and
journal records must match the committed files byte for byte.  Any change
in which plane sees which decision, or in what order, shows up here.

The day covers a GPU job through prolog and epilog; UBF DROP and ACCEPT
verdicts on the single-packet and burst paths; a pam_slurm denial and a
denied cross-user listdir; a portal deny; a project-membership
revocation; a node crash, its fencing and rejoin; and a control-plane
crash and recovery.

Regenerate (only for an intended change of the exports) with
``PYTHONPATH=src python tests/obs/test_armed_golden.py``.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro import Cluster, LLSC
from repro.kernel.errors import KernelError
from repro.kernel.syscalls import SyscallInterface
from repro.monitor import audited_session, instrument_cluster
from repro.net import ConnState, FiveTuple, Packet, Proto
from repro.obs import attach_forensics, attach_telemetry
from repro.oracle import attach_oracle
from repro.persist import MemoryRunStore, attach_persistence
from repro.portal import launch_webapp
from repro.sched.health import attach_health

HERE = Path(__file__).parent
GOLDEN = {
    "audit": HERE / "golden_armed_audit.jsonl",
    "telemetry": HERE / "golden_armed_telemetry.jsonl",
    "prometheus": HERE / "golden_armed_prometheus.txt",
    "journal": HERE / "golden_armed_journal.jsonl",
}
USERS = ("alice", "bob", "carol", "mallory")


def _try(fn) -> None:
    try:
        fn()
    except KernelError:
        pass


def armed_day() -> dict[str, str]:
    """Run the scripted day; returns the four exports as text."""
    c = Cluster.build(LLSC, n_compute=4, gpus_per_node=1, users=USERS,
                      staff=("sam",), projects={"proj": ("alice", "carol")})
    instrument_cluster(c)
    telemetry = attach_telemetry(c)
    forensics = attach_forensics(c)
    oracle = attach_oracle(c)
    attach_health(c, interval=5.0).start()
    spine = attach_persistence(c, MemoryRunStore(), snapshot_every=20)
    chaos = c.chaos()
    shells = {u: c.login(u) for u in USERS}

    # jobs: two GPU jobs that write their devices, a long CPU job
    gpu_job = c.submit("bob", duration=30.0, gpus_per_task=1)
    alice_job = c.submit("alice", duration=400.0)
    carol_job = c.submit("carol", duration=400.0, gpus_per_task=1)
    c.run(until=2.0)
    for job in (gpu_job, carol_job):
        shell = c.job_session(job)
        shell.sys.open_write("/dev/nvidia0", b"tensors")
        shell.sys.open_read("/dev/nvidia0")

    # UBF single-packet path: same-user ACCEPT, cross-user DROP, and a
    # project-egid ACCEPT that a membership revocation later turns to DROP
    host = alice_job.nodes[0]
    a_shell = c.job_session(alice_job)
    a_shell.node.net.listen(a_shell.node.net.bind(a_shell.process, 5000))
    c.login("alice").socket().connect(host, 5000)
    _try(lambda: shells["mallory"].socket().connect(host, 5000))
    a_shell.sg("proj")
    a_shell.node.net.listen(a_shell.node.net.bind(a_shell.process, 5001))
    shells["carol"].socket().connect(host, 5001)

    # UBF burst path: alice ACCEPT, mallory DROP in one evaluate_batch
    pkts = []
    for who in ("alice", "mallory"):
        s = shells[who]
        sock = s.node.net.bind_ephemeral(s.process, Proto.TCP)
        pkts.append(Packet(FiveTuple(Proto.TCP, s.node.name, sock.port,
                                     host, 5000),
                           ConnState.NEW, src_uid=s.user.uid))
    c.fabric.host(host).firewall.evaluate_batch(pkts)

    # kernel: pam_slurm refusal, allowed ssh, denied cross-user listdir
    # (plain and audited), hidepid, smask, a refused GPU open
    _try(lambda: c.ssh("mallory", host))
    c.ssh("alice", host)
    _try(lambda: shells["mallory"].sys.listdir("/home/alice"))
    probe = audited_session(shells["mallory"], c.security_log)
    for i in range(12):  # enough denials for the tenant-deny-spike rule
        _try(lambda: probe.listdir(f"/home/{USERS[i % 3]}"))
    shells["mallory"].sys.ps()
    _try(lambda: shells["mallory"].sys.read_proc_cmdline(
        shells["alice"].process.pid))
    shells["alice"].sys.create("/home/alice/notes", mode=0o666)
    shells["alice"].sys.chmod("/home/alice/notes", 0o777)
    node = c.node(carol_job.nodes[0])
    proc = node.procs.spawn(c.userdb.credentials_for(c.user("mallory")),
                            ["probe"])
    _try(lambda: SyscallInterface(node, proc).open_read("/dev/nvidia0"))

    # portal: a forward with a token, a refusal without one
    app = launch_webapp(a_shell.node, a_shell.process, 8888, "lab")
    app.app_id = 41  # the id counter is process-wide; pin it
    c.portal.register(app)
    c.portal.connect(c.portal.login("alice").token, app.app_id)
    _try(lambda: c.portal.connect(None, app.app_id))

    # membership revocation: carol leaves proj, her cached ACCEPT goes
    c.userdb.remove_from_project("proj", c.user("carol"),
                                 approver=c.user("alice"))
    _try(lambda: shells["carol"].socket().connect(host, 5001))

    c.run(until=40.0)  # the GPU job finishes through its epilog
    forensics.alerts.evaluate()

    # node crash -> fence -> reboot -> rejoin (remediation scrubs the
    # GPU carol's job left dirty)
    victim = carol_job.nodes[0]
    chaos.crash_node(victim)
    c.run(until=70.0)
    chaos.reboot_node(victim)
    c.run(until=100.0)
    forensics.alerts.evaluate()

    # control-plane crash and recovery
    c.submit("alice", duration=20.0, gpus_per_task=1)
    c.run(until=101.0)
    chaos.crash_scheduler()
    report = chaos.recover_scheduler()
    assert report.identical
    c.run(until=500.0)
    forensics.alerts.evaluate()
    assert not oracle.violations

    tele = io.StringIO()
    telemetry.export_jsonl(tele)
    audit = io.StringIO()
    forensics.audit.export_jsonl(audit)
    journal = "".join(json.dumps(rec, sort_keys=True) + "\n"
                      for rec in spine.journal.records())
    return {"audit": audit.getvalue(), "telemetry": tele.getvalue(),
            "prometheus": telemetry.prometheus(), "journal": journal}


@pytest.fixture(scope="module")
def exports():
    """The scenario attaches its own oracle; an environment-armed one
    (the CI oracle job) would double every check count."""
    with pytest.MonkeyPatch.context() as mp:
        for var in ("REPRO_ORACLE", "REPRO_ORACLE_RATE",
                    "REPRO_ORACLE_SHADOW", "REPRO_ORACLE_FAILFAST"):
            mp.delenv(var, raising=False)
        return armed_day()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_export_matches_golden(exports, name):
    assert exports[name] == GOLDEN[name].read_text()


def test_scenario_reaches_every_plane(exports):
    """The day must exercise what the goldens are meant to pin."""
    audit = exports["audit"]
    for needle in ('"mechanism":"ubf","action":"deny"',
                   '"mechanism":"ubf","action":"allow"',
                   '"mechanism":"pam","action":"deny"',
                   '"mechanism":"portal","action":"deny"',
                   '"mechanism":"gpu","action":"deny"',
                   '"mechanism":"recovery","action":"restore"',
                   '"target":"tenant-deny-spike"', "gpus_scrubbed=1",
                   "fenced:"):
        assert needle in audit, needle
    for op in ("gpu_grant", "gpu_scrub", "member_del", "fence",
               "remediate"):
        assert f'"op": "{op}"' in exports["journal"], op
    spans = exports["telemetry"]
    for name in ("ubf.decide", "ubf.decide_batch", "ubf.ident_group",
                 "pam.open_session", "portal.connect", "sched.prolog",
                 "sched.epilog"):
        assert f'"name":"{name}"' in spans, name


if __name__ == "__main__":
    for key, text in armed_day().items():
        GOLDEN[key].write_text(text)
