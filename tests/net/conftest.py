"""Network test fixtures: a two/three-host fabric with optional UBF."""

from __future__ import annotations

import pytest

from repro.kernel import LinuxNode
from repro.net import Fabric, Firewall, HostStack, UBFDaemon, ubf_ruleset
from repro.obs import Telemetry, Tracer
from repro.observer import Observer
from repro.sim.metrics import MetricSet


def build_fabric(userdb, hostnames, *, ubf: bool, cache: bool = True,
                 conntrack: bool = True):
    """Create nodes + stacks; with ubf=True each host gets the appendix
    ruleset and a UBF daemon bound to its nfqueue."""
    fabric = Fabric()
    nodes, daemons = {}, {}
    for name in hostnames:
        node = LinuxNode(name, userdb)
        fw = Firewall(rules=ubf_ruleset() if ubf else [])
        fw.conntrack.enabled = conntrack
        stack = HostStack(node, fabric, firewall=fw)
        nodes[name] = node
        if ubf:
            daemons[name] = UBFDaemon(stack, fabric, userdb,
                                      cache_enabled=cache).install()
    return fabric, nodes, daemons


class VerdictRecorder(Observer):
    """Every verdict a daemon reports, as ``(verdict, reason)`` pairs."""

    def __init__(self):
        self.seen = []

    def ubf_verdict(self, daemon, flow, uid, verdict, reason, code):
        self.seen.append((verdict, reason))


def recorded(daemon) -> list:
    """Subscribe a :class:`VerdictRecorder` to *daemon*; returns the list
    its verdicts land in."""
    recorder = VerdictRecorder()
    daemon.observers.append(recorder)
    return recorder.seen


def traced(daemon) -> Tracer:
    """Subscribe a telemetry plane to *daemon*; returns its tracer."""
    telemetry = Telemetry(MetricSet(), Tracer(clock=lambda: 0.0))
    daemon.observers.append(telemetry)
    return telemetry.tracer


@pytest.fixture
def open_fabric(userdb):
    """No UBF: stock permissive network."""
    return build_fabric(userdb, ["c1", "c2", "c3"], ubf=False)


@pytest.fixture
def ubf_fabric(userdb):
    """UBF on every host."""
    return build_fabric(userdb, ["c1", "c2", "c3"], ubf=True)


def proc_on(nodes, host, userdb, username, argv=("app",)):
    node = nodes[host]
    creds = userdb.credentials_for(userdb.user(username))
    return node.procs.spawn(creds, list(argv))
