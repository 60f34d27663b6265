"""Tests: declarative alert engine — rule kinds, edge triggering, gating,
default rule set, and the ALERT event sink."""

from repro.monitor.events import EventKind, SecurityEventLog
from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    RuleKind,
    default_rules,
)
from repro.sim.engine import Engine
from repro.sim.metrics import MetricSet


def make_engine(rules, events=None, clock=None):
    """An engine watching (and firing into) the log *events*, if any."""
    metrics = MetricSet()
    engine = AlertEngine(metrics, clock=clock, rules=tuple(rules),
                         observers=None if events is None else [events])
    if events is not None:
        events.observers.append(engine)
    return metrics, engine


class TestThreshold:
    RULE = AlertRule(name="oops", kind=RuleKind.THRESHOLD,
                     metric="oracle_violations_total", value=0.0,
                     severity="critical")

    def test_fires_when_crossed_sums_family(self):
        metrics, eng = make_engine([self.RULE])
        assert eng.evaluate(1.0) == []
        metrics.counter("oracle_violations_total", invariant="I2").inc()
        metrics.counter("oracle_violations_total", invariant="I5").inc()
        (alert,) = eng.evaluate(2.0)
        assert alert.rule == "oops" and alert.value == 2.0
        assert alert.severity == "critical" and alert.subject == -1

    def test_edge_triggered_not_level(self):
        metrics, eng = make_engine([self.RULE])
        metrics.counter("oracle_violations_total").inc()
        assert len(eng.evaluate(1.0)) == 1
        assert eng.evaluate(2.0) == []          # still breached: no re-fire
        assert metrics.counter("alerts_fired_total",
                               rule="oops").value == 1

    def test_operators(self):
        rule = AlertRule(name="low", kind=RuleKind.THRESHOLD,
                         metric="g", op="<", value=5.0)
        metrics, eng = make_engine([rule])
        metrics.gauge("g").set(10.0)
        assert eng.evaluate(1.0) == []
        metrics.gauge("g").set(2.0)
        assert len(eng.evaluate(2.0)) == 1


class TestRate:
    RULE = AlertRule(name="spike", kind=RuleKind.RATE,
                     event_kinds=(EventKind.NET_DENY,), window=60.0,
                     value=2.0, per_subject=True)

    def test_per_subject_trailing_window(self):
        log = SecurityEventLog()
        _, eng = make_engine([self.RULE], events=log)
        for t in (1.0, 2.0, 3.0):
            log.emit(t, EventKind.NET_DENY, 1000, f"c{t}:1", "x")
        log.emit(3.0, EventKind.NET_DENY, 1001, "c9:1", "x")
        (alert,) = eng.evaluate(10.0)
        assert alert.subject == 1000 and alert.value == 3.0
        # the ALERT event landed in the sink log, attributed to the uid
        assert log.events[-1].kind is EventKind.ALERT
        assert log.events[-1].subject_uid == 1000

    def test_rearms_after_window_drains(self):
        log = SecurityEventLog()
        _, eng = make_engine([self.RULE], events=log)
        for t in (1.0, 2.0, 3.0):
            log.emit(t, EventKind.NET_DENY, 1000, "c1:1", "x")
        assert len(eng.evaluate(10.0)) == 1
        assert eng.evaluate(20.0) == []          # still in window: no re-fire
        assert eng.evaluate(100.0) == []         # drained: cleared, no fire
        for t in (101.0, 102.0, 103.0):
            log.emit(t, EventKind.NET_DENY, 1000, "c1:1", "x")
        assert len(eng.evaluate(110.0)) == 1     # re-armed

    def test_other_kinds_ignored(self):
        log = SecurityEventLog()
        _, eng = make_engine([self.RULE], events=log)
        for t in (1.0, 2.0, 3.0):
            log.emit(t, EventKind.ADMIN, 1000, "x", "x")
        assert eng.evaluate(10.0) == []


class TestAbsence:
    RULE = AlertRule(name="silent", kind=RuleKind.ABSENCE,
                     metric="node_heartbeats_total", window=100.0,
                     gate_metric="faults_active", gate_value=0.0)

    def test_no_alert_while_moving_or_ungated(self):
        metrics, eng = make_engine([self.RULE])
        hb = metrics.counter("node_heartbeats_total")
        hb.inc()
        assert eng.evaluate(0.0) == []           # baseline
        hb.inc()
        assert eng.evaluate(50.0) == []          # moved
        # stalled 150s but gate (faults_active) is 0: suppressed
        assert eng.evaluate(200.0) == []

    def test_fires_when_stalled_and_gated_on(self):
        metrics, eng = make_engine([self.RULE])
        metrics.counter("node_heartbeats_total").inc()
        eng.evaluate(0.0)
        metrics.gauge("faults_active").set(1.0)
        assert eng.evaluate(50.0) == []          # stalled < window
        (alert,) = eng.evaluate(150.0)
        assert alert.rule == "silent"
        # movement clears and re-arms
        metrics.counter("node_heartbeats_total").inc()
        assert eng.evaluate(160.0) == []
        assert eng.evaluate(300.0) != []


class TestArm:
    def test_arm_schedules_finite_ticks(self):
        sim = Engine()
        metrics, eng = make_engine(
            [TestThreshold.RULE], clock=lambda: sim.now)
        n = eng.arm(sim, interval=10.0, until=50.0)
        assert n == 5
        metrics.counter("oracle_violations_total").inc()
        sim.run()                                # heap drains (finite)
        assert sim.now == 50.0
        assert len(eng.alerts) == 1


class TestDefaultRules:
    def test_catalog(self):
        rules = {r.name: r for r in default_rules()}
        assert set(rules) == {"tenant-deny-spike", "oracle-violation",
                              "node-fenced", "heartbeat-absence",
                              "dispatch-stalled"}
        assert rules["oracle-violation"].severity == "critical"
        assert rules["tenant-deny-spike"].per_subject
        assert rules["heartbeat-absence"].gate_metric == "faults_active"

    def test_deny_spike_covers_all_deny_kinds(self):
        (spike,) = [r for r in default_rules()
                    if r.name == "tenant-deny-spike"]
        assert {k.value for k in spike.event_kinds} == {
            "net-deny", "pam-deny", "fs-deny", "proc-deny", "sched-deny",
            "gpu-deny", "portal-deny"}
