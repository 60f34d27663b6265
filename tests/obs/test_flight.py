"""Tests: flight recorder — bounded rings, automatic incident dumps, span
windows with open spans, and dump serialisation."""

import json

import pytest

from repro.monitor.events import EventKind, SecurityEvent, SecurityEventLog
from repro.obs.flight import FLIGHT_SCHEMA_VERSION, FlightRecorder
from repro.obs.trace import Tracer
from repro.sim.metrics import MetricSet


def ev(t, kind=EventKind.NET_DENY, uid=1000, target="c1:80", detail="x",
       node=None):
    return SecurityEvent(t, kind, uid, target, detail, node=node)


class TestRings:
    def test_capacity_bounds_global_and_node_rings(self):
        fr = FlightRecorder(capacity=3)
        for i in range(10):
            fr.observe_event(ev(float(i), node="c1"))
        dump = fr.snapshot("manual", node="c1")
        assert len(dump.events) == 3
        assert [e["time"] for e in dump.events] == [7.0, 8.0, 9.0]
        assert len(dump.node_events) == 3

    def test_node_windows_are_separate(self):
        fr = FlightRecorder(capacity=8)
        fr.observe_event(ev(1.0, node="c1"))
        fr.observe_event(ev(2.0, node="c2"))
        assert [e.time for e in fr.node_window("c1")] == [1.0]
        assert [e.time for e in fr.node_window("c2")] == [2.0]
        assert fr.node_window("c3") == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestTriggers:
    def test_oracle_event_triggers_dump(self):
        metrics = MetricSet()
        fr = FlightRecorder(capacity=4, metrics=metrics)
        fr.observe_event(ev(1.0))
        fr.observe_event(ev(2.0, kind=EventKind.ORACLE, uid=1000,
                            target="ubf:c1", detail="[I2] bad", node="c1"))
        (dump,) = fr.dumps
        assert dump.trigger == "oracle-violation" and dump.node == "c1"
        # the triggering event is the last entry of its own window
        assert dump.events[-1]["kind"] == "oracle-violation"
        assert metrics.counter("flight_dumps_total",
                               trigger="oracle-violation").value == 1

    def test_fence_event_triggers_dump(self):
        fr = FlightRecorder()
        fr.observe_event(ev(3.0, kind=EventKind.NODE_LIFECYCLE, uid=-1,
                            target="c2", node="c2",
                            detail="fenced: 2 running job(s) lost"))
        (dump,) = fr.dumps
        assert dump.trigger == "node-fenced" and dump.node == "c2"

    def test_other_lifecycle_events_do_not_trigger(self):
        fr = FlightRecorder()
        for detail in ("remediated: processes_reaped=1",
                       "fenced with residue: jobs=[1]",
                       "suspect: 1 missed heartbeat(s)"):
            fr.observe_event(ev(1.0, kind=EventKind.NODE_LIFECYCLE,
                                uid=-1, target="c1", detail=detail,
                                node="c1"))
        assert fr.dumps == []

    def test_fault_hook_triggers_dump(self):
        from repro.faults.injector import FaultInjector, FaultKind
        metrics = MetricSet()
        injector = FaultInjector(metrics)
        fr = FlightRecorder(faults=injector, metrics=metrics)
        injector.observers.append(fr)
        injector.inject(FaultKind.IDENTD_UNRESPONSIVE, "c1")
        (dump,) = fr.dumps
        assert dump.trigger == "fault-injected" and dump.node == "c1"
        # the fault is active at snapshot time, so it appears in the dump
        assert dump.faults and dump.faults[0]["host"] == "c1"


class TestSpanWindow:
    def test_spans_from_tracer_tail_include_open(self):
        tracer = Tracer()
        fr = FlightRecorder(capacity=16)
        done = tracer.start_span("a")
        fr.span_started(done)
        tracer.finish(done)
        fr.span_started(tracer.start_span("b"))  # left open
        dump = fr.snapshot()
        assert [s["name"] for s in dump.spans] == ["a", "b"]
        assert "open" not in dump.spans[0]
        assert dump.spans[1]["open"] is True

    def test_span_window_respects_capacity(self):
        tracer = Tracer()
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            span = tracer.start_span(f"s{i}")
            fr.span_started(span)
            tracer.finish(span)
        dump = fr.snapshot()
        assert [s["name"] for s in dump.spans] == ["s6", "s7", "s8", "s9"]


class TestDumpShape:
    def test_write_and_schema(self, tmp_path):
        fr = FlightRecorder()
        fr.observe_event(ev(1.0, node="c1"))
        dump = fr.snapshot("manual", node="c1", detail="operator request")
        path = tmp_path / "dump.json"
        dump.write(str(path))
        d = json.loads(path.read_text())
        assert d["type"] == "flight-dump"
        assert d["v"] == FLIGHT_SCHEMA_VERSION
        assert d["dump_id"] == "fd000001"
        assert set(d) == {"type", "v", "dump_id", "time", "trigger",
                          "node", "detail", "events", "node_events",
                          "spans", "faults", "gpus"}

    def test_dumps_for_filters_by_trigger(self):
        fr = FlightRecorder()
        fr.snapshot("manual")
        fr.observe_event(ev(1.0, kind=EventKind.ORACLE, target="x"))
        assert len(fr.dumps_for("manual")) == 1
        assert len(fr.dumps_for("oracle-violation")) == 1

    def test_event_log_subscription_integration(self):
        log = SecurityEventLog()
        fr = FlightRecorder()
        log.observers.append(fr)
        log.emit(1.0, EventKind.ORACLE, 1000, "ubf:c1", "[I2] breach",
                 node="c1")
        assert len(fr.dumps) == 1
