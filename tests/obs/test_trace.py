"""Unit tests: span lifecycle, deterministic IDs, parent/child structure."""

import pytest

from repro.obs import Tracer


def make_tracer(t=None):
    state = {"now": 0.0}
    tracer = Tracer(clock=lambda: state["now"])
    return tracer, state


class TestSpanLifecycle:
    def test_ids_are_deterministic(self):
        tracer, _ = make_tracer()
        a = tracer.start_span("first")
        b = tracer.start_span("second")
        assert (a.trace_id, a.span_id) == ("t000001", "s000001")
        assert (b.trace_id, b.span_id) == ("t000002", "s000002")

    def test_child_shares_trace_and_points_at_parent(self):
        tracer, _ = make_tracer()
        root = tracer.start_span("job")
        child = tracer.start_span("sched.queue", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert root.parent_id is None

    def test_duration_uses_clock(self):
        tracer, state = make_tracer()
        span = tracer.start_span("work")
        state["now"] = 12.5
        tracer.finish(span)
        assert span.finished
        assert span.duration == pytest.approx(12.5)

    def test_unfinished_span_has_zero_duration(self):
        tracer, _ = make_tracer()
        span = tracer.start_span("open")
        assert not span.finished
        assert span.duration == 0.0

    def test_tags_from_start_finish_and_set_tag(self):
        tracer, _ = make_tracer()
        span = tracer.start_span("job", job_id=7)
        span.set_tag("user", "alice")
        tracer.finish(span, state="completed")
        assert span.tags == {"job_id": 7, "user": "alice",
                             "state": "completed"}


class TestContextManager:
    def test_span_context_finishes(self):
        tracer, state = make_tracer()
        with tracer.span("step") as s:
            state["now"] = 3.0
        assert s.finished and s.duration == pytest.approx(3.0)

    def test_span_context_records_error_and_reraises(self):
        tracer, _ = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.finished_spans()
        assert span.tags["error"] == "ValueError"


class TestQueries:
    def test_finished_spans_excludes_open(self):
        tracer, _ = make_tracer()
        done = tracer.start_span("a")
        tracer.finish(done)
        tracer.start_span("still-open")
        assert [s.name for s in tracer.finished_spans()] == ["a"]

    def test_by_name_and_trace(self):
        tracer, _ = make_tracer()
        root = tracer.start_span("job")
        tracer.finish(tracer.start_span("sched.queue", parent=root))
        tracer.finish(root)
        other = tracer.start_span("job")
        tracer.finish(other)
        assert len(tracer.by_name("job")) == 2
        assert {s.span_id for s in tracer.trace(root.trace_id)} == \
            {root.span_id, tracer.spans[1].span_id}
        assert set(tracer.traces()) == {root.trace_id, other.trace_id}

    def test_to_dict_is_json_stable(self):
        tracer, _ = make_tracer()
        span = tracer.start_span("x", k="v")
        tracer.finish(span)
        d = span.to_dict()
        assert list(d)[:3] == ["trace_id", "span_id", "parent_id"]
        assert d["tags"] == {"k": "v"}

    def test_open_span_to_dict_carries_open_flag(self):
        tracer, _ = make_tracer()
        span = tracer.start_span("inflight")
        assert span.to_dict()["open"] is True
        tracer.finish(span)
        assert "open" not in span.to_dict()


class TestRetention:
    def test_default_is_unbounded(self):
        tracer, _ = make_tracer()
        for i in range(100):
            tracer.finish(tracer.start_span(f"s{i}"))
        assert len(tracer.spans) == 100
