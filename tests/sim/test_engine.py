"""Unit tests: discrete-event engine, metrics, RNG helpers."""

import numpy as np
import pytest

from repro.sim import Engine, MetricSet, Samples, TimeWeighted, make_rng, poisson_arrivals, spawn


class TestEngine:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []
        eng.at(5.0, lambda: order.append("b"))
        eng.at(1.0, lambda: order.append("a"))
        eng.at(9.0, lambda: order.append("c"))
        eng.run()
        assert order == ["a", "b", "c"]
        assert eng.now == 9.0

    def test_ties_fire_in_insertion_order(self):
        eng = Engine()
        order = []
        for tag in "abc":
            eng.at(1.0, lambda t=tag: order.append(t))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_after_is_relative(self):
        eng = Engine()
        times = []
        eng.at(2.0, lambda: eng.after(3.0, lambda: times.append(eng.now)))
        eng.run()
        assert times == [5.0]

    def test_run_until_stops_clock(self):
        eng = Engine()
        fired = []
        eng.at(10.0, lambda: fired.append(1))
        assert eng.run(until=4.0) == 4.0
        assert not fired
        eng.run()
        assert fired

    def test_cancel(self):
        eng = Engine()
        fired = []
        ev = eng.at(1.0, lambda: fired.append(1))
        eng.cancel(ev)
        eng.run()
        assert not fired

    def test_cannot_schedule_in_past(self):
        eng = Engine()
        eng.at(5.0, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.at(1.0, lambda: None)
        with pytest.raises(ValueError):
            eng.after(-1.0, lambda: None)

    def test_step(self):
        eng = Engine()
        eng.at(1.0, lambda: None)
        assert eng.step()
        assert not eng.step()

    def test_events_scheduled_during_run(self):
        eng = Engine()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                eng.after(1.0, lambda: chain(n + 1))

        eng.at(0.0, lambda: chain(0))
        eng.run()
        assert seen == [0, 1, 2, 3]
        assert eng.now == 3.0


class TestTimeWeighted:
    def test_integral_piecewise(self):
        tw = TimeWeighted()
        tw.set(0.0, 2.0)
        tw.set(5.0, 4.0)
        assert tw.integral(10.0) == pytest.approx(2 * 5 + 4 * 5)

    def test_mean(self):
        tw = TimeWeighted()
        tw.set(0.0, 1.0)
        tw.set(5.0, 0.0)
        assert tw.mean(10.0) == pytest.approx(0.5)

    def test_add_delta(self):
        tw = TimeWeighted()
        tw.add(0.0, 3.0)
        tw.add(2.0, -1.0)
        assert tw.current == 2.0
        assert tw.integral(4.0) == pytest.approx(3 * 2 + 2 * 2)

    def test_time_backwards_rejected(self):
        tw = TimeWeighted()
        tw.set(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.set(4.0, 2.0)


class TestMetrics:
    def test_counter_registry(self):
        m = MetricSet()
        m.counter("x").inc()
        m.counter("x").inc(2)
        assert m.report()["x"] == 3

    def test_labelled_series_found_whatever_the_label_order(self):
        m = MetricSet()
        c = m.counter("x", a="1", b=2)
        assert m.counter("x", b="2", a=1) is c
        assert m.gauge("g", a="1", b="2") is m.gauge("g", b="2", a="1")
        # equal values that render differently stay separate series
        assert m.counter("x", a=True, b="2").labels == (
            ("a", "True"), ("b", "2"))
        assert m.counter("x", a="1", b="2") is c

    def test_series_registers_once_at_its_first_call(self):
        m = MetricSet()
        assert m.report() == {}
        for _ in range(3):
            m.counter("hits", reason="lru").inc()
            m.gauge("depth").set(4)
        assert m.report() == {'hits{reason="lru"}': 3, "depth": 4.0}
        assert len(m.all_counters()) == len(m.all_gauges()) == 1

    def test_repeated_labelled_call_skips_labelset(self, monkeypatch):
        import repro.sim.metrics as metrics

        calls = []
        real = metrics._labelset

        def counting(labels):
            calls.append(labels)
            return real(labels)

        monkeypatch.setattr(metrics, "_labelset", counting)
        m = MetricSet()
        for _ in range(3):
            m.counter("verdicts", verdict="drop", reason="rule").inc()
            m.gauge("size", table="conntrack").set(1)
        assert len(calls) == 2  # one per series, at its first call
        assert m.counter("verdicts", verdict="drop",
                         reason="rule").value == 3

    def test_samples_summary(self):
        s = Samples("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            s.add(v)
        r = s.summary()
        assert r["n"] == 4
        assert r["mean"] == pytest.approx(2.5)
        assert r["max"] == 4.0

    def test_empty_samples(self):
        assert Samples("x").summary()["n"] == 0


class TestRng:
    def test_determinism(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_spawn_independence(self):
        kids = spawn(make_rng(1), 3)
        draws = [k.random(4) for k in kids]
        assert not np.array_equal(draws[0], draws[1])

    def test_poisson_arrivals_in_window(self):
        t = poisson_arrivals(make_rng(7), rate=2.0, horizon=100.0, start=10.0)
        assert t.size > 100  # ~200 expected
        assert t.min() >= 10.0 and t.max() < 110.0
        assert np.all(np.diff(t) > 0)

    def test_zero_rate(self):
        assert poisson_arrivals(make_rng(1), 0.0, 10.0).size == 0
