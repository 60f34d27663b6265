"""Property-based tests: engine ordering, metrics integrals, RNG."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sim import Engine, TimeWeighted, make_rng, poisson_arrivals

times = st.lists(st.floats(min_value=0.0, max_value=1e6,
                           allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=50)


@given(ts=times)
def test_events_fire_in_nondecreasing_order(ts):
    eng = Engine()
    fired = []
    for t in ts:
        eng.at(t, lambda t=t: fired.append(t))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(ts)
    assert eng.now == max(ts)


@given(ts=times, cut=st.integers(min_value=0, max_value=49))
def test_cancellation_removes_exactly_that_event(ts, cut):
    eng = Engine()
    fired = []
    events = [eng.at(t, lambda i=i: fired.append(i))
              for i, t in enumerate(ts)]
    victim = cut % len(events)
    eng.cancel(events[victim])
    eng.run()
    assert victim not in fired
    assert len(fired) == len(ts) - 1


engine_ops = st.lists(
    st.one_of(
        # schedule *count* events *delay* after now (ties are the point);
        # a spawning event schedules one more at its own time when it fires
        st.tuples(st.just("at"), st.integers(0, 3), st.integers(1, 20),
                  st.booleans()),
        # cancel *span* handles from the *start*-th one on (modulo the
        # handles issued): fired, cancelled or live alike
        st.tuples(st.just("cancel"), st.integers(0, 400),
                  st.integers(1, 60), st.just(False)),
        st.tuples(st.just("step"), st.just(0), st.just(0), st.just(False)),
        st.tuples(st.just("run"), st.integers(0, 3), st.just(0),
                  st.just(False)),
    ),
    max_size=60)


#: a cancel storm: 60 of 80 tied events cancelled, then a sweep
CANCEL_STORM = [("at", 1, 20, True)] * 4 + [("cancel", 10, 60, False),
                                            ("step", 0, 0, False),
                                            ("run", 3, 0, False)]


@given(ops=engine_ops)
@example(ops=CANCEL_STORM)
def test_ties_fire_in_insertion_order_and_pending_stays_exact(ops):
    """Against a model of the live events: every firing is the earliest
    (time, insertion) pair alive, a cancelled event never fires, and
    ``pending`` equals the model's count after every operation, through
    the tombstone compactions that cancel storms trigger."""
    eng = Engine()
    live: dict[int, float] = {}     # insertion index -> time
    handles = []
    fired: list[tuple[float, int]] = []

    def schedule(t, spawns):
        i = len(handles)

        def action():
            assert live.pop(i) == eng.now
            fired.append((eng.now, i))
            if spawns:
                schedule(eng.now, False)
        handles.append(eng.at(t, action))
        live[i] = t

    for op, a, b, spawns in ops:
        if op == "at":
            for _ in range(b):
                schedule(eng.now + a, spawns)
        elif op == "cancel":
            start = a % max(1, len(handles))
            for i in range(start, min(start + b, len(handles))):
                eng.cancel(handles[i])
                live.pop(i, None)
        elif op == "step":
            due = min(((t, i) for i, t in live.items()), default=None)
            assert eng.step() is (due is not None)
            if due is not None:
                assert fired[-1] == due
        else:
            until = eng.now + a
            eng.run(until=until)
            assert eng.now == until
            assert all(t > until for t in live.values())
        assert eng.pending == len(live)
    assert fired == sorted(fired)
    assert len(set(fired)) == len(fired)


segments = st.lists(
    st.tuples(st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
              st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
    min_size=1, max_size=30)


@given(segs=segments)
def test_time_weighted_integral_matches_manual_sum(segs):
    tw = TimeWeighted()
    t = 0.0
    manual = 0.0
    prev_v = 0.0
    for dt, v in segs:
        manual += prev_v * dt
        t += dt
        tw.set(t, v)
        prev_v = v
    horizon = t + 10.0
    manual += prev_v * 10.0
    assert np.isclose(tw.integral(horizon), manual, rtol=1e-9, atol=1e-6)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       rate=st.floats(min_value=0.01, max_value=5.0),
       horizon=st.floats(min_value=1.0, max_value=200.0))
def test_poisson_arrivals_sorted_and_bounded(seed, rate, horizon):
    t = poisson_arrivals(make_rng(seed), rate, horizon, start=3.0)
    assert np.all(np.diff(t) > 0)
    if t.size:
        assert t.min() >= 3.0
        assert t.max() < 3.0 + horizon
