"""Property: the per-decision fan-out calls exactly the observers that
override a decision, in subscription order.

A random program interleaves subscriptions and decisions.  Its observers
are instances of random :class:`~repro.observer.Observer` subclasses,
each overriding a random subset of the vocabulary by a method, by an
alias (``job_requeued = job_arrived``) or, per instance, by an instance
attribute; every override records its call.  Each decision goes through
an :class:`~repro.observer.Observers` container and through the reference
loop ``for o in planes: getattr(o, name)(...)``, which also calls every
no-op: both must record the same calls, and the container's tuple must
hold nothing but overriders.
"""

from __future__ import annotations

import inspect

from hypothesis import given
from hypothesis import strategies as st

from repro.gpu.device import GPUDevice
from repro.kernel.pam import PamStack
from repro.monitor.events import SecurityEventLog
from repro.obs.alerts import AlertEngine
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer
from repro.observer import DECISIONS, Observer, Observers
from repro.oracle.oracle import SeparationOracle
from repro.sim.metrics import MetricSet

#: decision -> how many positional arguments its no-op requires
ARITY = {name: sum(1 for p in inspect.signature(
    getattr(Observer, name)).parameters.values()
    if p.default is p.empty) - 1 for name in DECISIONS}


def recorder(name: str):
    def method(self, *args, **kwargs):
        self.log.append((self.tag, name, args))
    return method


@st.composite
def kinds(draw, vocab):
    """One random Observer subclass: methods, then aliases of them."""
    methods = draw(st.sets(vocab))
    ns = {name: recorder(name) for name in methods}
    if methods:
        aliases = draw(st.dictionaries(vocab, st.sampled_from(
            sorted(methods)), max_size=2))
        for alias, target in aliases.items():
            ns[alias] = ns[target]
    return type("Plane", (Observer,), ns)


@st.composite
def programs(draw):
    """Observer classes, per-instance overrides and an interleaving of
    subscriptions (an index into the observers) with decisions, all over
    a few decision names so that overrides collide."""
    vocab = st.sampled_from(draw(st.lists(st.sampled_from(DECISIONS),
                                          min_size=1, max_size=4,
                                          unique=True)))
    classes = draw(st.lists(kinds(vocab), min_size=1, max_size=4))
    n = draw(st.integers(1, 6))
    planes = [(draw(st.integers(0, len(classes) - 1)),
               draw(st.sets(vocab, max_size=2))) for _ in range(n)]
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("subscribe"), st.integers(0, n - 1)),
        st.tuples(st.just("decide"), vocab)), max_size=30))
    return classes, planes, steps


def build(classes, planes, log):
    observers = []
    for tag, (kind, own) in enumerate(planes):
        o = classes[kind]()
        o.tag, o.log = tag, log
        for name in own:
            setattr(o, name, recorder(f"own:{name}").__get__(o))
        observers.append(o)
    return observers


@given(programs())
def test_fanout_reaches_exactly_the_overriders_in_order(program):
    classes, planes, steps = program
    fast_log, ref_log = [], []
    fast_planes = build(classes, planes, fast_log)
    ref_planes = build(classes, planes, ref_log)
    fans, ref = Observers(), []
    for i, (op, arg) in enumerate(steps):
        if op == "subscribe":
            fans.append(fast_planes[arg])
            ref.append(ref_planes[arg])
            continue
        args = tuple(range(i, i + ARITY[arg]))
        before = len(fast_log)
        bound = getattr(fans, arg)
        for f in bound:
            f(*args)
        for o in ref:
            getattr(o, arg)(*args)
        assert fast_log == ref_log
        assert len(bound) == len(fast_log) - before
    assert list(fans) == [fast_planes[a] for op, a in steps
                          if op == "subscribe"]


class Sink(Observer):
    def observe_event(self, event):
        pass


class TestConstructors:
    """Every constructor that takes ``observers`` accepts a plain list,
    and shares an :class:`Observers` it is given by reference."""

    def test_plain_lists_become_containers(self):
        sink = Sink()
        for point in (SeparationOracle(observers=[sink]),
                      AlertEngine(MetricSet(), observers=[sink]),
                      SecurityEventLog(observers=[sink]),
                      Telemetry(MetricSet(), Tracer(), observers=[sink]),
                      PamStack(observers=[sink]),
                      GPUDevice(index=0, observers=[sink])):
            assert isinstance(point.observers, Observers)
            assert list(point.observers) == [sink]
            assert point.observers.observe_event == (sink.observe_event,)
            assert point.observers.span_started == ()

    def test_a_container_is_shared(self):
        shared = Observers()
        log = SecurityEventLog(observers=shared)
        oracle = SeparationOracle(observers=shared)
        assert log.observers is shared and oracle.observers is shared
        sink = Sink()
        shared.append(sink)
        assert oracle.observers.observe_event == (sink.observe_event,)
