"""Property: rate alerts over a kept window equal the half-open rescan.

Each RATE rule keeps only the matching events still inside its window
(:class:`~repro.obs.alerts.AlertEngine`).  Over random timelines of
security events and evaluations — in sim-clock order, ties in any order,
on a half-second grid so events land exactly on window edges — the alerts
it fires must equal those of the rule restated here: at each evaluation,
count every matching event recorded so far in ``[now - window, now)`` and
fire on the rising edge (per subject uid when the rule says so).
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.events import EventKind, SecurityEventLog
from repro.obs.alerts import AlertEngine, AlertRule, RuleKind
from repro.sim.metrics import MetricSet

RULES = (
    AlertRule(name="per-uid", kind=RuleKind.RATE,
              event_kinds=(EventKind.NET_DENY, EventKind.PAM_DENY),
              window=10.0, value=2.0, per_subject=True),
    AlertRule(name="total", kind=RuleKind.RATE,
              event_kinds=(EventKind.NET_DENY,), window=5.0, value=1.0),
)

STEP = st.tuples(
    st.integers(0, 80).map(lambda t: t / 2),
    st.one_of(st.tuples(st.just("event"),
                        st.sampled_from((EventKind.NET_DENY,
                                         EventKind.PAM_DENY,
                                         EventKind.ADMIN)),
                        st.integers(1000, 1002)),
              st.tuples(st.just("evaluate"))))


def half_open_scan(steps):
    """The rule restated: rescan every recorded event at each evaluation."""
    seen, active, fired = [], set(), []

    def edge(rule, now, subject, breached, n):
        key = (rule.name, subject)
        if breached and key not in active:
            active.add(key)
            fired.append((rule.name, now, subject, float(n)))
        elif not breached:
            active.discard(key)

    for now, step in steps:
        if step[0] == "event":
            seen.append((now, step[1], step[2]))
            continue
        for rule in RULES:
            window = [(t, uid) for t, kind, uid in seen
                      if kind in rule.event_kinds
                      and now - rule.window <= t < now]
            if rule.per_subject:
                counts = Counter(uid for _, uid in window)
                for uid, n in sorted(counts.items()):
                    edge(rule, now, uid, n > rule.value, n)
                for key in [k for k in active
                            if k[0] == rule.name and k[1] not in counts]:
                    active.discard(key)
            else:
                edge(rule, now, -1, len(window) > rule.value, len(window))
    return fired


@settings(max_examples=200)
@given(st.lists(STEP, max_size=60))
def test_rate_alerts_match_half_open_scan(steps):
    steps = sorted(steps, key=lambda s: s[0])  # sim-clock order
    log = SecurityEventLog()
    engine = AlertEngine(MetricSet(), rules=RULES)
    log.observers.append(engine)
    for now, step in steps:
        if step[0] == "event":
            log.emit(now, step[1], step[2], "target")
        else:
            engine.evaluate(now)
    assert [(a.rule, a.time, a.subject, a.value)
            for a in engine.alerts] == half_open_scan(steps)
