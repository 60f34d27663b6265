"""Declarative alerting over the metric set and the security event stream.

The paper's separation story is only operational if someone *notices* when
it bends: a tenant suddenly accumulating denials, a node going silent, the
oracle reporting an invariant breach.  This module is the small rule
engine that turns those conditions into first-class ``ALERT`` events on
the simulation clock — declarative :class:`AlertRule` definitions, an
:class:`AlertEngine` that evaluates them, and :func:`default_rules`
encoding the handful every run should watch.

Three rule kinds (:class:`RuleKind`):

* **THRESHOLD** — a metric family's summed value crosses a comparison
  (``oracle_violations_total > 0``).
* **RATE** — more than *value* matching security events in the trailing
  half-open ``[now - window, now)`` of virtual seconds, optionally per
  subject uid (the per-tenant deny-spike rule).  Each rule keeps only the
  matching events still inside its window, so an evaluation costs the
  window, not the run's history.
* **ABSENCE** — a metric family stops changing for ``window`` seconds
  while an optional gate metric says it *should* be moving (heartbeats
  absent while faults are active).

Firing is edge-triggered: a rule emits one alert when its condition
becomes true and re-arms only after the condition clears, so a persistent
breach produces one record, not one per evaluation tick.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.monitor.events import EventKind, SecurityEvent
from repro.observer import Observer, as_observers

#: Every denial kind the per-tenant spike rule counts.
DENY_KINDS = (
    EventKind.NET_DENY, EventKind.PAM_DENY, EventKind.FS_DENY,
    EventKind.PROC_DENY, EventKind.SCHED_DENY, EventKind.GPU_DENY,
    EventKind.PORTAL_DENY,
)

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}


class RuleKind(enum.Enum):
    """The three alert-rule shapes the engine evaluates."""

    THRESHOLD = "threshold"
    RATE = "rate"
    ABSENCE = "absence"


@dataclass(frozen=True)
class AlertRule:
    """One declarative alerting condition.

    ``metric`` names a family (all labeled series are summed) for
    THRESHOLD and ABSENCE rules; ``event_kinds``/``per_subject`` drive
    RATE rules; ``gate_metric``/``gate_value`` suppress an ABSENCE rule
    unless the gate family's sum exceeds the gate value (quiet systems
    legitimately stop moving — only alert when something says they
    shouldn't have).
    """

    name: str
    kind: RuleKind
    metric: str | None = None
    op: str = ">"
    value: float = 0.0
    event_kinds: tuple[EventKind, ...] = ()
    window: float = 60.0
    per_subject: bool = False
    gate_metric: str | None = None
    gate_value: float = 0.0
    severity: str = "warning"
    description: str = ""


@dataclass(frozen=True)
class Alert:
    """One rule firing: which rule, when, for whom, at what value."""

    rule: str
    time: float
    subject: int          # uid for per-subject rules, -1 otherwise
    value: float
    severity: str
    detail: str


class AlertEngine(Observer):
    """Evaluates a rule set against live metrics and the event stream.

    ``evaluate`` is meant to run periodically on the sim clock
    (:meth:`arm` schedules that); each call checks every rule and fires
    edge-triggered :class:`Alert` records.  Fired alerts are appended to
    ``alerts``, counted in ``alerts_fired_total{rule=...}``, and reported
    to ``observers`` (:meth:`~repro.observer.Observer.alert_fired`) — a
    cluster's security-event log records each as an ``ALERT`` event, so
    they land in the same audit trail and flight recorder as the denials
    that caused them.

    Events reach the RATE rules through :meth:`observe_event`, as one of a
    log's ``observers``.  Events and evaluations arrive in sim-clock
    order, which is what lets each rule drop an event for good once it
    leaves the window.
    """

    def __init__(self, metrics, *,
                 clock: Callable[[], float] | None = None,
                 rules: tuple[AlertRule, ...] = (), observers=None):
        self.metrics = metrics
        self.clock: Callable[[], float] = clock if clock is not None \
            else (lambda: 0.0)
        self.rules: list[AlertRule] = []
        #: told of every firing (a cluster's engine shares its planes)
        self.observers = as_observers(observers)
        self.alerts: list[Alert] = []
        #: (rule name, subject) pairs currently in breach (edge trigger)
        self._active: set[tuple[str, int]] = set()
        #: ABSENCE bookkeeping: rule name → (last value, last change time)
        self._absence: dict[str, tuple[float, float]] = {}
        #: RATE rule → its matching events not yet out of the window
        self._windows: dict[AlertRule, deque[SecurityEvent]] = {}
        for rule in rules:
            self.add_rule(rule)

    def add_rule(self, rule: AlertRule) -> None:
        """Append *rule* to the evaluated set (a RATE rule counts the
        events observed from now on)."""
        self.rules.append(rule)
        if rule.kind is RuleKind.RATE:
            self._windows.setdefault(rule, deque())

    def observe_event(self, event: SecurityEvent) -> None:
        """Keep *event* for every RATE rule whose kinds it matches."""
        for rule, window in self._windows.items():
            if event.kind in rule.event_kinds:
                window.append(event)

    def _family_sum(self, family: str) -> float:
        return float(sum(m.value for m in self.metrics.family(family)))

    def _fire(self, rule: AlertRule, now: float, subject: int,
              value: float, detail: str) -> None:
        alert = Alert(rule=rule.name, time=now, subject=subject,
                      value=value, severity=rule.severity, detail=detail)
        self.alerts.append(alert)
        self.metrics.counter("alerts_fired_total", rule=rule.name).inc()
        for f in self.observers.alert_fired:
            f(alert)

    def _edge(self, rule: AlertRule, now: float, subject: int,
              breached: bool, value: float, detail: str) -> None:
        key = (rule.name, subject)
        if breached and key not in self._active:
            self._active.add(key)
            self._fire(rule, now, subject, value, detail)
        elif not breached:
            self._active.discard(key)

    # -- rule kinds ---------------------------------------------------------

    def _eval_threshold(self, rule: AlertRule, now: float) -> None:
        total = self._family_sum(rule.metric)
        breached = _OPS[rule.op](total, rule.value)
        self._edge(rule, now, -1, breached, total,
                   f"{rule.metric}={total:g} {rule.op} {rule.value:g}")

    def _eval_rate(self, rule: AlertRule, now: float) -> None:
        kept = self._windows[rule]
        start = now - rule.window
        while kept and kept[0].time < start:
            kept.popleft()
        # half-open: events stamped `now` wait for a later evaluation
        window = [e for e in kept if e.time < now]
        if rule.per_subject:
            counts: dict[int, int] = {}
            for e in window:
                counts[e.subject_uid] = counts.get(e.subject_uid, 0) + 1
            seen = set(counts)
            for uid, n in sorted(counts.items()):
                self._edge(rule, now, uid, n > rule.value, float(n),
                           f"{n} matching events in {rule.window:g}s "
                           f"for uid {uid}")
            # clear subjects that dropped out of the window entirely
            for key in [k for k in self._active
                        if k[0] == rule.name and k[1] not in seen]:
                self._active.discard(key)
        else:
            n = len(window)
            self._edge(rule, now, -1, n > rule.value, float(n),
                       f"{n} matching events in {rule.window:g}s")

    def _eval_absence(self, rule: AlertRule, now: float) -> None:
        total = self._family_sum(rule.metric)
        prev = self._absence.get(rule.name)
        if prev is None or prev[0] != total:
            # first sight or movement: (re)baseline, no alert
            self._absence[rule.name] = (total, now)
            self._edge(rule, now, -1, False, total, "")
            return
        stalled_for = now - prev[1]
        gated_on = True
        if rule.gate_metric is not None:
            gated_on = self._family_sum(rule.gate_metric) > rule.gate_value
        breached = stalled_for >= rule.window and gated_on
        self._edge(rule, now, -1, breached, total,
                   f"{rule.metric} unchanged ({total:g}) for "
                   f"{stalled_for:g}s")

    # -- driving ------------------------------------------------------------

    def evaluate(self, now: float | None = None) -> list[Alert]:
        """Evaluate every rule once; returns alerts fired by this call."""
        if now is None:
            now = self.clock()
        before = len(self.alerts)
        for rule in self.rules:
            if rule.kind is RuleKind.THRESHOLD:
                self._eval_threshold(rule, now)
            elif rule.kind is RuleKind.RATE:
                self._eval_rate(rule, now)
            else:
                self._eval_absence(rule, now)
        return self.alerts[before:]

    def arm(self, engine, interval: float, until: float) -> int:
        """Schedule periodic evaluation on sim *engine* every *interval*
        virtual seconds up to *until* (finite — the armed ticks must not
        keep the event heap alive forever).  Returns the tick count."""
        n = 0
        t = engine.now + interval
        while t <= until:
            engine.at(t, lambda t=t: self.evaluate(t))
            t += interval
            n += 1
        return n

    def fired(self, rule_name: str) -> list[Alert]:
        """All alerts fired by one rule, in firing order."""
        return [a for a in self.alerts if a.rule == rule_name]


def default_rules() -> tuple[AlertRule, ...]:
    """The standing rule set every forensics-armed cluster watches.

    * ``tenant-deny-spike`` — any single uid with > 10 denials (all seven
      deny kinds) inside a trailing 60 virtual seconds: the probe signal.
    * ``oracle-violation`` — ``oracle_violations_total`` above zero: the
      enforcement code itself failed; severity critical.
    * ``node-fenced`` — any fencing recorded: capacity and residue risk.
    * ``heartbeat-absence`` — heartbeats stopped for 120 s while faults
      are active (the gate keeps the dormant all-UP monitor from paging).
    * ``dispatch-stalled`` — ``jobs_started`` frozen for 600 s while the
      queue is non-empty: scheduler wedged, not merely idle.
    """
    return (
        AlertRule(name="tenant-deny-spike", kind=RuleKind.RATE,
                  event_kinds=DENY_KINDS, window=60.0, value=10.0,
                  per_subject=True, severity="warning",
                  description="per-tenant denial spike (probe signal)"),
        AlertRule(name="oracle-violation", kind=RuleKind.THRESHOLD,
                  metric="oracle_violations_total", op=">", value=0.0,
                  severity="critical",
                  description="separation invariant violated"),
        AlertRule(name="node-fenced", kind=RuleKind.THRESHOLD,
                  metric="node_fencings_total", op=">", value=0.0,
                  severity="warning",
                  description="a node was fenced with jobs lost"),
        AlertRule(name="heartbeat-absence", kind=RuleKind.ABSENCE,
                  metric="node_heartbeats_total", window=120.0,
                  gate_metric="faults_active", gate_value=0.0,
                  severity="critical",
                  description="heartbeats stopped while faults active"),
        AlertRule(name="dispatch-stalled", kind=RuleKind.ABSENCE,
                  metric="jobs_started", window=600.0,
                  gate_metric="sched_queue_depth", gate_value=0.0,
                  severity="warning",
                  description="queue non-empty but nothing dispatching"),
    )
