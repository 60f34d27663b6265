"""Counters, gauges, histograms and time-weighted series.

Benchmarks report utilization / wait-time / leak-count summaries; this module
gives the simulators a single place to record them.  ``TimeWeighted`` keeps
an exact time-integral of a piecewise-constant signal (e.g. busy cores), so
utilization numbers are not sampling artifacts.  Summary math is numpy-based
per the HPC guide (vectorise the analysis, not just the simulation).

Everything here is also the storage layer behind the observability spine
(:mod:`repro.obs`): metrics may carry **labels** (sorted ``(key, value)``
pairs, Prometheus-style), and :class:`MetricSet` registers counters, gauges,
fixed-bucket histograms and sample sets under ``(name, labels)`` keys so the
exporters can walk them without knowing who recorded what.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

#: Sorted (key, value) pairs identifying one labeled series of a family.
LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing named count."""

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, by: int = 1) -> None:
        self.value += by

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({_render_key(self.name, self.labels)}={self.value})"


class Gauge:
    """A value that can go up and down (queue depth, live sessions)."""

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def inc(self, by: float = 1.0) -> None:
        self.value += by

    def __repr__(self) -> str:  # pragma: no cover
        return f"Gauge({_render_key(self.name, self.labels)}={self.value})"


#: Default histogram buckets, in (virtual) seconds: spans sub-millisecond
#: enforcement decisions up to day-scale queue waits.
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0, 3600.0, 86400.0)


class Histogram:
    """Fixed-bucket histogram (Prometheus semantics: ``le`` upper bounds).

    ``observe(v)`` is O(log buckets); bucket boundaries are immutable after
    construction so concurrent series of one family stay comparable.
    """

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                 labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(float(b) for b in buckets))
        #: per-bucket (non-cumulative) counts; last slot is the +Inf overflow
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, v: float) -> None:
        v = float(v)
        self.counts[bisect.bisect_left(self.buckets, v)] += 1
        self.sum += v
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending with +Inf."""
        out, running = [], 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Histogram({_render_key(self.name, self.labels)} "
                f"n={self.count} sum={self.sum})")


class TimeWeighted:
    """Time-integral of a piecewise-constant signal.

    ``set(t, v)`` records that the signal took value *v* from time *t*
    onwards; ``integral(t_end)`` returns ∫ signal dt over [t0, t_end], and
    ``mean(t_end)`` the time-average.
    """

    def __init__(self, t0: float = 0.0, v0: float = 0.0):
        self._last_t = t0
        self._t0 = t0
        self._value = v0
        self._area = 0.0

    @property
    def current(self) -> float:
        return self._value

    def set(self, t: float, v: float) -> None:
        if t < self._last_t:
            raise ValueError("time went backwards")
        self._area += self._value * (t - self._last_t)
        self._last_t = t
        self._value = v

    def add(self, t: float, dv: float) -> None:
        self.set(t, self._value + dv)

    def integral(self, t_end: float) -> float:
        return self._area + self._value * (t_end - self._last_t)

    def mean(self, t_end: float) -> float:
        span = t_end - self._t0
        return self.integral(t_end) / span if span > 0 else 0.0


@dataclass
class Samples:
    """Accumulates scalar observations (wait times, latencies)."""

    name: str
    values: list[float] = field(default_factory=list)

    def add(self, v: float) -> None:
        self.values.append(float(v))

    def asarray(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def summary(self) -> dict[str, float]:
        if not self.values:
            return {"n": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}
        a = self.asarray()
        p50, p95, p99 = np.percentile(a, (50, 95, 99))
        return {
            "n": int(a.size),
            "mean": float(a.mean()),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
            "max": float(a.max()),
        }


def _resolve(store: dict, memo: dict, make, call: object, name: str,
             labels: dict[str, object]):
    """The series of *store* that *name* and *labels* address, registered
    now if this is its first call, and remembered in *memo* under *call*
    when every label value is a ``str``."""
    key = (name, _labelset(labels) if labels else ())
    series = store.get(key)
    if series is None:
        series = store[key] = make(name, key[1])
    if all(type(v) is str for v in labels.values()):
        memo[call] = series
    return series


class MetricSet:
    """Named registry of counters/gauges/histograms/samples for one run.

    Families are addressed by name; a family may carry any number of labeled
    series (``counter("ubf_verdicts_total", verdict="drop", reason=...)``).
    Unlabeled access keeps the original single-series behaviour, so the
    pre-observability call sites are untouched.

    A series registers at its first ``counter()``/``gauge()`` call, and the
    memo below adds no series that call sites did not already ask for.
    Each call remembers what it resolved to, keyed by ``name`` alone or by
    ``(name, labels in the caller's order)``, so a repeated call is one
    dictionary lookup instead of sorting and stringifying its labels.
    Only calls whose label values are all ``str`` are remembered: values
    that compare equal but render differently (``1``, ``1.0``, ``True``)
    must not share an entry.
    """

    def __init__(self):
        self._counters: dict[tuple[str, LabelSet], Counter] = {}
        self._gauges: dict[tuple[str, LabelSet], Gauge] = {}
        self._histograms: dict[tuple[str, LabelSet], Histogram] = {}
        self._samples: dict[str, Samples] = {}
        #: resolved series by call key, one memo per kind
        self._counter_memo: dict[object, Counter] = {}
        self._gauge_memo: dict[object, Gauge] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        call = (name, tuple(labels.items())) if labels else name
        c = self._counter_memo.get(call)
        if c is None:
            c = _resolve(self._counters, self._counter_memo, Counter,
                         call, name, labels)
        return c

    def gauge(self, name: str, **labels: object) -> Gauge:
        call = (name, tuple(labels.items())) if labels else name
        g = self._gauge_memo.get(call)
        if g is None:
            g = _resolve(self._gauges, self._gauge_memo, Gauge,
                         call, name, labels)
        return g

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None,
                  **labels: object) -> Histogram:
        key = (name, _labelset(labels) if labels else ())
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS,
                key[1])
        return h

    def samples(self, name: str) -> Samples:
        if name not in self._samples:
            self._samples[name] = Samples(name)
        return self._samples[name]

    # -- walking (exporters, dashboards) ----------------------------------

    def all_counters(self) -> list[Counter]:
        return list(self._counters.values())

    def all_gauges(self) -> list[Gauge]:
        return list(self._gauges.values())

    def all_histograms(self) -> list[Histogram]:
        return list(self._histograms.values())

    def all_samples(self) -> list[Samples]:
        return list(self._samples.values())

    def family(self, name: str) -> list[Counter | Gauge | Histogram]:
        """Every labeled series registered under *name*."""
        out: list[Counter | Gauge | Histogram] = []
        for store in (self._counters, self._gauges, self._histograms):
            out.extend(m for (n, _), m in store.items() if n == name)
        return out

    def report(self) -> dict[str, object]:
        out: dict[str, object] = {
            _render_key(c.name, c.labels): c.value
            for c in self._counters.values()}
        for g in self._gauges.values():
            out[_render_key(g.name, g.labels)] = g.value
        for h in self._histograms.values():
            out[_render_key(h.name, h.labels)] = {
                "n": h.count, "sum": h.sum, "mean": h.mean}
        for s in self._samples.values():
            out[s.name] = s.summary()
        return out
