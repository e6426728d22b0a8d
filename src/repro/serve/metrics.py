"""Observability core: counters, gauges, and latency histograms.

The serving layer records every request — per endpoint and per model —
into a :class:`MetricsRegistry`, which the ``/metrics`` endpoint and the
throughput bench both read.  Stdlib-only and thread-safe: every metric
carries its own lock, and the registry locks only on metric creation, so
the hot path (``Counter.inc`` under concurrent handler threads) never
contends on a global lock.

Histograms keep exact ``count``/``sum``/``min``/``max`` over the full
lifetime plus a fixed-capacity ring buffer of recent observations from
which quantiles (p50/p95/p99) are computed.  Bounded memory, exact
percentiles over the most recent ``capacity`` samples — the right
trade-off for latency monitoring, where recent behaviour is what matters.

>>> registry = MetricsRegistry()
>>> registry.counter("requests_total", endpoint="/score").inc()
>>> registry.histogram("latency_seconds", endpoint="/score").observe(0.004)
>>> registry.snapshot()["histograms"]["latency_seconds{endpoint=/score}"]["count"]
1
"""

from __future__ import annotations

import threading
from typing import Iterator

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "metric_key"]

#: Quantiles reported for every histogram, as (label, fraction).
QUANTILES: tuple[tuple[str, float], ...] = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def metric_key(name: str, labels: dict[str, str]) -> str:
    """Canonical flat key: ``name{k1=v1,k2=v2}`` with sorted label names."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (requests, errors, shed load)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value (queue depth, loaded models, worker count)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Latency/size distribution with bounded memory.

    ``count``/``sum``/``min``/``max`` are exact over all observations;
    quantiles are computed over the most recent ``capacity`` samples kept
    in a ring buffer.
    """

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        self._ring = np.empty(capacity, dtype=np.float64)
        self._capacity = capacity
        self._next = 0
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._ring[self._next] = value
            self._next = (self._next + 1) % self._capacity
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Quantile over the retained window; NaN before any observation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            filled = min(self._count, self._capacity)
            if filled == 0:
                return float("nan")
            return float(np.quantile(self._ring[:filled], q))

    def summary(self) -> dict[str, float]:
        """Count, sum, mean, min/max and the standard quantiles."""
        with self._lock:
            filled = min(self._count, self._capacity)
            window = self._ring[:filled].copy()
            count, total = self._count, self._sum
            low, high = self._min, self._max
        result: dict[str, float] = {
            "count": count,
            "sum": total,
            "mean": total / count if count else float("nan"),
            "min": low if count else float("nan"),
            "max": high if count else float("nan"),
        }
        for label, q in QUANTILES:
            result[label] = float(np.quantile(window, q)) if filled else float("nan")
        return result


class MetricsRegistry:
    """Named, labelled metric store shared by the server and the bench.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice
    with the same name and labels returns the same instance, so callers
    never need to pre-register anything.  A name must keep one metric
    type across all label sets.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: list = []

    def add_collector(self, collect) -> None:
        """Run ``collect(self)`` at the start of every :meth:`snapshot`.

        For figures kept elsewhere and read at scrape time: ``collect``
        sets the registry's counters and gauges from them.  Adding the
        same collector twice keeps one.
        """
        with self._lock:
            if collect not in self._collectors:
                self._collectors.append(collect)

    def _get_or_create(self, key: str, factory, kind: type):
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {key!r} already registered as {type(metric).__name__}, "
                    f"not {kind.__name__}"
                )
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(metric_key(name, labels), Counter, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(metric_key(name, labels), Gauge, Gauge)

    def histogram(self, name: str, capacity: int = 2048, **labels: str) -> Histogram:
        return self._get_or_create(
            metric_key(name, labels), lambda: Histogram(capacity), Histogram
        )

    def _items(self) -> Iterator[tuple[str, Counter | Gauge | Histogram]]:
        with self._lock:
            return iter(sorted(self._metrics.items()))

    def snapshot(self) -> dict:
        """JSON-serialisable view: what ``/metrics`` returns.

        ``{"counters": {key: value}, "gauges": {key: value},
        "histograms": {key: {count, sum, mean, min, max, p50, p95, p99}}}``
        """
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            collect(self)
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for key, metric in self._items():
            if isinstance(metric, Counter):
                counters[key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            else:
                histograms[key] = metric.summary()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render_text(self) -> str:
        """Flat ``key value`` lines — greppable, one metric per line."""
        lines: list[str] = []
        snapshot = self.snapshot()
        for key, value in snapshot["counters"].items():
            lines.append(f"{key} {value:g}")
        for key, value in snapshot["gauges"].items():
            lines.append(f"{key} {value:g}")
        for key, summary in snapshot["histograms"].items():
            for field, value in summary.items():
                lines.append(f"{key}.{field} {value:g}")
        return "\n".join(lines)
