"""Counters, gauges and histograms for the sweep engine's supervisor.

A :class:`MetricsRegistry` is plain in-process bookkeeping -- no background
threads, no sampling -- populated by :func:`repro.sweeps.runner.run_campaign`
(worker spawns/deaths/retries, dispatched chunks and their sizes, store
appends, lease waits, queue depth, per-run latency)
and snapshotted into ``CampaignResult.metrics`` plus a
``campaign_metrics.json`` sidecar beside the result store.  Snapshots are
plain JSON-serializable dicts keyed by metric name.
"""

from __future__ import annotations

from bisect import bisect_left

#: Default per-run latency bucket upper bounds, in seconds.
DEFAULT_LATENCY_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0)


class Counter:
    """A monotonically increasing count (int or float increments)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got increment {amount}")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (e.g. queue depth); tracks its maximum."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value = 0
        self.max = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.max:
            self.max = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value, "max": self.max}


class Histogram:
    """Fixed-bucket histogram of observations (cumulative on snapshot).

    ``buckets`` are upper bounds in ascending order; an implicit ``+Inf``
    bucket catches the tail.  Tracks count/sum/min/max exactly, so means and
    rates never depend on the bucket layout.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets=DEFAULT_LATENCY_BUCKETS) -> None:
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(f"histogram buckets must be ascending, got {buckets}")
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> dict:
        labels = [str(b) for b in self.buckets] + ["+Inf"]
        cumulative = []
        running = 0
        for n in self.counts:
            running += n
            cumulative.append(running)
        return {
            "type": "histogram",
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": self.min,
            "max": self.max,
            "buckets": dict(zip(labels, cumulative)),
        }


class MetricsRegistry:
    """Named metrics, created on first use; snapshots to one flat dict."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = kind(*args)
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, buckets=DEFAULT_LATENCY_BUCKETS) -> Histogram:
        """The histogram ``name``; ``buckets`` apply when first use creates it."""
        return self._get(name, Histogram, buckets)

    def snapshot(self) -> dict:
        """All metrics as ``{name: {"type": ..., ...}}``, in creation order."""
        return {name: metric.snapshot() for name, metric in self._metrics.items()}
