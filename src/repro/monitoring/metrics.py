"""Metric time series with bounded retention and threshold alerts."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class MetricStats:
    """Summary statistics over a window of samples."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    stddev: float


@dataclass(frozen=True)
class Alert:
    """A threshold violation raised by a metric."""

    metric: str
    time_s: float
    value: float
    threshold: float
    direction: str  # "above" or "below"


class MetricSeries:
    """A named, bounded series of (time, value) samples.

    Optional thresholds turn the series into an alert source: crossing
    ``alert_above``/``alert_below`` appends an :class:`Alert`. Alerts
    use the same bounded-deque discipline as the samples (an alerting
    series left running would otherwise grow without bound); old alerts
    fall off the front and :attr:`dropped_alerts` counts the evictions,
    mirroring ``TraceRecorder.dropped``.
    """

    def __init__(self, name: str, retention: int = 1024,
                 alert_above: float | None = None,
                 alert_below: float | None = None,
                 alert_retention: int = 256):
        if retention < 1:
            raise ConfigurationError("retention must be >= 1")
        if alert_retention < 1:
            raise ConfigurationError("alert retention must be >= 1")
        self.name = name
        self.samples: deque[tuple[float, float]] = deque(maxlen=retention)
        self.alert_above = alert_above
        self.alert_below = alert_below
        self.alerts: deque[Alert] = deque(maxlen=alert_retention)
        self._alerts_total = 0

    def record(self, time_s: float, value: float) -> Alert | None:
        """Append a sample; returns an alert when a threshold is crossed."""
        self.samples.append((time_s, float(value)))
        alert = None
        if self.alert_above is not None and value > self.alert_above:
            alert = Alert(self.name, time_s, value, self.alert_above, "above")
        elif self.alert_below is not None and value < self.alert_below:
            alert = Alert(self.name, time_s, value, self.alert_below, "below")
        if alert is not None:
            self.alerts.append(alert)
            self._alerts_total += 1
        return alert

    @property
    def total_alerts(self) -> int:
        """Alerts ever raised (including any that fell off the deque)."""
        return self._alerts_total

    @property
    def dropped_alerts(self) -> int:
        """Alerts evicted by the retention bound."""
        return self._alerts_total - len(self.alerts)

    def latest(self) -> float | None:
        """Most recent value, or None when empty."""
        return self.samples[-1][1] if self.samples else None

    def window(self, since_s: float) -> list[float]:
        """Values recorded at or after *since_s*."""
        return [v for t, v in self.samples if t >= since_s]

    def stats(self, since_s: float = float("-inf")) -> MetricStats | None:
        """Summary statistics over samples at or after *since_s*."""
        values = self.window(since_s)
        if not values:
            return None
        arr = np.asarray(values)
        return MetricStats(
            count=len(values),
            mean=float(arr.mean()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            stddev=float(arr.std()),
        )

    def rate(self, window_s: float, now_s: float) -> float:
        """Samples per second over the trailing window."""
        if window_s <= 0:
            raise ConfigurationError("rate window must be positive")
        recent = [t for t, _ in self.samples if t >= now_s - window_s]
        return len(recent) / window_s

    def __len__(self) -> int:
        return len(self.samples)
