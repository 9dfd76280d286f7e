"""The three monitor kinds of the EU-CEI Monitoring building block."""

from __future__ import annotations

from typing import Any

from repro.core.errors import ConfigurationError
from repro.continuum.devices import Device
from repro.monitoring.metrics import Alert, MetricSeries
from repro.net.topology import Network
from repro.runtime import RuntimeContext


class _MonitorBase:
    """Shared plumbing: named series registry + bus publication.

    Monitors run on a :class:`~repro.runtime.RuntimeContext` (the
    injected one, else a fresh context): they publish on its bus, count
    on its metrics, and every ``time_s`` parameter is optional and
    defaults to its clock, ``ctx.now``. Passing an explicit ``time_s``
    (e.g. for replaying historical samples) still works.
    """

    kind = "abstract"

    def __init__(self, name: str, retention: int = 1024, *,
                 ctx: RuntimeContext | None = None):
        self.name = name
        self.ctx = RuntimeContext.adopt(ctx)
        self.retention = retention
        self.series: dict[str, MetricSeries] = {}
        metrics = self.ctx.metrics
        self._samples_ctr = metrics.counter(
            f"monitoring.{self.kind}.samples",
            "samples recorded", label_key="monitor")
        self._alerts_ctr = metrics.counter(
            f"monitoring.{self.kind}.alerts",
            "threshold alerts raised", label_key="monitor")

    def metric(self, metric_name: str, alert_above: float | None = None,
               alert_below: float | None = None) -> MetricSeries:
        """Get-or-create a metric series owned by this monitor.

        Thresholds passed here stick even when the series already
        exists (recording via :meth:`_record` may have created it
        first), so alerts can be armed at any point.
        """
        if metric_name not in self.series:
            self.series[metric_name] = MetricSeries(
                f"{self.name}.{metric_name}", retention=self.retention,
                alert_above=alert_above, alert_below=alert_below)
        else:
            series = self.series[metric_name]
            if alert_above is not None:
                series.alert_above = alert_above
            if alert_below is not None:
                series.alert_below = alert_below
        return self.series[metric_name]

    def _record(self, metric_name: str, time_s: float | None,
                value: float, alert_above: float | None = None,
                alert_below: float | None = None) -> Alert | None:
        if time_s is None:
            time_s = self.ctx.now
        series = self.metric(metric_name, alert_above=alert_above,
                             alert_below=alert_below)
        alert = series.record(time_s, value)
        self._samples_ctr.inc(label=self.name)
        if alert is not None:
            self._alerts_ctr.inc(label=self.name)
        # Topic segments must stay dot-free (metric names such as
        # "webcam-0.utilization" would otherwise add segments).
        metric_seg = metric_name.replace(".", "-")
        self.ctx.publish(
            f"monitor.metrics.{self.kind}.{self.name}.{metric_seg}",
            {"time_s": time_s, "value": value})
        if alert is not None:
            self.ctx.publish(
                f"monitor.alerts.{self.kind}.{self.name}", alert)
        return alert


class ApplicationMonitor(_MonitorBase):
    """Tracks per-application KPIs: end-to-end latency, deadline misses,
    throughput — "underperformance issues not related to network/devices"."""

    kind = "application"

    def record_completion(self, time_s: float | None = None,
                          latency_s: float | None = None,
                          deadline_s: float | None = None) -> None:
        """Log one application-instance completion."""
        if latency_s is None:
            raise ConfigurationError("record_completion needs latency_s")
        self._record("latency_s", time_s, latency_s)
        if deadline_s is not None:
            self._record("deadline_miss", time_s,
                         1.0 if latency_s > deadline_s else 0.0)

    def record_throughput(self, time_s: float | None = None,
                          completions_per_s: float = 0.0) -> None:
        self._record("throughput", time_s, completions_per_s)

    def miss_rate(self) -> float:
        """Fraction of completions that missed their deadline."""
        series = self.series.get("deadline_miss")
        if not series or not len(series):
            return 0.0
        values = [v for _, v in series.samples]
        return sum(values) / len(values)


class TelemetryMonitor(_MonitorBase):
    """Tracks connectivity status and information loss on the network."""

    kind = "telemetry"

    def record_message(self, time_s: float | None = None,
                       delivered: bool = True,
                       latency_s: float | None = None) -> None:
        self._record("delivered", time_s, 1.0 if delivered else 0.0)
        if delivered and latency_s is not None:
            self._record("message_latency_s", time_s, latency_s)

    def sample_network(self, time_s: float | None = None,
                       network: Network | None = None) -> None:
        """Snapshot per-link load into the series."""
        if network is None:
            raise ConfigurationError("sample_network needs a network")
        for link in network.links:
            key = f"link_{link.a}-{link.b}_bytes"
            self._record(key, time_s, float(link.bytes_carried))

    def loss_rate(self) -> float:
        """Fraction of messages not delivered."""
        series = self.series.get("delivered")
        if not series or not len(series):
            return 0.0
        values = [v for _, v in series.samples]
        return 1.0 - sum(values) / len(values)


class InfrastructureMonitor(_MonitorBase):
    """Tracks component status: utilization, energy, queue depth, PMCs.

    The paper notes FPGA edge devices are "already instrumented to
    support basic runtime monitoring through performance monitoring
    counters"; :meth:`sample_device` reads exactly those counters.
    """

    kind = "infrastructure"

    def sample_device(self, time_s: float | None = None,
                      device: Device | None = None) -> dict[str, Any]:
        """Pull one telemetry sample from a device into the series."""
        if device is None:
            raise ConfigurationError("sample_device needs a device")
        sample = device.telemetry()
        for key in ("utilization", "queue_length", "energy_j"):
            self._record(f"{device.name}.{key}", time_s, sample[key])
        # PMC-derived counters for reconfigurable devices.
        if device.spec.reconfig_regions > 0:
            self._record(f"{device.name}.reconfigurations", time_s,
                         sample["reconfigurations"])
        return sample

    def watch_device_faults(self) -> None:
        """Record continuum fault events from the shared bus.

        Each ``continuum.fault.fail``/``.repair`` becomes a sample on
        the ``<device>.failed`` series (1.0 while down), stamped with
        the canonical clock — so the monitor sees a fault at the same
        simulated instant as every other subscriber.
        """

        def _on_fault(topic: str, payload) -> None:
            device = (payload or {}).get("device")
            if device is not None:
                self._record(f"{device}.failed", None,
                             0.0 if topic.endswith(".repair") else 1.0)

        self.ctx.subscribe("continuum.fault.*", _on_fault)

    def device_utilization(self, device_name: str) -> float | None:
        series = self.series.get(f"{device_name}.utilization")
        return series.latest() if series else None

    def overloaded_devices(self, threshold: float = 0.9) -> list[str]:
        """Device names whose latest utilization exceeds *threshold*."""
        result = []
        for key, series in self.series.items():
            if key.endswith(".utilization"):
                latest = series.latest()
                if latest is not None and latest > threshold:
                    result.append(key[: -len(".utilization")])
        return sorted(result)
