"""Tests for metric series and the three EU-CEI monitor kinds."""

import pytest

from repro.core.errors import ConfigurationError
from repro.continuum import DeviceKind, Simulator, Task, make_device
from repro.monitoring import (
    ApplicationMonitor,
    InfrastructureMonitor,
    MetricSeries,
    TelemetryMonitor,
)
from repro.net.topology import Network
from repro.runtime import RuntimeContext


class TestMetricSeries:
    def test_record_and_latest(self):
        s = MetricSeries("m")
        assert s.latest() is None
        s.record(0.0, 1.5)
        s.record(1.0, 2.5)
        assert s.latest() == 2.5
        assert len(s) == 2

    def test_retention_bound(self):
        s = MetricSeries("m", retention=3)
        for i in range(10):
            s.record(i, i)
        assert len(s) == 3
        assert s.latest() == 9

    def test_invalid_retention(self):
        with pytest.raises(ConfigurationError):
            MetricSeries("m", retention=0)

    def test_stats(self):
        s = MetricSeries("m")
        for i, v in enumerate([1, 2, 3, 4, 5]):
            s.record(i, v)
        st = s.stats()
        assert st.count == 5
        assert st.mean == 3
        assert st.minimum == 1
        assert st.maximum == 5
        assert st.p50 == 3

    def test_stats_window(self):
        s = MetricSeries("m")
        for i in range(10):
            s.record(i, i)
        st = s.stats(since_s=7)
        assert st.count == 3
        assert st.minimum == 7

    def test_stats_empty_window(self):
        s = MetricSeries("m")
        assert s.stats() is None

    def test_alert_above(self):
        s = MetricSeries("util", alert_above=0.9)
        assert s.record(0, 0.5) is None
        alert = s.record(1, 0.95)
        assert alert is not None
        assert alert.direction == "above"
        assert len(s.alerts) == 1

    def test_alert_below(self):
        s = MetricSeries("battery", alert_below=0.2)
        alert = s.record(0, 0.1)
        assert alert.direction == "below"

    def test_alert_retention_bound(self):
        s = MetricSeries("util", alert_above=0.5, alert_retention=3)
        for i in range(10):
            s.record(i, 0.9)
        assert len(s.alerts) == 3
        assert s.total_alerts == 10
        assert s.dropped_alerts == 7
        # Oldest alerts fell off the front; the newest survive.
        assert [a.time_s for a in s.alerts] == [7, 8, 9]

    def test_no_drops_below_retention(self):
        s = MetricSeries("util", alert_above=0.5)
        s.record(0, 0.9)
        assert s.dropped_alerts == 0
        assert s.total_alerts == 1

    def test_invalid_alert_retention(self):
        with pytest.raises(ConfigurationError):
            MetricSeries("m", alert_retention=0)

    def test_rate(self):
        s = MetricSeries("m")
        for t in [0.0, 0.5, 1.0, 1.5, 2.0]:
            s.record(t, 1)
        assert s.rate(window_s=1.0, now_s=2.0) == pytest.approx(3.0)

    def test_rate_invalid_window(self):
        with pytest.raises(ConfigurationError):
            MetricSeries("m").rate(0, 1)


class TestApplicationMonitor:
    def test_latency_recorded(self):
        mon = ApplicationMonitor("app")
        mon.record_completion(1.0, latency_s=0.05)
        assert mon.series["latency_s"].latest() == 0.05

    def test_miss_rate(self):
        mon = ApplicationMonitor("app")
        mon.record_completion(0, 0.05, deadline_s=0.1)  # hit
        mon.record_completion(1, 0.15, deadline_s=0.1)  # miss
        mon.record_completion(2, 0.09, deadline_s=0.1)  # hit
        assert mon.miss_rate() == pytest.approx(1 / 3)

    def test_miss_rate_empty(self):
        assert ApplicationMonitor("app").miss_rate() == 0.0

    def test_bus_publication(self):
        ctx = RuntimeContext()
        seen = []
        ctx.subscribe("monitor.metrics.application.**",
                      lambda t, p: seen.append(t))
        mon = ApplicationMonitor("app", ctx=ctx)
        mon.record_completion(0, 0.05)
        assert seen


class TestTelemetryMonitor:
    def test_loss_rate(self):
        mon = TelemetryMonitor("net")
        mon.record_message(0, delivered=True, latency_s=0.01)
        mon.record_message(1, delivered=False)
        mon.record_message(2, delivered=True, latency_s=0.02)
        assert mon.loss_rate() == pytest.approx(1 / 3)

    def test_loss_rate_empty(self):
        assert TelemetryMonitor("net").loss_rate() == 0.0

    def test_network_sampling(self):
        sim = Simulator()
        net = Network(ctx=sim)
        net.add_link("a", "b", 0.01, 1e6)
        sim.run(until=sim.process(net.transfer("a", "b", 500)))
        mon = TelemetryMonitor("net")
        mon.sample_network(sim.now, net)
        assert mon.series["link_a-b_bytes"].latest() == 500.0


class TestInfrastructureMonitor:
    def test_device_sampling(self):
        sim = Simulator()
        dev = make_device("fpga", DeviceKind.HMPSOC_FPGA, ctx=sim)
        sim.run(until=sim.process(dev.execute(Task("t", megaops=100))))
        mon = InfrastructureMonitor("infra")
        sample = mon.sample_device(sim.now, dev)
        assert sample["tasks_executed"] == 1
        assert mon.device_utilization("fpga") is not None

    def test_pmc_series_for_reconfigurable(self):
        sim = Simulator()
        dev = make_device("fpga", DeviceKind.HMPSOC_FPGA, ctx=sim)
        sim.run(until=sim.process(dev.reconfigure("x.bit")))
        mon = InfrastructureMonitor("infra")
        mon.sample_device(sim.now, dev)
        assert mon.series["fpga.reconfigurations"].latest() == 1.0

    def test_no_pmc_series_for_plain_multicore(self):
        sim = Simulator()
        dev = make_device("mc", DeviceKind.EDGE_MULTICORE, ctx=sim)
        mon = InfrastructureMonitor("infra")
        mon.sample_device(sim.now, dev)
        assert "mc.reconfigurations" not in mon.series

    def test_overloaded_devices(self):
        mon = InfrastructureMonitor("infra")
        mon.metric("busy.utilization").record(0, 0.95)
        mon.metric("idle.utilization").record(0, 0.10)
        assert mon.overloaded_devices(threshold=0.9) == ["busy"]

    def test_alert_flows_to_bus(self):
        ctx = RuntimeContext()
        alerts = []
        ctx.subscribe("monitor.alerts.**", lambda t, p: alerts.append(p))
        mon = InfrastructureMonitor("infra", ctx=ctx)
        mon.metric("n.utilization", alert_above=0.8)
        mon._record("n.utilization", 0, 0.9)
        assert len(alerts) == 1
        assert alerts[0].direction == "above"

    def test_record_threshold_plumbing(self):
        # Regression: thresholds passed through _record used to be
        # dropped when the series already existed — arming alerts after
        # the first sample silently did nothing.
        ctx = RuntimeContext()
        alerts = []
        ctx.subscribe("monitor.alerts.**", lambda t, p: alerts.append(p))
        mon = InfrastructureMonitor("infra", ctx=ctx)
        mon._record("n.utilization", 0, 0.95)  # creates the series
        assert alerts == []
        mon._record("n.utilization", 1, 0.95, alert_above=0.8)
        assert len(alerts) == 1
        assert alerts[0].threshold == 0.8

    def test_metric_rearms_existing_series(self):
        mon = InfrastructureMonitor("infra")
        series = mon.metric("x")
        assert series.alert_above is None
        rearmed = mon.metric("x", alert_above=0.5, alert_below=0.1)
        assert rearmed is series
        assert series.alert_above == 0.5
        assert series.alert_below == 0.1

    def test_ctx_clock_default(self):
        ctx = RuntimeContext()
        ctx.run(until=7.0)
        mon = InfrastructureMonitor("infra", ctx=ctx)
        mon._record("n.utilization", None, 0.5)
        assert mon.series["n.utilization"].samples[-1] == (7.0, 0.5)

    def test_without_ctx_runs_on_its_own_context(self):
        mon = InfrastructureMonitor("infra")
        seen = []
        mon.ctx.subscribe("monitor.metrics.**", lambda t, p: seen.append(p))
        mon._record("n.utilization", None, 0.5)
        assert mon.series["n.utilization"].samples[-1] == (0.0, 0.5)
        assert seen == [{"time_s": 0.0, "value": 0.5}]
