"""Chaos campaign + controller semantics over the shared context."""

import pytest

from repro.chaos import (
    ChaosCampaign,
    ChaosController,
    DeviceFlap,
    DeviceOutage,
    GatewayBrownout,
    LatencyInflation,
    LinkDegradation,
    NetworkPartition,
    ZoneOutage,
)
from repro.continuum import build_reference_infrastructure
from repro.continuum.gateway import GatewayHub
from repro.core.errors import ConfigurationError, NotFoundError
from repro.runtime import RuntimeContext


def _setup(seed=1):
    ctx = RuntimeContext(seed=seed)
    infra = build_reference_infrastructure(ctx)
    return ctx, infra, ChaosController(infra)


class TestController:
    def test_fail_and_repair_device(self):
        ctx, infra, controller = _setup()
        controller.fail_device("mc-00-0")
        assert infra.device("mc-00-0").failed
        # Idempotent: a second fail records no extra event.
        controller.fail_device("mc-00-0")
        assert len(controller.tracker.events) == 1
        controller.repair_device("mc-00-0")
        assert not infra.device("mc-00-0").failed

    def test_zone_by_prefix_and_layer(self):
        ctx, infra, controller = _setup()
        assert controller.zone_devices("mc-00") == ["mc-00-0"]
        cloud = controller.zone_devices("cloud")
        assert sorted(cloud) == ["cloud-00", "cloud-01"]
        with pytest.raises(NotFoundError):
            controller.zone_devices("nope-99")

    def test_zone_outage_is_correlated(self):
        ctx, infra, controller = _setup()
        failed = controller.fail_zone("gw-00")
        assert failed == ["gw-00-0"]
        assert infra.device("gw-00-0").failed
        controller.repair_zone("gw-00")
        assert not infra.device("gw-00-0").failed

    def test_link_degradation_inflates_routes(self):
        ctx, infra, controller = _setup()
        net = infra.network
        before = net.path_latency("mc-00-0", "cloud-00")
        controller.degrade_link("gw-00-0", "fmdc-00",
                                latency_factor=10.0,
                                bandwidth_factor=0.1)
        assert net.path_latency("mc-00-0", "cloud-00") > before
        controller.restore_link("gw-00-0", "fmdc-00")
        assert net.path_latency("mc-00-0", "cloud-00") == before

    def test_partition_cuts_and_heals(self):
        ctx, infra, controller = _setup()
        net = infra.network
        cut = controller.partition(("fmdc-00",), ("cloud",))
        assert ("cloud-00", "fmdc-00") in [tuple(sorted(c)) for c in cut]
        with pytest.raises(NotFoundError):
            net.path("mc-00-0", "cloud-00")
        assert controller.heal_partition() == len(cut)
        assert net.path("mc-00-0", "cloud-00")  # reachable again

    def test_latency_inflation_all_links(self):
        ctx, infra, controller = _setup()
        net = infra.network
        before = net.path_latency("mc-00-0", "cloud-00")
        controller.inflate_latency(5.0)
        assert net.path_latency("mc-00-0", "cloud-00") == \
            pytest.approx(5.0 * before)
        controller.restore_latency()
        assert net.path_latency("mc-00-0", "cloud-00") == \
            pytest.approx(before)

    def test_gateway_must_be_registered(self):
        ctx, infra, controller = _setup()
        with pytest.raises(NotFoundError):
            controller.set_gateway_drop_rate("gw-00-0", 0.5)
        hub = GatewayHub(infra.network, "gw-00-0", ctx=ctx)
        controller.register_gateway(hub)
        controller.set_gateway_drop_rate("gw-00-0", 0.5)
        assert hub.drop_rate == 0.5


class TestCampaign:
    def test_actions_fire_at_declared_times(self):
        ctx, infra, controller = _setup()
        campaign = ChaosCampaign("t", [
            DeviceOutage(device="mc-00-0", at_s=2.0, duration_s=3.0),
        ])
        runner = controller.run_campaign(campaign)
        ctx.run(until=1.9)
        assert not infra.device("mc-00-0").failed
        ctx.run(until=2.1)
        assert infra.device("mc-00-0").failed
        ctx.run(until=5.1)
        assert not infra.device("mc-00-0").failed
        assert [(t, p) for t, _, p in runner.executed] == \
            [(2.0, "begin"), (5.0, "end")]

    def test_flap_cycles(self):
        ctx, infra, controller = _setup()
        campaign = ChaosCampaign("flap", [
            DeviceFlap(device="mc-00-0", at_s=0.0, duration_s=6.0,
                       cycles=3),
        ])
        controller.run_campaign(campaign)
        ctx.run(until=20.0)
        fails = controller.tracker.failures_of("mc-00-0")
        assert fails == 3
        assert not infra.device("mc-00-0").failed

    def test_brownout_ramps_up_and_down(self):
        ctx, infra, controller = _setup()
        hub = GatewayHub(infra.network, "gw-00-0", ctx=ctx)
        controller.register_gateway(hub)
        rates = []

        def probe():
            while ctx.now < 8.5:
                rates.append(round(hub.drop_rate, 3))
                yield ctx.sim.timeout(1.0)

        ctx.sim.process(probe())
        campaign = ChaosCampaign("b", [
            GatewayBrownout(gateway="gw-00-0", at_s=0.5, duration_s=7.0,
                            peak_drop_rate=0.8, ramp_steps=4),
        ])
        controller.run_campaign(campaign)
        ctx.run()
        assert max(rates) == pytest.approx(0.8)
        assert rates[0] == 0.0
        assert hub.drop_rate == 0.0  # fully restored
        # Monotone up then down.
        peak = rates.index(max(rates))
        assert rates[:peak + 1] == sorted(rates[:peak + 1])
        assert rates[peak:] == sorted(rates[peak:], reverse=True)

    def test_campaign_end_published(self):
        ctx, infra, controller = _setup()
        seen = []
        ctx.subscribe("chaos.campaign.*",
                      lambda t, p: seen.append((t, p.get("status"))))
        campaign = ChaosCampaign("pub", [
            ZoneOutage(zone="mc-00", at_s=1.0, duration_s=1.0),
        ])
        controller.run_campaign(campaign)
        ctx.run()
        assert ("chaos.campaign.begin", None) == seen[0][:2] or \
            seen[0][0] == "chaos.campaign.begin"
        assert seen[-1] == ("chaos.campaign.end", "ok")

    def test_jitter_is_seeded(self):
        def start_times(seed):
            ctx, infra, controller = _setup(seed)
            campaign = ChaosCampaign("j", [
                DeviceOutage(device="mc-00-0", at_s=1.0, duration_s=0.5),
                DeviceOutage(device="mc-01-0", at_s=1.0, duration_s=0.5),
            ], time_jitter_s=2.0)
            runner = controller.run_campaign(campaign)
            ctx.run()
            return [t for t, _, p in runner.executed if p == "begin"]

        first = start_times(5)
        assert all(1.0 <= t <= 3.0 for t in first)
        assert first == start_times(5)
        assert first != start_times(6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosCampaign("")
        with pytest.raises(ConfigurationError):
            ChaosCampaign("x", time_jitter_s=-1.0)

    def test_describe_is_declarative(self):
        campaign = ChaosCampaign("d", [
            NetworkPartition(group_a=("fmdc-00",),
                             group_b=("cloud",), at_s=3.0,
                             duration_s=2.0),
            LatencyInflation(factor=2.0, at_s=1.0, duration_s=1.0),
        ])
        desc = campaign.describe()
        assert desc["name"] == "d"
        assert [a["kind"] for a in desc["actions"]] == \
            ["network-partition", "latency-inflation"]
        assert desc["actions"][0]["group_b"] == ["cloud"]


class TestMapeDegradation:
    """Graceful degradation: MAPE steps devices down during a campaign
    and restores them afterwards."""

    def _engine(self, seed=3):
        from repro.mirto import CognitiveEngine
        ctx = RuntimeContext(seed=seed)
        infra = build_reference_infrastructure(ctx)
        engine = CognitiveEngine(seed=seed, infrastructure=infra)
        return ctx, infra, engine

    def test_degrades_during_campaign_and_restores(self):
        ctx, infra, engine = self._engine()
        controller = ChaosController(infra)
        campaign = ChaosCampaign("deg", [
            LinkDegradation(a="gw-00-0", b="fmdc-00", at_s=1.0,
                            duration_s=4.0),
        ])
        controller.run_campaign(campaign)
        ctx.run(until=2.0)  # campaign in progress
        assert engine.mape.chaos_campaigns_active == 1
        record = engine.mape.iterate()
        assert any(t.kind == "degrade" for t in record.triggers)
        degraded = [d for d in infra.devices.values()
                    if d.operating_point.name == "low-power"]
        assert degraded
        ctx.run(until=3.0)  # open degradation interval accrues
        assert engine.mape.degradation_time_s > 0.0

        ctx.run()  # drain: campaign ends
        assert engine.mape.chaos_campaigns_active == 0
        record = engine.mape.iterate()
        assert any(t.kind == "restore" for t in record.triggers)
        assert all(d.operating_point.name != "low-power"
                   for d in infra.devices.values()
                   if "balanced" in d.operating_points)
        # The degradation interval is closed now.
        total = engine.mape.degradation_time_s
        ctx.run(until=ctx.now + 1.0)
        assert engine.mape.degradation_time_s == total

    def test_no_utilization_triggers_while_degraded(self):
        ctx, infra, engine = self._engine()
        controller = ChaosController(infra)
        controller.run_campaign(ChaosCampaign("q", [
            LatencyInflation(factor=2.0, at_s=0.5, duration_s=5.0),
        ]))
        ctx.run(until=1.0)
        record = engine.mape.iterate()
        kinds = {t.kind for t in record.triggers}
        assert "overload" not in kinds
        assert "underload" not in kinds
