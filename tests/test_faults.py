"""Tests for device fault injection and reliability accounting."""

import random

import pytest

from repro.core.errors import CapacityError, ConfigurationError
from repro.continuum import Simulator, Task, build_reference_infrastructure
from repro.continuum.faults import FaultEvent, FaultInjector
from repro.mirto.placement import (
    PlacementConstraints,
    PlacementRequest,
    eligible_devices,
    make_strategy,
)


def infra():
    return build_reference_infrastructure(Simulator())


class TestFailedFlag:
    def test_failed_device_rejects_work(self):
        infrastructure = infra()
        device = infrastructure.device("fpga-00-0")
        device.failed = True
        with pytest.raises(CapacityError, match="failed"):
            next(device.execute(Task("t", megaops=10)))

    def test_failed_device_excluded_from_placement(self):
        infrastructure = infra()
        infrastructure.device("fpga-00-0").failed = True
        task = Task("t", megaops=10)
        devices = eligible_devices(task, infrastructure,
                                   PlacementConstraints())
        assert "fpga-00-0" not in {d.name for d in devices}

    def test_placement_routes_around_failures(self):
        infrastructure = infra()
        from repro.continuum.workload import Application
        app = Application("a")
        app.add_task(Task("only", megaops=100))
        infrastructure.device("cloud-00").failed = True
        infrastructure.device("cloud-01").failed = True
        placement = make_strategy("greedy").solve(PlacementRequest(
            app, infrastructure, PlacementConstraints())).placement
        assert not placement.device_of("only").startswith("cloud")


class TestFaultInjector:
    def test_failures_and_repairs_alternate(self):
        infrastructure = infra()
        injector = FaultInjector(infrastructure, random.Random(0),
                                 mtbf_s=5.0, mttr_s=1.0,
                                 devices=["fpga-00-0"])
        injector.start()
        infrastructure.sim.run(until=100.0)
        events = [e.kind for e in injector.tracker.events]
        assert events, "expected failures over 20 MTBFs"
        for a, b in zip(events, events[1:]):
            assert a != b  # strict alternation fail/repair

    def test_availability_matches_mtbf_mttr_ratio(self):
        infrastructure = infra()
        injector = FaultInjector(infrastructure, random.Random(1),
                                 mtbf_s=10.0, mttr_s=2.0,
                                 devices=["mc-00-0"])
        injector.start()
        horizon = 2000.0
        infrastructure.sim.run(until=horizon)
        availability = injector.tracker.availability("mc-00-0", horizon)
        # Expected steady-state availability = 10 / 12 = 0.833.
        assert availability == pytest.approx(10 / 12, abs=0.08)

    def test_stop_halts_injection(self):
        infrastructure = infra()
        injector = FaultInjector(infrastructure, random.Random(2),
                                 mtbf_s=1.0, mttr_s=0.5,
                                 devices=["mc-00-0"])
        injector.start()
        infrastructure.sim.run(until=10.0)
        count = len(injector.tracker.events)
        injector.stop()
        infrastructure.sim.run(until=100.0)
        # At most one in-flight repair completes after stop.
        assert len(injector.tracker.events) <= count + 1

    def test_invalid_parameters(self):
        infrastructure = infra()
        with pytest.raises(ConfigurationError):
            FaultInjector(infrastructure, random.Random(0), 0, 1)
        with pytest.raises(ConfigurationError):
            FaultInjector(infrastructure, random.Random(0), 1, -1)

    def test_availability_of_healthy_device_is_one(self):
        tracker_infra = infra()
        injector = FaultInjector(tracker_infra, random.Random(3),
                                 mtbf_s=1e9, mttr_s=1.0)
        injector.start()
        tracker_infra.sim.run(until=10.0)
        assert injector.tracker.availability("cloud-00", 10.0) == 1.0

    def test_failures_counted_per_device(self):
        infrastructure = infra()
        injector = FaultInjector(infrastructure, random.Random(4),
                                 mtbf_s=2.0, mttr_s=0.5,
                                 devices=["riscv-00-0"])
        injector.start()
        infrastructure.sim.run(until=50.0)
        assert injector.tracker.failures_of("riscv-00-0") >= 5
        assert injector.tracker.failures_of("cloud-00") == 0


class TestReliabilityUnderOrchestration:
    def test_sessions_succeed_despite_failures(self):
        """With placement filtering failed devices, deployments keep
        succeeding through a lossy period (reliability claim)."""
        from repro.mirto import CognitiveEngine
        from repro.usecases import mobility
        engine = CognitiveEngine(seed=71)
        injector = FaultInjector(
            engine.infrastructure, random.Random(5),
            mtbf_s=3.0, mttr_s=1.0,
            devices=["fpga-00-0", "mc-00-0", "fmdc-00"])
        injector.start()
        scenario = mobility.build_scenario(vehicles=1)
        completed = 0
        for _ in range(6):
            outcome = engine.manager.deploy(
                scenario.to_service_template(), strategy="greedy")
            assert outcome.report.makespan_s > 0
            completed += 1
        assert completed == 6
