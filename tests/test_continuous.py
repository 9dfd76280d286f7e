"""Tests for execution-time orchestration (continuous re-placement)."""

import pytest

from repro.continuum import Simulator, build_reference_infrastructure
from repro.continuum.workload import Application, KernelClass, Task
from repro.mirto.continuous import (
    ContinuousDeployment,
    MigrationPolicy,
    run_with_interference,
)
from repro.mirto.placement import PlacementConstraints, PlacementRequest


def streaming_app():
    app = Application("stream")
    app.add_task(Task("grab", 100, input_bytes=100_000))
    app.add_task(Task("infer", 2500, kernel=KernelClass.DSP))
    app.add_task(Task("emit", 150))
    app.connect("grab", "infer", 100_000)
    app.connect("infer", "emit", 5_000)
    return app


def make_deployment(**policy_kwargs):
    infrastructure = build_reference_infrastructure(Simulator())
    deployment = ContinuousDeployment(
        streaming_app(), infrastructure,
        constraints=PlacementConstraints(source_device="mc-00-0"),
        policy=MigrationPolicy(**policy_kwargs))
    return deployment, infrastructure


class TestBacklogSignal:
    def test_backlog_reflects_admitted_work(self):
        sim = Simulator()
        infrastructure = build_reference_infrastructure(sim)
        device = infrastructure.device("fpga-00-0")
        assert device.backlog_seconds() == 0.0
        sim.process(device.execute(Task("t", megaops=4000)))
        sim.run(until=sim.now + 0.001)
        assert device.backlog_seconds() > 0
        sim.run()
        assert device.backlog_seconds() == 0.0

    def test_estimates_avoid_loaded_devices(self):
        sim = Simulator()
        infrastructure = build_reference_infrastructure(sim)
        flooded = infrastructure.device("fpga-00-0")
        for i in range(10):
            sim.process(flooded.execute(Task(f"bg{i}", megaops=5000)))
        sim.run(until=sim.now + 0.001)
        from repro.mirto.placement import make_strategy
        placement = make_strategy("greedy").solve(PlacementRequest(
            streaming_app(), infrastructure,
            PlacementConstraints())).placement
        assert "fpga-00-0" not in placement.assignment.values()


class TestContinuousDeployment:
    def test_stable_load_does_not_flap(self):
        deployment, _ = make_deployment()
        records = [deployment.run_period() for _ in range(5)]
        assert deployment.migrations == 0
        assert all(not r.migrated for r in records)
        # Steady-state makespans are consistent.
        makespans = [r.makespan_s for r in records]
        assert max(makespans) < min(makespans) * 1.5

    def test_interference_triggers_migration(self):
        deployment, infrastructure = make_deployment(
            improvement_threshold=0.15)
        victim = deployment.placement.device_of("infer")
        records = run_with_interference(
            deployment, periods=6, interfere_at=2,
            interference_device=victim,
            interference_megaops=8000, interference_tasks=16)
        assert deployment.migrations >= 1
        migrated_record = next(r for r in records if r.migrated)
        # After migration, the heavy task left the flooded device.
        final = records[-1].placement
        assert final["infer"] != victim or \
            records[migrated_record.period].placement["infer"] != victim

    def test_migration_improves_post_interference_kpis(self):
        adaptive, _ = make_deployment(improvement_threshold=0.15)
        static, _ = make_deployment(improvement_threshold=10.0)  # never
        victim_a = adaptive.placement.device_of("infer")
        victim_s = static.placement.device_of("infer")
        run_with_interference(adaptive, periods=6, interfere_at=1,
                              interference_device=victim_a,
                              interference_megaops=8000,
                              interference_tasks=16)
        run_with_interference(static, periods=6, interfere_at=1,
                              interference_device=victim_s,
                              interference_megaops=8000,
                              interference_tasks=16)
        assert adaptive.migrations >= 1
        assert static.migrations == 0
        assert adaptive.mean_makespan(last=3) \
            < static.mean_makespan(last=3)

    def test_hysteresis_prevents_marginal_moves(self):
        deployment, infrastructure = make_deployment(
            improvement_threshold=0.95)
        victim = deployment.placement.device_of("infer")
        run_with_interference(deployment, periods=4, interfere_at=1,
                              interference_device=victim,
                              interference_megaops=500,
                              interference_tasks=2)
        # Tiny interference with a huge threshold: no migration.
        assert deployment.migrations == 0

    def test_history_records_periods(self):
        deployment, _ = make_deployment()
        deployment.run_period()
        deployment.run_period()
        assert [r.period for r in deployment.history] == [0, 1]
        assert all(r.makespan_s > 0 for r in deployment.history)

    def test_migration_cost_charged(self):
        deployment, infrastructure = make_deployment(
            improvement_threshold=0.05, migration_cost_s=0.5)
        victim = deployment.placement.device_of("infer")
        sim = infrastructure.sim
        before = sim.now
        run_with_interference(deployment, periods=3, interfere_at=0,
                              interference_device=victim,
                              interference_megaops=8000,
                              interference_tasks=16)
        if deployment.migrations:
            # Simulated time includes the migration penalty.
            elapsed = sim.now - before
            compute_time = sum(r.makespan_s for r in deployment.history)
            assert elapsed >= compute_time + 0.5 * deployment.migrations
