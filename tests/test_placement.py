"""Tests for placement strategies, constraints and simulated execution."""

import random

import pytest

from repro.core.errors import OrchestrationError
from repro.continuum import (
    Layer,
    Simulator,
    Task,
    TaskRequirements,
    build_reference_infrastructure,
)
from repro.continuum.workload import Application, KernelClass, PrivacyClass
from repro.mirto.placement import (
    PlacementConstraints,
    PlacementRequest,
    eligible_devices,
    estimate_placement_kpis,
    execute_placement,
    make_strategy,
)


def infra():
    return build_reference_infrastructure(Simulator())


def solve(strategy, app, infrastructure, constraints):
    return strategy.solve(PlacementRequest(
        application=app, infrastructure=infrastructure,
        constraints=constraints)).placement


def pipeline_app(privacy=PrivacyClass.PUBLIC, security="low"):
    app = Application("pipe")
    reqs = TaskRequirements(latency_budget_s=10.0, privacy=privacy,
                            min_security_level=security)
    app.add_task(Task("ingest", 200, input_bytes=100_000,
                      requirements=reqs))
    app.add_task(Task("process", 5000, kernel=KernelClass.DSP,
                      requirements=reqs))
    app.add_task(Task("report", 100, requirements=reqs))
    app.connect("ingest", "process", 100_000)
    app.connect("process", "report", 5_000)
    return app


class TestEligibility:
    def test_public_task_can_go_anywhere(self):
        infrastructure = infra()
        task = pipeline_app().task("ingest")
        devices = eligible_devices(task, infrastructure,
                                   PlacementConstraints())
        layers = {d.spec.layer for d in devices}
        assert layers == {Layer.EDGE, Layer.FOG, Layer.CLOUD}

    def test_raw_personal_stays_at_edge(self):
        infrastructure = infra()
        app = pipeline_app(privacy=PrivacyClass.RAW_PERSONAL)
        devices = eligible_devices(app.task("process"), infrastructure,
                                   PlacementConstraints())
        assert devices
        assert all(d.spec.layer == Layer.EDGE for d in devices)

    def test_aggregated_reaches_fog_not_cloud(self):
        infrastructure = infra()
        app = pipeline_app(privacy=PrivacyClass.AGGREGATED)
        devices = eligible_devices(app.task("process"), infrastructure,
                                   PlacementConstraints())
        layers = {d.spec.layer for d in devices}
        assert Layer.CLOUD not in layers
        assert Layer.FOG in layers

    def test_security_floor_filters_weak_devices(self):
        infrastructure = infra()
        app = pipeline_app(security="high")
        devices = eligible_devices(
            app.task("process"), infrastructure,
            PlacementConstraints(min_security_level="high"))
        assert devices
        assert all(d.spec.max_security_level == "high" for d in devices)

    def test_trust_threshold_filters(self):
        infrastructure = infra()
        task = pipeline_app().task("ingest")
        trusted = {name: 1.0 for name in infrastructure.devices}
        trusted["cloud-00"] = 0.1
        constraints = PlacementConstraints(trust_threshold=0.5,
                                           trusted=trusted)
        devices = eligible_devices(task, infrastructure, constraints)
        assert "cloud-00" not in {d.name for d in devices}

    def test_memory_filters(self):
        infrastructure = infra()
        big = Task("big", 10, memory_bytes=100 * 1024**3)
        devices = eligible_devices(big, infrastructure,
                                   PlacementConstraints())
        assert devices
        assert all(d.spec.memory_bytes >= 100 * 1024**3 for d in devices)


class TestStrategies:
    @pytest.mark.parametrize("name", ["random", "round-robin", "greedy",
                                      "pso", "aco"])
    def test_strategy_produces_complete_valid_placement(self, name):
        infrastructure = infra()
        app = pipeline_app()
        strategy = make_strategy(name, random.Random(0))
        placement = solve(strategy, app, infrastructure,
                          PlacementConstraints())
        assert set(placement.assignment) == {"ingest", "process",
                                             "report"}
        for device_name in placement.assignment.values():
            infrastructure.device(device_name)  # must exist

    def test_unknown_strategy_rejected(self):
        with pytest.raises(OrchestrationError):
            make_strategy("oracle")

    def test_impossible_constraints_raise(self):
        infrastructure = infra()
        app = pipeline_app(privacy=PrivacyClass.RAW_PERSONAL,
                           security="high")
        # RAW_PERSONAL forces edge; only the FPGA is 'high' at the edge;
        # demand more memory than it has.
        impossible = Application("x")
        impossible.add_task(Task(
            "t", 10, memory_bytes=64 * 1024**3,
            requirements=TaskRequirements(
                privacy=PrivacyClass.RAW_PERSONAL,
                min_security_level="high")))
        strategy = make_strategy("greedy")
        with pytest.raises(OrchestrationError, match="no eligible"):
            solve(strategy, impossible, infrastructure,
                  PlacementConstraints(min_security_level="high"))

    def test_greedy_beats_random_on_estimate(self):
        infrastructure = infra()
        app = pipeline_app()
        greedy = solve(make_strategy("greedy"), app, infrastructure,
                       PlacementConstraints())
        rnd = solve(make_strategy("random", random.Random(4)), app,
                    infrastructure, PlacementConstraints())
        g_lat, _ = estimate_placement_kpis(app, greedy, infrastructure)
        r_lat, _ = estimate_placement_kpis(app, rnd, infrastructure)
        assert g_lat <= r_lat * 1.01

    def test_cognitive_at_least_as_good_as_greedy(self):
        infrastructure = infra()
        app = pipeline_app()
        constraints = PlacementConstraints()
        greedy = solve(make_strategy("greedy"), app, infrastructure,
                       constraints)
        g_lat, g_energy = estimate_placement_kpis(app, greedy,
                                                  infrastructure)
        for name in ("pso", "aco"):
            cognitive = solve(make_strategy(name, random.Random(0)),
                              app, infrastructure, constraints)
            c_lat, c_energy = estimate_placement_kpis(
                app, cognitive, infrastructure)
            # Cognitive optimizes a blended objective: allow slightly
            # worse latency only if energy improved.
            assert c_lat <= g_lat * 1.25
            if c_lat > g_lat:
                assert c_energy < g_energy


class TestExecution:
    def test_execution_report_fields(self):
        infrastructure = infra()
        app = pipeline_app()
        placement = solve(make_strategy("greedy"), app, infrastructure,
                          PlacementConstraints())
        report = execute_placement(app, placement, infrastructure)
        assert report.makespan_s > 0
        assert report.energy_j > 0
        assert len(report.records) == 3
        assert report.strategy == "greedy"

    def test_execution_counts_offloads(self):
        infrastructure = infra()
        app = pipeline_app()
        # Force a cross-device placement.
        assignment = {"ingest": "fpga-00-0", "process": "cloud-00",
                      "report": "fpga-00-0"}
        from repro.mirto.placement import Placement
        report = execute_placement(app, Placement(assignment, "manual"),
                                   infrastructure)
        assert report.offloads == 2
        assert infrastructure.offloads.vertical_up >= 1
        assert infrastructure.offloads.vertical_down >= 1

    def test_same_device_placement_has_no_offloads(self):
        infrastructure = infra()
        app = pipeline_app()
        from repro.mirto.placement import Placement
        assignment = {t.name: "cloud-00" for t in app.tasks}
        report = execute_placement(app, Placement(assignment, "manual"),
                                   infrastructure)
        assert report.offloads == 0

    def test_estimate_correlates_with_simulation(self):
        """The analytic estimate must rank placements like the DES."""
        infrastructure = infra()
        app = pipeline_app()
        from repro.mirto.placement import Placement
        fast = Placement({t.name: "cloud-00" for t in app.tasks}, "fast")
        slow = Placement({t.name: "riscv-00-0" for t in app.tasks},
                         "slow")
        fast_est, _ = estimate_placement_kpis(app, fast, infrastructure)
        slow_est, _ = estimate_placement_kpis(app, slow, infrastructure)
        fast_sim = execute_placement(app, fast,
                                     infra()).makespan_s
        slow_sim = execute_placement(app, slow,
                                     infra()).makespan_s
        assert (fast_est < slow_est) == (fast_sim < slow_sim)


class TestFireflyStrategy:
    def test_firefly_produces_valid_placement(self):
        infrastructure = infra()
        app = pipeline_app()
        placement = solve(make_strategy("firefly", random.Random(0)),
                          app, infrastructure, PlacementConstraints())
        assert set(placement.assignment) == {"ingest", "process",
                                             "report"}
        assert placement.strategy == "firefly"

    def test_firefly_competitive_with_random(self):
        infrastructure = infra()
        app = pipeline_app()
        constraints = PlacementConstraints()
        firefly = solve(make_strategy("firefly", random.Random(1)), app,
                        infrastructure, constraints)
        rnd = solve(make_strategy("random", random.Random(1)), app,
                    infrastructure, constraints)
        f_lat, _ = estimate_placement_kpis(app, firefly, infrastructure)
        r_lat, _ = estimate_placement_kpis(app, rnd, infrastructure)
        assert f_lat <= r_lat * 1.05
