"""Full-stack integration: design time to runtime across all pillars.

One test class walks the complete MYRTUS story for each use case:
Pillar 3 designs (scenario -> ADT -> KPIs -> IR -> artifacts -> CSAR),
Pillar 2 orchestrates (agent API -> validation -> manager -> cognitive
placement), Pillar 1 executes (DES devices, network, monitors, KB), and
the MAPE loop closes the feedback. A second class stresses cross-cutting
concerns: security end-to-end, failures during operation, and the KB as
the single source of truth.
"""

import pytest

from repro.continuum.devices import Layer
from repro.dpe import DesignFlow
from repro.mirto import ApiRequest, CognitiveEngine
from repro.tosca import CsarArchive
from repro.usecases import mobility, telerehab


@pytest.fixture(scope="module")
def engine():
    return CognitiveEngine(seed=77)


@pytest.mark.parametrize("case", [mobility, telerehab],
                         ids=["mobility", "telerehab"])
class TestDesignToRuntime:
    def test_csar_flows_from_dpe_to_agent_to_execution(self, case,
                                                       engine):
        scenario = case.build_scenario()
        spec = DesignFlow(seed=7).run(scenario, case.build_adt(),
                                      defence_budget=8.0)
        response = engine.agent().handle(ApiRequest(
            "POST", "/deployments", token=engine.operator_token(),
            body={"csar": spec.csar_bytes, "strategy": "greedy"}))
        assert response.status == 201, response.body
        assert response.body["makespan_s"] > 0
        # The KB carries the deployment status (Pillar 1 <-> 2).
        status = engine.registry.status(f"deployment/{scenario.name}")
        assert status["strategy"] == "greedy"

    def test_privacy_policies_survive_the_whole_path(self, case, engine):
        """A policy written at design time constrains the runtime
        placement — through CSAR serialization and agent validation."""
        scenario = case.build_scenario()
        spec = DesignFlow(seed=8).run(scenario)
        archive = CsarArchive.from_bytes(spec.csar_bytes)
        outcome = engine.manager.deploy(archive.service,
                                        strategy="greedy")
        privacy_policies = archive.service.policies_of_type(
            "myrtus.policies.Privacy")
        for policy in privacy_policies:
            max_layer = policy.properties["max_layer"]
            for target in policy.targets:
                device = engine.infrastructure.device(
                    outcome.placement.device_of(target))
                order = ["edge", "fog", "cloud"]
                assert order.index(device.spec.layer.value) \
                    <= order.index(max_layer), (target, policy.name)

    def test_operating_points_from_csar_are_loadable(self, case, engine):
        import json
        scenario = case.build_scenario()
        spec = DesignFlow(seed=9).run(scenario)
        archive = CsarArchive.from_bytes(spec.csar_bytes)
        points = json.loads(
            archive.artifacts["meta/operating-points.json"])
        assert points == spec.operating_points
        task_names = {c.name for c in scenario.components}
        for point in points:
            assert set(point["mapping"]) == task_names


class TestCrossCutting:
    def test_trust_feedback_shapes_future_placements(self, engine):
        """Deployments feed trust; trust shapes eligibility. After many
        successful runs every used device is trusted above prior."""
        scenario = mobility.build_scenario(vehicles=1)
        for _ in range(3):
            engine.manager.deploy(scenario.to_service_template(),
                                  strategy="greedy")
        trust_engine = engine.manager.security.trust
        assert trust_engine.known_components()
        for name in trust_engine.known_components():
            assert trust_engine.trust(name) > 0.5

    def test_device_failure_between_sessions(self, engine):
        """Losing an edge FPGA mid-operation must not break subsequent
        deployments — the placement simply routes around it."""
        scenario = telerehab.build_scenario(session_minutes=5)
        first = engine.manager.deploy(scenario.to_service_template(),
                                      strategy="greedy")
        used = first.placement.device_of("pose-estimation")
        # Simulate the device disappearing from the pool.
        removed = engine.infrastructure.devices.pop(used)
        try:
            second = engine.manager.deploy(
                scenario.to_service_template(), strategy="greedy")
            assert second.placement.device_of("pose-estimation") != used
            device = engine.infrastructure.device(
                second.placement.device_of("pose-estimation"))
            assert device.spec.layer == Layer.EDGE  # privacy held
        finally:
            engine.infrastructure.devices[used] = removed

    def test_kb_survives_replica_crash_mid_operation(self, engine):
        leader = engine.kb.cluster.run_until_leader()
        engine.kb.cluster.stop(leader)
        try:
            scenario = mobility.build_scenario(vehicles=1)
            outcome = engine.manager.deploy(
                scenario.to_service_template(), strategy="greedy")
            status = engine.registry.status(
                f"deployment/{scenario.name}")
            assert status["makespan_s"] == outcome.report.makespan_s
        finally:
            engine.kb.cluster.restart(leader)
            engine.kb.tick(50)

    def test_monitoring_reflects_real_executions(self, engine):
        before = {
            name: device.pmc.tasks_executed
            for name, device in engine.infrastructure.devices.items()
        }
        scenario = mobility.build_scenario(vehicles=1)
        outcome = engine.manager.deploy(scenario.to_service_template(),
                                        strategy="greedy")
        engine.mape_iterate(1)
        for device_name in set(outcome.placement.assignment.values()):
            status = engine.registry.status(device_name)
            device = engine.infrastructure.device(device_name)
            assert device.pmc.tasks_executed > before.get(device_name, 0)
            assert "utilization" in status

    def test_full_api_surface_consistent(self, engine):
        token = engine.operator_token()
        status = engine.agent().handle(ApiRequest("GET", "/status",
                                                  token=token))
        deployments = engine.agent().handle(ApiRequest(
            "GET", "/deployments", token=token))
        assert status.body["deployments"] == len(deployments.body)


class TestAdditionalStrategiesViaApi:
    def test_firefly_and_swarm_rule_deploy_through_agent(self, engine):
        scenario = mobility.build_scenario(vehicles=1)
        for strategy in ("firefly", "swarm-rule"):
            response = engine.deploy(scenario.to_service_template(),
                                     strategy=strategy)
            assert response.status == 201, (strategy, response.body)
            assert response.body["strategy"] == strategy
            assert response.body["makespan_s"] > 0


class TestGatewayInsideReferenceInfrastructure:
    def test_sensor_traffic_coexists_with_deployments(self, engine):
        """The smart gateway of the reference infrastructure carries
        sensor telemetry while MIRTO deployments execute on the same
        network — both share link capacity."""
        from repro.continuum.gateway import GatewayHub
        from repro.continuum.endpoints import SensorProcess
        network = engine.infrastructure.network
        network.add_link("roadside-cam", "gw-00-0", 0.002, 10e6)
        hub = GatewayHub(network, "gw-00-0", ctx=engine.sim)
        hub.register("roadside-cam", ["coap"])
        hub.register("fmdc-00", ["mqtt"])
        sensor = SensorProcess(
            hub, "roadside-cam", "fmdc-00", "traffic",
            sample_fn=lambda seq: {"vehicles": seq % 7},
            period_s=0.02, max_samples=8, ctx=engine.sim)
        outcome = engine.manager.deploy(
            mobility.build_scenario(vehicles=1).to_service_template(),
            strategy="greedy")
        engine.sim.run(until=sensor.process)
        assert outcome.report.makespan_s > 0
        delivered = [r for r in hub.deliveries if r.wire_bytes > 0]
        assert len(delivered) == 8
        assert hub.bridge_matrix()[("coap", "mqtt")] == 8
