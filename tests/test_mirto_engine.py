"""Tests for the MIRTO Manager, MAPE loop, agent API and proxies."""

import hashlib
import json

import pytest

from repro.core.errors import NotFoundError, OrchestrationError
from repro.continuum import Simulator, build_reference_infrastructure
from repro.continuum.workload import KernelClass, PrivacyClass, Task
from repro.dpe import ComponentModel, ScenarioModel
from repro.kube import (
    ContinuumFederation,
    KubeCluster,
    Node,
    PodPhase,
    ResourceRequest,
)
from repro.mirto import (
    ApiRequest,
    CognitiveEngine,
    DeploymentProxy,
    KbProxy,
    MirtoManager,
    container_to_pod_spec,
    service_to_application,
)
from repro.mirto.placement import is_eligible
from repro.kb.store import KnowledgeBase
from repro.security.levels import SecurityLevel
from repro.tosca.model import NodeTemplate, Policy, ServiceTemplate

GIB = 1024**3


def mobility_scenario():
    scenario = ScenarioModel("mobility", latency_budget_s=0.5,
                             min_security_level="medium")
    scenario.add_component(ComponentModel(
        "perception", 800, input_bytes=500_000, kernel=KernelClass.DSP,
        accelerable=True))
    scenario.add_component(ComponentModel(
        "fusion", 3000, kernel=KernelClass.ANALYTICS,
        privacy=PrivacyClass.AGGREGATED))
    scenario.add_component(ComponentModel("planning", 1500))
    scenario.connect("perception", "fusion", 100_000)
    scenario.connect("fusion", "planning", 20_000)
    return scenario


@pytest.fixture
def engine():
    return CognitiveEngine(seed=1)


class TestServiceTranslation:
    def test_containers_become_tasks(self):
        service = mobility_scenario().to_service_template()
        app = service_to_application(service)
        assert {t.name for t in app.tasks} \
            == {"perception", "fusion", "planning"}
        assert app.task("perception").kernel == KernelClass.DSP

    def test_policies_carry_into_requirements(self):
        service = mobility_scenario().to_service_template()
        app = service_to_application(service)
        assert app.task("fusion").requirements.privacy \
            == PrivacyClass.AGGREGATED
        assert app.task("planning").requirements.min_security_level \
            == "medium"
        assert app.task("planning").requirements.latency_budget_s == 0.5

    def test_connections_become_edges(self):
        service = mobility_scenario().to_service_template()
        app = service_to_application(service)
        assert app.predecessors("fusion") == ["perception"]

    def test_strictest_security_floor_everywhere(self, engine):
        """With ``*: high`` and ``x: low``, tasks, the placement
        requirement and pods all read the floor as ``high``."""
        service = ServiceTemplate("floor")
        for name in ("x", "y"):
            service.add_node(NodeTemplate(name, "myrtus.nodes.Container", {
                "image": f"{name}:1", "cpu_millicores": 100,
                "memory_bytes": 64 << 20}))
        for name, target, level in (("all", "*", "high"),
                                    ("x-only", "x", "low")):
            service.add_policy(Policy(name, "myrtus.policies.Security",
                                      [target], {"min_level": level}))
        app = service_to_application(service)
        assert {t.name: t.requirements.min_security_level
                for t in app.tasks} == {"x": "high", "y": "high"}
        assert engine.manager.security.required_level(service) \
            is SecurityLevel.HIGH
        assert {name: container_to_pod_spec(service, name)
                .min_security_level for name in ("x", "y")} \
            == {"x": "high", "y": "high"}


class TestMirtoManager:
    def test_deploy_produces_outcome(self, engine):
        service = mobility_scenario().to_service_template()
        outcome = engine.manager.deploy(service, strategy="greedy")
        assert outcome.report.makespan_s > 0
        assert outcome.security_level == "medium"
        assert set(outcome.placement.assignment) \
            == {"perception", "fusion", "planning"}

    def test_privacy_respected_in_placement(self, engine):
        service = mobility_scenario().to_service_template()
        outcome = engine.manager.deploy(service, strategy="greedy")
        fusion_device = engine.infrastructure.device(
            outcome.placement.device_of("fusion"))
        assert fusion_device.spec.layer.value in ("edge", "fog")

    def test_node_manager_configures_operating_points(self, engine):
        service = mobility_scenario().to_service_template()
        engine.manager.deploy(service, strategy="greedy")
        # At least the devices used should carry a concrete point.
        assert engine.manager.node_manager.switches >= 0

    def test_security_manager_tracks_trust(self, engine):
        service = mobility_scenario().to_service_template()
        outcome = engine.manager.deploy(service)
        for device in set(outcome.placement.assignment.values()):
            assert engine.manager.security.trust.trust(device) != 0.5 \
                or engine.manager.security.trust.known_components()

    def test_required_level_parsing(self, engine):
        service = mobility_scenario().to_service_template()
        level = engine.manager.security.required_level(service)
        assert level is SecurityLevel.MEDIUM

    def test_empty_service_rejected(self, engine):
        from repro.tosca.model import ServiceTemplate
        with pytest.raises(OrchestrationError):
            engine.manager.deploy(ServiceTemplate("empty"))


class TestNetworkManager:
    def test_transfer_cost_positive(self, engine):
        cost = engine.manager.network.transfer_cost(
            "fpga-00-0", "cloud-00", 1_000_000)
        assert cost > 0

    def test_slice_reservation(self, engine):
        net_slice = engine.manager.network.reserve_slice(
            "critical", "mobility", "fpga-00-0", "fmdc-00", 0.3)
        assert net_slice.fraction == 0.3
        assert engine.manager.network.slices.slice_bandwidth(
            "critical") > 0

    def test_congestion_state_bounded(self, engine):
        state = engine.manager.network.congestion_state()
        assert 0 <= state <= 4

    def test_advice_returns_layer(self, engine):
        from repro.continuum.devices import Layer
        layer = engine.manager.network.advise_layer()
        assert isinstance(layer, Layer)


class TestMapeLoop:
    def test_iteration_record(self, engine):
        record = engine.mape.iterate()
        assert record.sensed_components == len(engine.infrastructure)
        assert record.iteration == 0

    def test_underload_switches_to_low_power(self, engine):
        engine.mape.iterate()
        # Idle infrastructure: every reconfigurable device should end up
        # in low-power.
        fpga = engine.infrastructure.device("fpga-00-0")
        assert fpga.operating_point.name == "low-power"

    def test_sense_populates_registry(self, engine):
        engine.mape.iterate()
        status = engine.registry.status("fpga-00-0")
        assert "utilization" in status
        assert "operating_point" in status

    def test_trust_drop_triggers_flag(self, engine):
        from repro.security.trust import InteractionOutcome
        for _ in range(10):
            engine.manager.security.trust.observe(
                "cloud-00", InteractionOutcome(0, False, 0.0))
        record = engine.mape.iterate()
        kinds = {(t.kind, t.component) for t in record.triggers}
        assert ("trust-drop", "cloud-00") in kinds
        advice = engine.registry.status("reallocation/cloud-00")
        assert advice["advice"] == "avoid"
        # Placement reads the same threshold: the device MAPE flags is
        # one no deploy may use.
        service = mobility_scenario().to_service_template()
        constraints = engine.manager.security.constraints_for(service)
        task = Task("t", megaops=1.0)
        device = engine.infrastructure.device
        assert not is_eligible(device("cloud-00"), task, constraints)
        assert is_eligible(device("cloud-01"), task, constraints)

    def test_repeated_iterations_stable(self, engine):
        records = engine.mape_iterate(3)
        # Second pass should execute fewer actions (already configured).
        assert records[1].executed <= records[0].executed


class TestPinnedEngine:
    """The seed-only engine, pinned: for seeds 0-9 the engine builds its
    own infrastructure, KB, agents and planner, deploys the mobility
    template through the agent API, loses ``cloud-01``, runs three MAPE
    cycles (the fault one replans with the portfolio) and redeploys
    with the portfolio. Hashes both responses and the trace JSONL."""

    PINNED = ("3d1564ebd46e7a2fdc43242cd8c33d45"
              "d47d6405173582cb57cebe7a8901972e")

    def test_engine_wiring_matches_pin(self):
        from repro.continuum.faults import FaultInjector
        from repro.usecases import mobility
        digest = hashlib.sha256()
        for seed in range(10):
            engine = CognitiveEngine(seed=seed)
            service = mobility.build_scenario().to_service_template()
            first = engine.deploy(service)
            FaultInjector(engine.infrastructure).inject_now("cloud-01")
            engine.mape_iterate(3)
            second = engine.deploy(service, strategy="portfolio")
            for response in (first, second):
                digest.update(json.dumps(
                    {"status": response.status, "body": response.body},
                    sort_keys=True).encode())
            digest.update(engine.ctx.trace.to_jsonl().encode())
        assert digest.hexdigest() == self.PINNED


class TestAgentApi:
    def make_request(self, engine, body, token=None):
        return ApiRequest(
            method="POST", path="/deployments",
            token=token if token is not None
            else engine.operator_token(), body=body)

    def test_deploy_via_api(self, engine):
        from repro.tosca.parser import dump_service_template
        service = mobility_scenario().to_service_template()
        response = engine.deploy(service, strategy="greedy")
        assert response.status == 201
        assert response.body["deadline_met"] in (True, False)
        assert response.body["security_level"] == "medium"

    def test_bad_token_rejected(self, engine):
        response = engine.agent().handle(self.make_request(
            engine, {"tosca": ""}, token=b"garbage"))
        assert response.status == 401

    def test_invalid_tosca_rejected(self, engine):
        bad = """
tosca_definitions_version: myrtus_tosca_1_0
topology_template:
  node_templates:
    thing:
      type: myrtus.nodes.Container
      properties: {image: x}
"""
        response = engine.agent().handle(
            self.make_request(engine, {"tosca": bad}))
        assert response.status == 422
        assert response.body["problems"]

    def test_unknown_route(self, engine):
        response = engine.agent().handle(ApiRequest(
            "POST", "/nonsense", token=engine.operator_token()))
        assert response.status == 404

    def test_status_route(self, engine):
        response = engine.agent().handle(ApiRequest(
            "GET", "/status", token=engine.operator_token()))
        assert response.status == 200
        assert response.body["layer"] == "edge"
        assert len(response.body["peers"]) == 2

    def test_deployments_listing(self, engine):
        engine.deploy(mobility_scenario().to_service_template())
        response = engine.agent().handle(ApiRequest(
            "GET", "/deployments", token=engine.operator_token()))
        assert response.status == 200
        assert len(response.body) == 1

    def test_auditor_cannot_deploy(self, engine):
        agent = engine.agent()
        agent.auth.register_user("aud", ["auditor"])
        token = agent.auth.issue_token("aud")
        response = agent.handle(self.make_request(
            engine, {"tosca": ""}, token=token))
        assert response.status == 403

    def test_csar_deployment(self, engine):
        from repro.tosca.csar import CsarArchive
        service = mobility_scenario().to_service_template()
        archive = CsarArchive(service)
        response = engine.agent().handle(self.make_request(
            engine, {"csar": archive.to_bytes()}))
        assert response.status == 201

    @pytest.mark.parametrize("token, body, status", [
        (lambda engine: engine.operator_token().decode(), {}, 401),
        (lambda engine: None, {}, 401),
        (lambda engine: engine.operator_token(), {"tosca": 123}, 422),
        (lambda engine: engine.operator_token(), {"tosca": None}, 422),
        (lambda engine: engine.operator_token(), {"csar": "a string"}, 422),
    ], ids=["str-token", "none-token", "int-tosca", "none-tosca",
            "str-csar"])
    def test_wrong_typed_input_is_answered(self, engine, token, body,
                                           status):
        """Outside input of the wrong type gets 401/422, never raises."""
        response = engine.agent().handle(ApiRequest(
            "POST", "/deployments", token=token(engine), body=body))
        assert response.status == status

    @pytest.mark.parametrize("edit, problem", [
        (lambda svc: svc.policies[-1].properties.update(
            data_class="secret"), "data_class 'secret'"),
        (lambda svc: svc.node_templates["fusion"].properties.update(
            kernel_class="quantum"), "kernel_class 'quantum'"),
    ], ids=["data_class", "kernel_class"])
    def test_enum_property_off_its_values_is_422(self, engine, edit,
                                                 problem):
        """An enumerated property off its values is a validation
        problem, not a ``ValueError`` out of the service translation."""
        from repro.tosca.parser import dump_service_template
        service = mobility_scenario().to_service_template()
        assert service.policies[-1].type == "myrtus.policies.Privacy"
        edit(service)
        response = engine.agent().handle(self.make_request(
            engine, {"tosca": dump_service_template(service)}))
        assert response.status == 422
        assert any(problem in p for p in response.body["problems"])
        assert engine.manager.workload.deployments == []

    @pytest.mark.parametrize("strategy", ["nope", 123, ["greedy"]])
    def test_unknown_strategy_is_422_before_any_placement(self, engine,
                                                          strategy):
        agent = engine.agent()
        service = mobility_scenario().to_service_template()
        from repro.tosca.parser import dump_service_template
        response = agent.handle(self.make_request(engine, {
            "tosca": dump_service_template(service),
            "strategy": strategy}))
        assert response.status == 422
        assert "unknown placement strategy" in response.body["error"]
        assert agent.negotiations == []
        for peer in [agent] + agent.peers:
            assert peer.manager.workload.deployments == []

    @pytest.mark.parametrize("method", [None, 7, b"POST"])
    def test_non_string_method_is_no_route(self, engine, method):
        response = engine.agent().handle(ApiRequest(
            method, "/deployments", token=engine.operator_token()))
        assert response.status == 404
        assert "no route" in response.body["error"]

    def test_malformed_tosca_and_csar_are_422(self, engine):
        import io
        import zipfile
        template = "Definitions/service-template.yaml"
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("TOSCA-Metadata/TOSCA.meta",
                             f"Entry-Definitions: {template}\n")
            archive.writestr(template, b"\xff\xfe not utf-8")
        bodies = [
            {"csar": buffer.getvalue()},
            {"tosca": "tosca_definitions_version: myrtus_tosca_1_0\n"
                      "metadata: oops\n"
                      "topology_template: {node_templates: {a: {}}}\n"},
        ]
        for body, where in zip(bodies, [template, "metadata"]):
            response = engine.agent().handle(self.make_request(engine, body))
            assert response.status == 422
            assert where in response.body["error"]


class TestKbProxy:
    def test_namespacing(self):
        kb = KnowledgeBase(replicas=1, seed=0)
        a = KbProxy(kb, "agent-a")
        b = KbProxy(kb, "agent-b")
        a.put("state", 1)
        b.put("state", 2)
        assert a.get("state") == 1
        assert b.get("state") == 2
        assert a.range() == {"state": 1}

    def test_bad_namespace_rejected(self):
        kb = KnowledgeBase(replicas=1, seed=0)
        with pytest.raises(OrchestrationError):
            KbProxy(kb, "has/slash")

    def test_watch_scoped(self):
        kb = KnowledgeBase(replicas=1, seed=0)
        a = KbProxy(kb, "agent-a")
        b = KbProxy(kb, "agent-b")
        events = []
        a.watch("", events.append)
        b.put("noise", 1)
        a.put("signal", 2)
        assert len(events) == 1


class TestDeploymentProxy:
    def federation(self):
        fed = ContinuumFederation()
        edge = KubeCluster("edge")
        edge.add_node(Node("fpga", ResourceRequest(2000, 2 * GIB),
                           labels={"security-level": "high"}))
        cloud = KubeCluster("cloud")
        cloud.add_node(Node("srv", ResourceRequest(64000, 256 * GIB),
                            labels={"security-level": "high"}))
        fed.add_cluster(edge)
        fed.add_cluster(cloud)
        fed.peer("edge", "cloud")
        return fed

    def test_pod_spec_translation(self):
        service = mobility_scenario().to_service_template()
        spec = container_to_pod_spec(service, "perception")
        assert spec.name == "mobility-perception"
        assert spec.min_security_level == "medium"
        assert spec.request.cpu_millicores == 800

    def test_deploy_service_places_all_pods(self):
        fed = self.federation()
        proxy = DeploymentProxy(fed, "edge")
        service = mobility_scenario().to_service_template()
        record = proxy.deploy_service(service)
        phases = proxy.service_phases("mobility")
        assert len(phases) == 3
        assert all(phase in ("Scheduled", "Running")
                   for phase in phases.values())

    def test_rollback_on_unplaceable(self):
        fed = ContinuumFederation()
        tiny = KubeCluster("tiny")
        tiny.add_node(Node("n", ResourceRequest(100, GIB // 4),
                           labels={"security-level": "high"}))
        fed.add_cluster(tiny)
        proxy = DeploymentProxy(fed, "tiny")
        service = mobility_scenario().to_service_template()
        with pytest.raises(OrchestrationError, match="unplaceable"):
            proxy.deploy_service(service)
        assert not tiny.pods  # everything rolled back

    def test_undeploy_cleans_up(self):
        fed = self.federation()
        proxy = DeploymentProxy(fed, "edge")
        service = mobility_scenario().to_service_template()
        proxy.deploy_service(service)
        proxy.undeploy_service("mobility")
        assert not fed.clusters["edge"].pods
        with pytest.raises(NotFoundError):
            proxy.service_phases("mobility")

    def test_duplicate_deploy_rejected(self):
        fed = self.federation()
        proxy = DeploymentProxy(fed, "edge")
        service = mobility_scenario().to_service_template()
        proxy.deploy_service(service)
        with pytest.raises(OrchestrationError):
            proxy.deploy_service(service)


class TestNegotiation:
    def test_agent_negotiates_when_local_placement_fails(self):
        """An edge-only agent with impossible constraints asks a peer."""
        sim = Simulator()
        # Tiny infrastructure: only a RISC-V (low security) at the edge.
        from repro.continuum.infrastructure import Infrastructure
        from repro.continuum.devices import DeviceKind
        lone = Infrastructure(ctx=sim)
        lone.add_device(DeviceKind.RISCV_CGRA, name="riscv")
        lone_manager = MirtoManager(lone)
        full_engine = CognitiveEngine(seed=2)
        from repro.mirto.agent import MirtoAgent
        weak_agent = MirtoAgent("weak-edge", "edge", lone_manager)
        weak_agent.peer_with(full_engine.agent("cloud"))
        service = mobility_scenario().to_service_template()  # medium sec
        outcome = weak_agent.deploy_or_negotiate(service)
        assert outcome.report.makespan_s > 0
        assert weak_agent.negotiations
        assert weak_agent.negotiations[-1].accepted
