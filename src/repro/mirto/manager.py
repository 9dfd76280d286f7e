"""The MIRTO Manager and its four optimization drivers (paper Sec. IV/VI).

"Each MIRTO Manager handles data and information of various types ...
multiple drivers are there, different cooperating elements within the
Manager": the **WL Manager** places and runs workloads, gathering (i)
resource state from the Resource Registry, (ii) historical data/models
from the KB, (iii) orchestration costs from the **Network Manager**, and
(iv) trust/security constraints from the **Privacy and Security
Manager**; the **Node Manager** "selects the configuration for HW
acceleration that is most suitable" (operating points).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import NotFoundError, OrchestrationError, SecurityError
from repro.continuum.devices import Device, Layer
from repro.continuum.infrastructure import Infrastructure
from repro.continuum.workload import (
    Application,
    KernelClass,
    PrivacyClass,
    Task,
    TaskRequirements,
)
from repro.kb.registry import ResourceRegistry
from repro.mirto.learning import LinearModel, QLearningAgent
from repro.mirto.placement import (
    ExecutionReport,
    Placement,
    PlacementConstraints,
    PlacementRequest,
    execute_placement,
    make_strategy,
    solve_traced,
)
from repro.net.slicing import SliceManager
from repro.security.levels import SecurityLevel
from repro.security.trust import InteractionOutcome, TrustEngine
from repro.tosca.model import ServiceTemplate

#: Trust below which a device is not used: placement filters it out
#: (:meth:`PrivacySecurityManager.constraints_for`) and MAPE's Analyze
#: stage raises a ``trust-drop`` trigger for it.
TRUST_THRESHOLD = 0.3

#: Placement strategy of a deploy that names none.
DEFAULT_STRATEGY = "greedy"


def service_to_application(service: ServiceTemplate) -> Application:
    """Translate a TOSCA service's containers into a task DAG.

    Container properties carry the workload model (megaops, bytes,
    kernel class); ConnectsTo requirements become dependency edges.
    """
    app = Application(service.name)
    privacy_by_target: dict[str, PrivacyClass] = {}
    latency_budget = float("inf")
    for policy in service.policies:
        if policy.type == "myrtus.policies.Privacy":
            for target in policy.targets:
                privacy_by_target[target] = PrivacyClass(
                    policy.properties["data_class"])
        elif policy.type == "myrtus.policies.Latency":
            latency_budget = min(
                latency_budget,
                policy.properties.get("end_to_end_budget_s",
                                      float("inf")))
    for template in service.containers():
        props = template.properties
        app.add_task(Task(
            name=template.name,
            megaops=float(props.get("megaops") or props.get(
                "cpu_millicores", 100)),
            input_bytes=int(props.get("input_bytes", 0)),
            output_bytes=int(props.get("output_bytes", 0)),
            kernel=KernelClass(props.get("kernel_class", "general")),
            memory_bytes=int(props.get("memory_bytes", 64 * 1024**2)),
            requirements=TaskRequirements(
                latency_budget_s=latency_budget,
                privacy=privacy_by_target.get(template.name,
                                              PrivacyClass.PUBLIC),
                min_security_level=service.security_floor(template.name),
            ),
        ))
    container_names = {t.name for t in service.containers()}
    for template in service.containers():
        for req in template.requirements:
            if req.name == "connection" and req.target in container_names:
                nbytes = int(template.properties.get("input_bytes", 0))
                app.connect(req.target, template.name, nbytes)
    return app


class PrivacySecurityManager:
    """Driver 4: security-level negotiation and trust filtering."""

    def __init__(self, infrastructure: Infrastructure):
        self.infrastructure = infrastructure
        self.trust = TrustEngine("mirto",
                                 now_fn=lambda: infrastructure.sim.now)

    def required_level(self, service: ServiceTemplate) -> SecurityLevel:
        return SecurityLevel.parse(service.security_floor())

    def constraints_for(self, service: ServiceTemplate
                        ) -> PlacementConstraints:
        required = self.required_level(service)
        trusted = {name: self.trust.trust(name)
                   for name in self.infrastructure.devices}
        return PlacementConstraints(
            min_security_level=required.value,
            trust_threshold=TRUST_THRESHOLD,
            trusted=trusted,
        )

    def report_outcome(self, device_name: str, success: bool,
                       kpi_adherence: float) -> None:
        """Fold an execution outcome into the device's trust."""
        self.trust.observe(device_name, InteractionOutcome(
            self.infrastructure.sim.now, success, kpi_adherence))


class NetworkManager:
    """Driver 3: network costs, slices, and RL-based congestion advice."""

    def __init__(self, infrastructure: Infrastructure,
                 rng: random.Random):
        self.infrastructure = infrastructure
        self.slices = SliceManager(infrastructure.network)
        self.rng = rng
        # RL: states = discretized max-link congestion (5 bins),
        # actions = {keep-local, offload-to-fog, offload-to-cloud}.
        self.agent = QLearningAgent(n_states=5, n_actions=3, rng=self.rng)
        self.advice_given = 0

    def transfer_cost(self, src: str, dst: str, nbytes: int) -> float:
        """Orchestration-cost query used by the WL Manager."""
        return self.infrastructure.network.estimate_transfer_time(
            src, dst, nbytes)

    def congestion_state(self) -> int:
        """Discretized network congestion (0 = idle, 4 = saturated)."""
        links = self.infrastructure.network.links
        if not links:
            return 0
        worst = max(link.active_flows for link in links)
        return min(4, worst)

    def reserve_slice(self, name: str, tenant: str, src: str, dst: str,
                      fraction: float):
        """Guarantee bandwidth for a latency-critical application."""
        return self.slices.create_slice(name, tenant, src, dst, fraction)

    def advise_layer(self, explore: bool = True) -> Layer:
        """RL advice: which layer new work should prefer right now."""
        self.advice_given += 1
        action = self.agent.act(self.congestion_state(), explore=explore)
        return [Layer.EDGE, Layer.FOG, Layer.CLOUD][action]

    def reward_advice(self, state: int, action: int,
                      measured_latency_s: float,
                      budget_s: float) -> None:
        """Feed back how the advised decision worked out."""
        reward = 1.0 if measured_latency_s <= budget_s else -1.0
        self.agent.learn(state, action, reward, self.congestion_state())


class NodeManager:
    """Driver 2: per-node configuration (operating points).

    Selects operating points either from DSE-exported metadata
    ([29], [30]) or an ML latency model "to estimate the best operating
    point of a workload and, given the current status, change
    configuration accordingly" (Sec. IV).
    """

    def __init__(self, infrastructure: Infrastructure,
                 registry: ResourceRegistry | None = None):
        self.infrastructure = infrastructure
        self.registry = registry
        self.models: dict[str, LinearModel] = {}
        self.switches = 0

    def attach_model(self, device_name: str, model: LinearModel) -> None:
        """Install a (possibly federated) latency model for a device."""
        self.models[device_name] = model

    def predict_latency(self, device: Device, task: Task,
                        operating_point: str) -> float:
        """Model-based prediction if a model exists, else analytic."""
        model = self.models.get(device.name)
        if model is not None:
            perf = device.operating_points[operating_point].perf_scale
            features = np.array([[task.megaops / 1e3, 1.0 / perf,
                                  device.utilization()]])
            return float(model.predict(features)[0])
        return device.estimate_duration(task, operating_point)

    def select_operating_point(self, device: Device, task: Task,
                               latency_budget_s: float) -> str:
        """Cheapest (lowest-power) point predicted to meet the budget."""
        ranked = sorted(device.operating_points.values(),
                        key=lambda op: op.power_scale)
        for point in ranked:
            if self.predict_latency(device, task, point.name) \
                    <= latency_budget_s:
                return point.name
        return ranked[-1].name  # nothing meets it: run flat out

    def apply_operating_point(self, device_name: str, point: str) -> None:
        device = self.infrastructure.device(device_name)
        if device.operating_point.name != point:
            device.set_operating_point(point)
            self.switches += 1
            if self.registry is not None:
                self.registry.update_status(device_name, {
                    "operating_point": point,
                    "utilization": device.utilization(),
                })


@dataclass
class DeploymentOutcome:
    """What the WL Manager returns for one deployment request."""

    service_name: str
    placement: Placement
    report: ExecutionReport
    security_level: str
    deadline_met: bool


class WorkloadManager:
    """Driver 1: deployment and reallocation of workloads."""

    def __init__(self, infrastructure: Infrastructure,
                 security: PrivacySecurityManager,
                 network: NetworkManager,
                 node_manager: NodeManager,
                 registry: ResourceRegistry | None,
                 rng: random.Random):
        self.infrastructure = infrastructure
        self.security = security
        self.network = network
        self.node_manager = node_manager
        self.registry = registry
        self.rng = rng
        self.deployments: list[DeploymentOutcome] = []
        #: Deployed service templates by name — what MAPE's Plan phase
        #: replans against when triggers fire.
        self.services: dict[str, ServiceTemplate] = {}

    def _apply_reallocation_advice(self,
                                   constraints: PlacementConstraints
                                   ) -> None:
        """Honour MAPE 'avoid' flags: devices the Analyze stage marked
        (overloaded or distrusted) are excluded from new placements
        until the flag clears — the reallocation half of CH2's
        'dynamically updated for continuous optimization'."""
        if self.registry is None:
            return
        prefix = "status/reallocation/"
        for key, value in self.registry.kb.range(prefix).items():
            if value.get("advice") in ("avoid", "offload"):
                constraints.trusted[key[len(prefix):]] = 0.0

    def placement_problem(self, service: ServiceTemplate
                          ) -> tuple[Application, PlacementConstraints]:
        """The placement problem *service* poses: its task DAG, and its
        security and trust constraints with application input data
        originating at the first edge device (sensors live at the edge
        in both use cases)."""
        app = service_to_application(service)
        if len(app) == 0:
            raise OrchestrationError(
                f"service {service.name!r} has no deployable containers")
        constraints = self.security.constraints_for(service)
        edge = self.infrastructure.layer_devices(Layer.EDGE)
        constraints.source_device = edge[0].name if edge else None
        return app, constraints

    def _placement_advice(self, service_name: str) -> Placement | None:
        """MAPE's last suggest-placement advice, as a warm start."""
        if self.registry is None:
            return None
        key = f"status/placement-advice/{service_name}"
        value = self.registry.kb.range(key).get(key)
        if not value:
            return None
        assignment = value.get("assignment")
        if not isinstance(assignment, dict):
            return None
        return Placement(dict(assignment), "advice")

    def deploy(self, service: ServiceTemplate,
               strategy: str | None = None) -> DeploymentOutcome:
        """Place, configure and execute one service request.

        Runs inside a ``mirto.deploy`` span (with the placement solve
        as a child span), so a deploy triggered in reaction to a fault
        shows up in the fault's causal trace.
        """
        ctx = self.infrastructure.ctx
        with ctx.tracer.start_span("mirto.deploy", layer="mirto",
                                   service=service.name):
            return self._deploy(service, strategy)

    def _deploy(self, service: ServiceTemplate,
                strategy: str | None) -> DeploymentOutcome:
        app, constraints = self.placement_problem(service)
        self._apply_reallocation_advice(constraints)
        # Place against nominal device configurations; the Node Manager
        # tunes operating points afterwards. Otherwise a device left in
        # "performance" by the previous deployment would attract the
        # next placement, and the two decisions would chase each other.
        for device in self.infrastructure.devices.values():
            if "balanced" in device.operating_points and \
                    device.operating_point.name != "balanced":
                device.set_operating_point("balanced")
        placer = make_strategy(strategy or DEFAULT_STRATEGY, self.rng)
        request = PlacementRequest(
            application=app, infrastructure=self.infrastructure,
            constraints=constraints,
            warm_start=self._placement_advice(service.name))
        placement = solve_traced(placer, request, service.name).placement
        self.services[service.name] = service
        level = self.security.required_level(service)
        # Node Manager: configure the chosen devices. Each task gets a
        # share of the end-to-end budget proportional to its weight on
        # the compute critical path, scaled by a communication headroom
        # factor (transfers between devices consume budget too), so
        # per-task choices compose into an end-to-end deadline.
        budget = min((t.requirements.latency_budget_s for t in app.tasks),
                     default=float("inf"))
        critical = max(app.critical_path_megaops(), 1e-9)
        compute_share = 0.7  # reserve 30% of the budget for transfers
        for task in app.tasks:
            device = self.infrastructure.device(
                placement.device_of(task.name))
            if len(device.operating_points) > 1:
                task_budget = budget
                if budget != float("inf"):
                    task_budget = compute_share * budget \
                        * task.megaops / critical
                point = self.node_manager.select_operating_point(
                    device, task, task_budget)
                self.node_manager.apply_operating_point(device.name, point)
        report = execute_placement(app, placement, self.infrastructure,
                                   source_device=constraints.source_device)
        deadline_met = report.makespan_s <= budget
        # Feed trust back per device used.
        adherence = 1.0 if deadline_met else max(
            0.0, budget / max(report.makespan_s, 1e-12))
        for device_name in set(placement.assignment.values()):
            self.security.report_outcome(device_name, True, adherence)
        outcome = DeploymentOutcome(
            service_name=service.name,
            placement=placement,
            report=report,
            security_level=level.value,
            deadline_met=deadline_met,
        )
        self.deployments.append(outcome)
        self.infrastructure.ctx.publish("mirto.deploy.placed", {
            "service": service.name,
            "strategy": placement.strategy,
            "assignment": dict(sorted(placement.assignment.items())),
            "makespan_s": report.makespan_s,
            "energy_j": report.energy_j,
            "deadline_met": deadline_met,
        })
        if self.registry is not None:
            self.registry.update_status(f"deployment/{service.name}", {
                "strategy": placement.strategy,
                "makespan_s": report.makespan_s,
                "energy_j": report.energy_j,
                "deadline_met": deadline_met,
            })
        return outcome


@dataclass
class MirtoManager:
    """The composed manager: all four drivers plus shared state."""

    infrastructure: Infrastructure
    registry: ResourceRegistry | None = None
    seed: int = 0

    def __post_init__(self):
        # All manager randomness hangs off the shared runtime seed
        # tree, namespaced by the manager seed so two managers with
        # different seeds on one continuum stay independent.
        rng_tree = self.infrastructure.ctx.rng
        self.security = PrivacySecurityManager(self.infrastructure)
        self.network = NetworkManager(
            self.infrastructure,
            rng_tree.python(f"mirto.network.{self.seed}"))
        self.node_manager = NodeManager(self.infrastructure, self.registry)
        self.workload = WorkloadManager(
            self.infrastructure, self.security, self.network,
            self.node_manager, self.registry,
            rng_tree.python(f"mirto.workload.{self.seed}"))

    def deploy(self, service: ServiceTemplate,
               strategy: str | None = None) -> DeploymentOutcome:
        return self.workload.deploy(service, strategy)
