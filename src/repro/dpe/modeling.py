"""The DPE facade: the three-step design flow of paper Fig. 4.

Step 1 — *Continuum modeling, simulation and analysis*: a scenario model
(the Modelio role) with functional partitioning, an attack-defence tree,
and model-based KPI estimation.

Step 2 — *Model to Implementation*: the accelerable portion of the
application ("Portioned App") becomes IR code; threat countermeasures
are synthesized from the ADT; the component-level view feeds Pillar 2.

Step 3 — *Node Level Optimisation and Deployment*: HLS/CGRA artifacts
for accelerated kernels, DSE-derived operating points, and the final
CSAR deployment specification handed to the MIRTO Cognitive Engine.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ValidationError
from repro.continuum.workload import (
    Application,
    KernelClass,
    PrivacyClass,
    Task,
    TaskRequirements,
)
from repro.dpe.adt import (
    AttackDefenceTree,
    SynthesisResult,
    countermeasure_snippets,
    synthesize_countermeasures,
)
from repro.dpe.dse import (
    GeneticExplorer,
    MappingEvaluator,
    PlatformModel,
    ProcessorModel,
    export_operating_points,
)
from repro.dpe.hls import synthesize
from repro.dpe.mlir.ir import Base2Type, Builder, F32, Module, TensorType
from repro.dpe.mlir.passes import canonicalize, quantize_to_base2
from repro.tosca.csar import (
    COMPONENT_PATHS,
    COUNTERMEASURES_PATH,
    OPERATING_POINTS_PATH,
    CsarArchive,
    bitstream_paths,
)
from repro.tosca.model import (
    NodeTemplate,
    Policy,
    Requirement,
    ServiceTemplate,
)
from repro.tosca.validator import ToscaValidator


@dataclass
class ComponentModel:
    """One functional component of the scenario (maps to a container)."""

    name: str
    megaops: float
    input_bytes: int = 0
    output_bytes: int = 0
    memory_bytes: int = 128 * 1024**2
    kernel: KernelClass = KernelClass.GENERAL
    accelerable: bool = False
    privacy: PrivacyClass = PrivacyClass.PUBLIC


@dataclass
class ScenarioModel:
    """A use-case scenario: components, dependencies, global constraints."""

    name: str
    components: list[ComponentModel] = field(default_factory=list)
    edges: list[tuple[str, str, int]] = field(default_factory=list)
    latency_budget_s: float = 1.0
    min_security_level: str = "medium"
    expected_rate_per_s: float = 1.0

    def add_component(self, component: ComponentModel) -> ComponentModel:
        if any(c.name == component.name for c in self.components):
            raise ValidationError(
                f"duplicate component {component.name!r}")
        self.components.append(component)
        return component

    def connect(self, src: str, dst: str, nbytes: int = 0) -> None:
        names = {c.name for c in self.components}
        for endpoint in (src, dst):
            if endpoint not in names:
                raise ValidationError(f"unknown component {endpoint!r}")
        self.edges.append((src, dst, nbytes))

    def to_application(self) -> Application:
        """The scheduler-facing task DAG for this scenario."""
        app = Application(self.name)
        for component in self.components:
            app.add_task(Task(
                name=component.name,
                megaops=component.megaops,
                input_bytes=component.input_bytes,
                output_bytes=component.output_bytes,
                kernel=component.kernel,
                memory_bytes=component.memory_bytes,
                requirements=TaskRequirements(
                    latency_budget_s=self.latency_budget_s,
                    privacy=component.privacy,
                    min_security_level=self.min_security_level,
                ),
            ))
        for src, dst, nbytes in self.edges:
            app.connect(src, dst, nbytes)
        return app

    def to_service_template(self) -> ServiceTemplate:
        """Step-1 output: the TOSCA topology plus policy set."""
        service = ServiceTemplate(self.name, metadata={
            "template_name": self.name, "generated_by": "dpe-modeler"})
        for component in self.components:
            node_type = ("myrtus.nodes.AcceleratedKernel"
                         if component.accelerable
                         else "myrtus.nodes.Container")
            properties = {
                "image": f"{self.name}/{component.name}:1.0",
                "cpu_millicores": max(
                    100, int(component.megaops)),
                "memory_bytes": component.memory_bytes,
                "kernel_class": component.kernel.value,
                "megaops": float(component.megaops),
                "input_bytes": component.input_bytes,
                "output_bytes": component.output_bytes,
            }
            if component.accelerable:
                properties["bitstream"] = f"{component.name}.bit"
            service.add_node(NodeTemplate(
                name=component.name, type=node_type,
                properties=properties))
        for src, dst, _nbytes in self.edges:
            service.node_templates[dst].requirements.append(
                Requirement("connection", src,
                            "tosca.relationships.ConnectsTo"))
        service.add_policy(Policy(
            "latency-budget", "myrtus.policies.Latency", ["*"],
            {"end_to_end_budget_s": self.latency_budget_s}))
        service.add_policy(Policy(
            "security-floor", "myrtus.policies.Security", ["*"],
            {"min_level": self.min_security_level}))
        for component in self.components:
            if component.privacy is not PrivacyClass.PUBLIC:
                max_layer = ("edge" if component.privacy
                             is PrivacyClass.RAW_PERSONAL else "fog")
                service.add_policy(Policy(
                    f"privacy-{component.name}",
                    "myrtus.policies.Privacy", [component.name],
                    {"data_class": component.privacy.value,
                     "max_layer": max_layer}))
        return service


#: Default DSE platform mirroring one MYRTUS edge site + fog + cloud.
#: Fog and cloud powers are grossed up by the facility PUE (cooling and
#: power-delivery overhead, ~1.3 fog / ~1.8 cloud): that is the energy
#: the continuum actually pays per remote operation, and it is what
#: creates the latency/energy trade-off the operating points span —
#: cloud is fast but expensive per op, edge is slow but frugal.
DEFAULT_PLATFORM = PlatformModel(
    name="myrtus-site",
    processors=(
        ProcessorModel("edge-mc", "cpu", gops=8.0, busy_power_w=7.0,
                       idle_power_w=2.0),
        ProcessorModel("edge-fpga", "fpga", gops=4.0, busy_power_w=9.0,
                       idle_power_w=2.5,
                       accel_kernels={KernelClass.DSP: 8.0,
                                      KernelClass.NEURAL: 6.0,
                                      KernelClass.CRYPTO: 10.0}),
        ProcessorModel("fog-fmdc", "cpu", gops=180.0,
                       busy_power_w=350.0 * 1.3,
                       idle_power_w=90.0 * 1.3,
                       accel_kernels={KernelClass.ANALYTICS: 3.0,
                                      KernelClass.NEURAL: 4.0}),
        ProcessorModel("cloud", "cpu", gops=900.0,
                       busy_power_w=700.0 * 1.8,
                       idle_power_w=180.0 * 1.8,
                       accel_kernels={KernelClass.NEURAL: 12.0,
                                      KernelClass.ANALYTICS: 6.0}),
    ),
    interconnect_latency_s=0.005,
    interconnect_bw_bps=1e9,
)


@dataclass
class KpiEstimate:
    """Step-1 model-based KPI estimation output."""

    latency_s: float
    energy_j: float
    meets_budget: bool
    bottleneck_component: str


def estimate_kpis(scenario: ScenarioModel,
                  platform: PlatformModel = DEFAULT_PLATFORM,
                  seed: int = 0) -> KpiEstimate:
    """Estimate end-to-end KPIs via a quick GA mapping exploration."""
    app = scenario.to_application()
    evaluator = MappingEvaluator(app, platform)
    explorer = GeneticExplorer(evaluator, random.Random(seed),
                               population=16, generations=10)
    results = explorer.explore()
    best = min(results, key=lambda r: r.latency_s)
    bottleneck = max(scenario.components, key=lambda c: c.megaops)
    return KpiEstimate(
        latency_s=best.latency_s,
        energy_j=best.energy_j,
        meets_budget=best.latency_s <= scenario.latency_budget_s,
        bottleneck_component=bottleneck.name,
    )


def build_kernel_ir(module: Module, component: ComponentModel) -> str:
    """Step-2: synthesize IR for an accelerable component's kernel.

    The "Portioned App" parts that require acceleration become tensor
    functions sized from the component's compute demand.
    """
    dim = max(2, min(16, int(component.megaops ** (1 / 3))))
    tensor = TensorType((dim, dim), F32)
    builder = Builder(module, f"{component.name}_kernel", [tensor, tensor])
    product = builder.op("tensor.matmul", [builder.args[0],
                                           builder.args[1]], [tensor])
    summed = builder.op("tensor.add", [product.result(), builder.args[0]],
                        [tensor])
    activated = builder.op("tensor.relu", [summed.result()], [tensor])
    builder.ret([activated.result()])
    return builder.function.name


@dataclass
class DeploymentSpecification:
    """Everything Step 3 hands to the MIRTO Cognitive Engine."""

    service: ServiceTemplate
    csar_bytes: bytes
    operating_points: list[dict]
    countermeasures: list[str]
    kpi_estimate: KpiEstimate
    artifact_inventory: dict[str, int]
    adt_result: SynthesisResult | None = None


class DesignFlow:
    """Runs the full three-step DPE pipeline on a scenario."""

    def __init__(self, platform: PlatformModel = DEFAULT_PLATFORM,
                 seed: int = 0):
        self.platform = platform
        self.seed = seed
        self.validator = ToscaValidator()

    def run(self, scenario: ScenarioModel,
            adt: AttackDefenceTree | None = None,
            defence_budget: float = 10.0) -> DeploymentSpecification:
        """Execute steps 1-3; returns the deployment specification."""
        # Step 1: modeling, threat analysis, KPI estimation.
        service = scenario.to_service_template()
        self.validator.validate(service)
        kpis = estimate_kpis(scenario, self.platform, self.seed)
        adt_result = None
        countermeasures: list[str] = []
        if adt is not None:
            adt_result = synthesize_countermeasures(adt, defence_budget)
            countermeasures = countermeasure_snippets(
                adt_result, scenario.min_security_level)
        # Step 2: model to implementation.
        module = Module(f"{scenario.name}-impl")
        kernel_functions: dict[str, str] = {}
        for component in scenario.components:
            if component.accelerable:
                kernel_functions[component.name] = build_kernel_ir(
                    module, component)
        # Step 3: node-level optimization and deployment.
        archive = CsarArchive(service)
        bitstreams = bitstream_paths(service)
        fixed = Base2Type(16, 8)
        for component_name, func_name in kernel_functions.items():
            canonicalize(module.function(func_name))
            fixed_fn = quantize_to_base2(module, func_name, fixed)
            hls = synthesize(module, fixed_fn.name)
            # CPU fallback of the same kernel, via the standard-compiler
            # path ("the rest of the application is compiled with
            # standard compilers").
            from repro.dpe.codegen import emit_c
            c_path, verilog_path, report_path = (
                path.format(component_name) for path in COMPONENT_PATHS)
            archive.add_artifact(c_path,
                                 emit_c(module, fixed_fn.name).encode())
            archive.add_artifact(verilog_path, hls.verilog.encode())
            archive.add_artifact(
                bitstreams[component_name],
                _pseudo_bitstream(component_name, hls.resources.luts))
            archive.add_artifact(
                report_path,
                json.dumps({
                    "luts": hls.resources.luts,
                    "dsps": hls.resources.dsps,
                    "brams": hls.resources.brams,
                    "latency_cycles": hls.latency_cycles,
                }).encode())
        app = scenario.to_application()
        evaluator = MappingEvaluator(app, self.platform)
        explorer = GeneticExplorer(evaluator, random.Random(self.seed),
                                   population=24, generations=15,
                                   objective="edp")
        operating_points = export_operating_points(explorer.explore())
        archive.add_artifact(OPERATING_POINTS_PATH,
                             json.dumps(operating_points).encode())
        if countermeasures:
            archive.add_artifact(COUNTERMEASURES_PATH,
                                 "\n".join(countermeasures).encode())
        csar = archive.to_bytes()
        return DeploymentSpecification(
            service=service,
            csar_bytes=csar,
            operating_points=operating_points,
            countermeasures=countermeasures,
            kpi_estimate=kpis,
            artifact_inventory=archive.artifact_inventory(),
            adt_result=adt_result,
        )


def _pseudo_bitstream(name: str, luts: int) -> bytes:
    """Deterministic bitstream artifact sized by design complexity.

    The bytes are filler with no security role, so they chain
    :mod:`hashlib`'s SHA-256 rather than the security layer's own.
    """
    body = hashlib.sha256(name.encode()).digest()
    stream = bytearray(b"XLNX")
    target = 128 + luts
    while len(stream) < target:
        body = hashlib.sha256(body).digest()
        stream += body
    return bytes(stream[:target])
