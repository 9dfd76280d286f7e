"""Reproduces paper FIGURE 4: the Design and Programming Environment.

Fig. 4 shows the three-step DPE flow: (1) continuum modeling, simulation
and analysis; (2) model to implementation; (3) node-level optimization
and deployment. This bench runs the complete flow on both MYRTUS use
cases, regenerates the figure as a per-step artifact/timing inventory,
and verifies the flow's correctness spine: functional equivalence of the
IR across quantization and hardware lowering.
"""

import time

import numpy as np
import pytest

from repro.dpe import (
    DesignFlow,
    estimate_kpis,
    import_onnx,
    lower_to_hardware,
    reference_mlp,
    synthesize_countermeasures,
)
from repro.dpe.mlir import Base2Type, Interpreter, Module
from repro.tosca import CsarArchive, ToscaValidator
from repro.usecases import mobility, telerehab

from _report import emit, emit_timing, table


def run_flow(case, seed=3):
    """Run the three steps with per-step timing."""
    scenario = case.build_scenario()
    adt = case.build_adt()
    timings = {}

    start = time.perf_counter()
    service = scenario.to_service_template()
    ToscaValidator().validate(service)
    kpis = estimate_kpis(scenario, seed=seed)
    adt_result = synthesize_countermeasures(adt, budget=8.0)
    timings["step 1: modeling + analysis"] = time.perf_counter() - start

    start = time.perf_counter()
    spec = DesignFlow(seed=seed).run(scenario, adt, defence_budget=8.0)
    timings["steps 2+3: implementation + node-level"] = \
        time.perf_counter() - start
    return scenario, spec, kpis, adt_result, timings


@pytest.mark.parametrize("case", [mobility, telerehab],
                         ids=["mobility", "telerehab"])
def test_fig4_flow_per_use_case(case, benchmark):
    scenario, spec, kpis, adt_result, timings = benchmark.pedantic(
        run_flow, args=(case,), rounds=1, iterations=1)
    artifact_rows = [[path, str(size)]
                     for path, size in spec.artifact_inventory.items()]
    name = f"fig4_dpe_flow_{scenario.name}"
    title = f"FIGURE 4 (reproduced): DPE flow on {scenario.name}"
    lines = [
        title,
        emit_timing(name, [title, ""] + [
            f"{stage}: {seconds * 1e3:.0f} ms"
            for stage, seconds in timings.items()]),
        "",
        f"step 1 outputs:",
        f"  KPI estimate: {kpis.latency_s * 1e3:.1f} ms / "
        f"{kpis.energy_j:.2f} J (budget met: {kpis.meets_budget}, "
        f"bottleneck: {kpis.bottleneck_component})",
        f"  ADT: risk {adt_result.baseline_probability:.2f} -> "
        f"{adt_result.residual_probability:.3f} "
        f"({adt_result.risk_reduction:.0%} reduction, "
        f"cost {adt_result.total_cost:.1f})",
        "",
        f"step 2 outputs: {len(spec.countermeasures)} countermeasure "
        f"snippets, kernels for "
        f"{sum(1 for c in scenario.components if c.accelerable)} "
        f"accelerable components",
        "",
        f"step 3 outputs ({len(spec.csar_bytes)}-byte CSAR):",
    ]
    lines += table(["artifact", "bytes"], artifact_rows)
    emit(name, lines)
    # The deployment specification must be complete and loadable.
    archive = CsarArchive.from_bytes(spec.csar_bytes)
    assert "meta/operating-points.json" in archive.artifacts
    assert any(p.startswith("bitstreams/") for p in archive.artifacts)
    assert spec.operating_points
    assert spec.countermeasures


def test_fig4_lowering_equivalence_spine(benchmark):
    """The flow's correctness claim: every lowering stage preserves
    semantics. Float IR ~= base2 IR (bounded quantization error), and
    the error shrinks as the fixed-point format widens."""

    def measure():
        rng = np.random.default_rng(17)
        samples = rng.normal(0, 1, (8, 8))
        errors = {}
        for width, frac in ((8, 4), (16, 8), (24, 12)):
            module = Module(f"equiv-{width}")
            model = reference_mlp(rng, input_dim=8, hidden=12,
                                  output_dim=4)
            func = import_onnx(model, module)
            worst = 0.0
            deployment = lower_to_hardware(
                module, func, samples[:1], fixed=Base2Type(width, frac),
                target="fpga")
            interp = Interpreter(module)
            for row in samples:
                ref = interp.run(func, row[None, :])[0]
                approx = interp.run(deployment.fixed_function,
                                    row[None, :])[0]
                worst = max(worst, float(np.max(np.abs(ref - approx))))
            errors[f"base2 {width}.{frac}"] = worst
        return errors

    errors = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["FIGURE 4 (reproduced): lowering equivalence — worst-case",
             "|float - fixed| over 8 random MLP inputs", ""]
    lines += table(["format", "worst abs error"],
                   [[name, f"{err:.5f}"]
                    for name, err in errors.items()])
    emit("fig4_lowering_equivalence", lines)
    values = list(errors.values())
    assert values[0] > values[1] > values[2]
    assert values[2] < 0.01


def test_fig4_csar_is_kubernetes_deployable(benchmark):
    """Fig. 4's endpoint: the .csar enables 'workload deployment and
    management in all TOSCA-compatible environments, including
    Kubernetes-based' — prove it by deploying the CSAR onto the kube
    federation through the deployment proxy."""

    def deploy():
        from repro.kube import (
            ContinuumFederation,
            KubeCluster,
            Node,
            ResourceRequest,
        )
        from repro.mirto.proxies import DeploymentProxy
        spec = DesignFlow(seed=4).run(mobility.build_scenario(vehicles=1))
        archive = CsarArchive.from_bytes(spec.csar_bytes)
        fed = ContinuumFederation()
        edge = KubeCluster("edge")
        edge.add_node(Node("fpga", ResourceRequest(4000, 8 * 1024**3),
                           labels={"security-level": "high"}))
        cloud = KubeCluster("cloud")
        cloud.add_node(Node("srv", ResourceRequest(64000, 256 * 1024**3),
                            labels={"security-level": "high"}))
        fed.add_cluster(edge)
        fed.add_cluster(cloud)
        fed.peer("edge", "cloud")
        proxy = DeploymentProxy(fed, "edge")
        record = proxy.deploy_service(archive.service)
        return proxy.service_phases(archive.service.name)

    phases = benchmark.pedantic(deploy, rounds=1, iterations=1)
    lines = ["FIGURE 4 (reproduced): CSAR deployed onto the Kubernetes",
             "federation via the LIQO-backed deployment proxy", ""]
    lines += table(["pod", "phase"],
                   [[pod, phase] for pod, phase in sorted(phases.items())])
    emit("fig4_csar_kube_deploy", lines)
    assert len(phases) == 5  # the five mobility components
    assert all(phase in ("Scheduled", "Running")
               for phase in phases.values())
