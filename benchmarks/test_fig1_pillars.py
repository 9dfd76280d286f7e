"""Reproduces paper FIGURE 1: the three technical pillars.

Fig. 1 shows MYRTUS organized into three pillars (Continuum Computing
Infrastructure, MIRTO Cognitive Engine, Design & Programming
Environment). This bench instantiates all three, runs one full
design-time -> runtime round trip across them, and regenerates the
figure as a per-pillar component inventory with the integration
hand-offs (Pillar 3 -> 2: deployment specification; Pillar 1 <-> 2:
shared KB) demonstrated live.
"""

import pytest

from repro.dpe import DesignFlow
from repro.mirto import CognitiveEngine
from repro.tosca import CsarArchive
from repro.usecases import mobility

from _report import emit, table

PILLAR_INVENTORY = {
    "Pillar 1: Continuum Computing Infrastructure": [
        ("DES kernel + device models", "repro.continuum"),
        ("network + protocols + slicing", "repro.net"),
        ("mini-Kubernetes + LIQO peering", "repro.kube"),
        ("Raft KB + Resource Registry", "repro.kb"),
        ("monitors (app/telemetry/infra)", "repro.monitoring"),
        ("Table II crypto + trust", "repro.security"),
    ],
    "Pillar 2: MIRTO Cognitive Engine": [
        ("MAPE-K loop", "repro.mirto.mape"),
        ("4-driver MIRTO Manager", "repro.mirto.manager"),
        ("swarm placement (PSO/ACO)", "repro.mirto.swarm"),
        ("FedAvg/FedProx + Q-learning", "repro.mirto.learning"),
        ("agent API + negotiation", "repro.mirto.agent"),
        ("KB/deployment proxies", "repro.mirto.proxies"),
    ],
    "Pillar 3: Design & Programming Environment": [
        ("scenario modeler + KPI estimation", "repro.dpe.modeling"),
        ("attack-defence trees", "repro.dpe.adt"),
        ("mini-MLIR (dfg/base2/cgra)", "repro.dpe.mlir"),
        ("HLS + MDC composition", "repro.dpe.hls"),
        ("DSE + operating points", "repro.dpe.dse"),
        ("TOSCA + CSAR", "repro.tosca"),
    ],
}


def import_all_components():
    """Every inventory entry must import — the pillar actually exists."""
    import importlib
    count = 0
    for entries in PILLAR_INVENTORY.values():
        for _, module_name in entries:
            importlib.import_module(module_name)
            count += 1
    return count


def round_trip():
    """Pillar 3 designs -> Pillar 2 orchestrates -> Pillar 1 executes."""
    scenario = mobility.build_scenario(vehicles=2)
    spec = DesignFlow(seed=5).run(scenario, mobility.build_adt())
    engine = CognitiveEngine(seed=5)
    # Hand-off Pillar 3 -> 2 is the CSAR deployment specification.
    archive = CsarArchive.from_bytes(spec.csar_bytes)
    from repro.mirto import ApiRequest
    response = engine.agent().handle(ApiRequest(
        "POST", "/deployments", token=engine.operator_token(),
        body={"csar": spec.csar_bytes, "strategy": "greedy"}))
    assert response.status == 201, response.body
    # Hand-off Pillar 1 <-> 2 is the shared KB: the deployment left its
    # status there.
    status = engine.registry.status("deployment/smart-mobility")
    return {
        "csar_artifacts": len(archive.artifacts),
        "operating_points": len(spec.operating_points),
        "countermeasures": len(spec.countermeasures),
        "makespan_ms": response.body["makespan_s"] * 1e3,
        "kb_status": status,
        "devices": len(engine.infrastructure),
    }


def test_fig1_pillar_inventory(benchmark):
    count = benchmark.pedantic(import_all_components, rounds=1,
                               iterations=1)
    rows = []
    for pillar, entries in PILLAR_INVENTORY.items():
        for i, (component, module_name) in enumerate(entries):
            rows.append([pillar if i == 0 else "", component,
                         module_name])
    lines = ["FIGURE 1 (reproduced): technical pillars and their",
             f"components — {count} modules, all importable", ""]
    lines += table(["Pillar", "Component", "Module"], rows)
    emit("fig1_pillars", lines)
    assert count == 18


def test_fig1_pillar_integration_round_trip(benchmark):
    result = benchmark.pedantic(round_trip, rounds=1, iterations=1)
    lines = [
        "FIGURE 1 (reproduced): cross-pillar integration round trip",
        "",
        f"Pillar 3 -> 2 hand-off (deployment specification):",
        f"  CSAR artifacts: {result['csar_artifacts']}",
        f"  operating points: {result['operating_points']}",
        f"  countermeasures: {result['countermeasures']}",
        f"Pillar 2 -> 1 (orchestrated execution):",
        f"  devices: {result['devices']}",
        f"  measured makespan: {result['makespan_ms']:.1f} ms",
        f"Pillar 1 <-> 2 (shared KB observability):",
        f"  deployment status in KB: {result['kb_status']}",
    ]
    emit("fig1_integration", lines)
    assert result["csar_artifacts"] >= 4
    assert result["kb_status"]["strategy"] == "greedy"
