#!/usr/bin/env python3
"""Quickstart: deploy a workload onto the MYRTUS continuum in ~40 lines.

Builds the reference edge-fog-cloud infrastructure (paper Fig. 2), wires
up the MIRTO Cognitive Engine (Fig. 3), describes a small application as
a TOSCA service, and deploys it through the full agent API path:
authentication -> TOSCA validation -> MIRTO Manager -> placement ->
simulated execution.

Run:  python examples/quickstart.py
"""

from repro.continuum.workload import KernelClass
from repro.dpe import ComponentModel, ScenarioModel
from repro.mirto import CognitiveEngine


def main() -> None:
    # 1. A fully wired cognitive engine over the reference continuum:
    #    2 edge sites (multicore + FPGA + RISC-V behind a gateway),
    #    1 fog micro data center, 2 cloud servers, Raft-replicated KB.
    engine = CognitiveEngine(seed=42)
    print(f"continuum devices: {len(engine.infrastructure)}")

    # 2. Describe an application: a 3-stage video analytics pipeline.
    scenario = ScenarioModel("hello-continuum", latency_budget_s=0.5,
                             min_security_level="medium")
    scenario.add_component(ComponentModel(
        "decode", megaops=100, input_bytes=200_000))
    scenario.add_component(ComponentModel(
        "detect", megaops=1200, kernel=KernelClass.DSP,
        accelerable=True))
    scenario.add_component(ComponentModel("alert", megaops=50))
    scenario.connect("decode", "detect", 200_000)
    scenario.connect("detect", "alert", 1_000)

    # 3. Deploy through the MIRTO agent's REST-like API (Fig. 3 path).
    response = engine.deploy(scenario.to_service_template(),
                             strategy="greedy")
    assert response.ok, response.body
    body = response.body
    print(f"placed: {body['placement']}")
    print(f"makespan: {body['makespan_s'] * 1000:.1f} ms "
          f"(budget 500 ms, met: {body['deadline_met']})")
    print(f"energy: {body['energy_j']:.3f} J "
          f"at security level {body['security_level']}")

    # 4. One MAPE-K cycle: sense -> analyze -> plan -> execute.
    record = engine.mape_iterate(1)[0]
    print(f"MAPE: sensed {record.sensed_components} components, "
          f"{len(record.triggers)} triggers, "
          f"{record.executed} reconfigurations applied")

    # 5. Everything above happened on one shared RuntimeContext: the
    #    placement decision and each MAPE phase are already on the
    #    causally ordered trace (export with engine.ctx.trace.to_jsonl()).
    mape_events = engine.ctx.trace.records("mirto.**")
    print(f"trace: {len(engine.ctx.trace)} records, e.g. "
          + ", ".join(r.topic for r in mape_events[:3]))

    # 6. The anytime solver portfolio: race exact branch-and-bound
    #    against the swarm heuristics under one 50ms-equivalent budget.
    #    The result says where the winner came from (provenance) and,
    #    when the exact lane finishes its tree, proves optimality.
    from repro.mirto import (PlacementConstraints, PlacementRequest,
                             PortfolioPlacement, SolveBudget)
    from repro.mirto.manager import service_to_application
    app = service_to_application(scenario.to_service_template())
    result = PortfolioPlacement(seed=42).solve(PlacementRequest(
        application=app,
        infrastructure=engine.infrastructure,
        constraints=PlacementConstraints(min_security_level="medium"),
        budget=SolveBudget(deadline_s=0.050)))
    lanes = {s.backend: s.evaluations for s in result.stats}
    print(f"portfolio: cost {result.cost:.4f} from "
          f"{result.provenance} (optimal: {result.optimal}, "
          f"lower bound {result.lower_bound:.4f}; evaluations {lanes})")


if __name__ == "__main__":
    main()
