#!/usr/bin/env python3
"""Smart Mobility use case end-to-end (paper Sec. I, TNO + CRF).

Runs the full MYRTUS story for the mobility scenario:

1. DPE (Pillar 3): scenario model + attack-defence tree -> KPI
   estimates, synthesized countermeasures, operating points, CSAR.
2. MIRTO (Pillar 2): deploy the CSAR through the agent API; compare the
   cognitive placement against the baselines as the fleet grows.
3. Infrastructure (Pillar 1): per-layer report and offload statistics.

Run:  python examples/smart_mobility.py
"""

from repro.dpe import DesignFlow
from repro.mirto import CognitiveEngine
from repro.usecases import mobility, run_sessions


def main() -> None:
    # -- Pillar 3: design time -----------------------------------------
    scenario = mobility.build_scenario(vehicles=2)
    spec = DesignFlow(seed=7).run(scenario, mobility.build_adt(),
                                  defence_budget=8.0)
    print("== DPE (design time) ==")
    print(f"estimated latency: {spec.kpi_estimate.latency_s * 1e3:.1f} ms "
          f"(budget {mobility.LATENCY_BUDGET_S * 1e3:.0f} ms, "
          f"meets: {spec.kpi_estimate.meets_budget})")
    print(f"threat risk reduced by "
          f"{spec.adt_result.risk_reduction:.0%} "
          f"at cost {spec.adt_result.total_cost:.1f}")
    for snippet in spec.countermeasures:
        print(f"  countermeasure: {snippet}")
    print(f"operating points exported: {len(spec.operating_points)}")
    print(f"CSAR: {len(spec.csar_bytes)} bytes, "
          f"{len(spec.artifact_inventory)} artifacts")

    # -- Pillar 2: runtime orchestration ----------------------------------
    print("\n== MIRTO (runtime) ==")
    engine = CognitiveEngine(seed=7)
    response = engine.deploy(spec.service, strategy="pso")
    assert response.ok, response.body
    print(f"cognitive placement: {response.body['placement']}")
    print(f"measured makespan: "
          f"{response.body['makespan_s'] * 1e3:.1f} ms, "
          f"deadline met: {response.body['deadline_met']}")

    print("\nstrategy comparison (2-vehicle fleet, 5 sessions each):")
    print(f"{'strategy':<12} {'mean ms':>9} {'p95 ms':>9} "
          f"{'energy J':>9} {'hit rate':>9}")
    for strategy in ("random", "round-robin", "greedy", "pso", "aco"):
        stats = run_sessions(engine, scenario, strategy, sessions=5)
        print(f"{strategy:<12} {stats.mean_makespan_s * 1e3:>9.1f} "
              f"{stats.p95_makespan_s * 1e3:>9.1f} "
              f"{stats.total_energy_j:>9.2f} "
              f"{stats.deadline_hit_rate:>9.0%}")

    # -- Pillar 1: what the continuum did ----------------------------------
    print("\n== Infrastructure ==")
    for layer, report in engine.infrastructure.layer_report().items():
        print(f"{layer:>6}: {report['tasks_executed']:.0f} tasks, "
              f"util {report['mean_utilization']:.1%}, "
              f"{report['accelerated_tasks']:.0f} accelerated")
    offloads = engine.infrastructure.offloads
    print(f"offloads: {offloads.horizontal} horizontal, "
          f"{offloads.vertical_up} up, {offloads.vertical_down} down")


if __name__ == "__main__":
    main()
