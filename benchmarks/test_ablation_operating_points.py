"""Ablation: design-time operating points at runtime (refs [29], [30]).

The paper envisions CSAR meta-information describing per-application
operating points, "leveraged at runtime to improve energy efficiency".
This ablation compares three node-configuration policies on the same
workload mix: (a) fixed performance point, (b) fixed low-power point,
(c) MIRTO Node Manager picking per-task points against apportioned
latency budgets. Expected shape: fixed-performance wastes energy,
fixed-low-power misses deadlines under load, adaptive gets (close to)
the best of both.
"""

import pytest

from repro.mirto import CognitiveEngine
from repro.usecases import mobility, run_sessions

from _report import emit, table


def run_policy(policy: str, sessions: int = 5):
    """One engine per policy so device state does not leak across."""
    engine = CognitiveEngine(seed=51)
    scenario = mobility.build_scenario(vehicles=2)
    if policy in ("performance", "low-power"):
        # Pin every device and disable the Node Manager's choices by
        # replacing its selector with the pinned point.
        for device in engine.infrastructure.devices.values():
            device.set_operating_point(policy)
        engine.manager.node_manager.select_operating_point = \
            lambda device, task, budget, _p=policy: _p
    stats = run_sessions(engine, scenario, "greedy", sessions=sessions)
    switches = engine.manager.node_manager.switches
    return stats, switches


def test_operating_point_policies(benchmark):
    def sweep():
        return {policy: run_policy(policy)
                for policy in ("performance", "low-power", "adaptive")}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for policy, (stats, switches) in results.items():
        rows.append([
            policy,
            f"{stats.mean_makespan_s * 1e3:.1f}",
            f"{stats.total_energy_j:.2f}",
            f"{stats.deadline_hit_rate:.0%}",
            str(switches),
        ])
    lines = ["ABLATION: node operating-point policy (mobility fleet=2,",
             "greedy placement, 5 sessions, budget "
             f"{mobility.LATENCY_BUDGET_S * 1e3:.0f} ms)", ""]
    lines += table(["policy", "mean ms", "energy J", "deadline hit",
                    "op switches"], rows)
    emit("ablation_operating_points", lines)
    perf, _ = results["performance"]
    eco, _ = results["low-power"]
    adaptive, switches = results["adaptive"]
    # Shape: low-power is slowest, performance is hungriest; adaptive
    # meets deadlines like performance but cheaper than performance.
    assert eco.mean_makespan_s > perf.mean_makespan_s
    assert adaptive.deadline_hit_rate >= eco.deadline_hit_rate
    assert adaptive.total_energy_j < perf.total_energy_j
    assert adaptive.deadline_hit_rate == perf.deadline_hit_rate == 1.0


def test_dse_exported_points_span_the_tradeoff(benchmark):
    """The meta-information itself: DSE operating points must form a
    real latency/energy trade-off curve, not a single point, for the
    runtime to have something to choose between."""

    def export():
        import random
        from repro.dpe import (
            GeneticExplorer,
            MappingEvaluator,
            export_operating_points,
        )
        from repro.dpe.modeling import DEFAULT_PLATFORM
        scenario = mobility.build_scenario(vehicles=4)
        evaluator = MappingEvaluator(scenario.to_application(),
                                     DEFAULT_PLATFORM)
        explorer = GeneticExplorer(evaluator, random.Random(0),
                                   population=40, generations=30,
                                   objective="edp")
        return export_operating_points(explorer.explore(), max_points=5)

    points = benchmark.pedantic(export, rounds=1, iterations=1)
    rows = [[p["name"], f"{p['latency_s'] * 1e3:.2f}",
             f"{p['energy_j'] * 1e3:.1f}"] for p in points]
    lines = ["ABLATION: DSE-exported operating points (mobility,",
             "fleet=4, GA over the MYRTUS site platform)", ""]
    lines += table(["point", "latency ms", "energy mJ"], rows)
    emit("ablation_operating_points_pareto", lines)
    assert len(points) >= 2, "need a trade-off, not a single point"
    # Pareto shape: latency up, energy down along the exported list.
    latencies = [p["latency_s"] for p in points]
    energies = [p["energy_j"] for p in points]
    assert latencies == sorted(latencies)
    assert energies == sorted(energies, reverse=True)


def test_mape_drives_points_with_load(benchmark):
    """The MAPE loop moves idle devices to low-power and loaded devices
    up — the runtime half of the operating-point story."""

    def probe():
        engine = CognitiveEngine(seed=53)
        engine.mape_iterate(1)
        idle_points = {
            d.name: d.operating_point.name
            for d in engine.infrastructure.devices.values()
            if d.operating_points and "low-power" in d.operating_points
        }
        # Now heavily load one FPGA and re-run the loop.
        from repro.continuum.workload import Task
        device = engine.infrastructure.device("fpga-00-0")
        sim = engine.sim
        for i in range(60):
            sim.process(device.execute(Task(f"burn-{i}", megaops=400)))
        sim.run(until=sim.now + 2.0)  # mid-burst, with completions
        engine.mape_iterate(1)
        return idle_points, device.operating_point.name

    idle_points, loaded_point = benchmark.pedantic(probe, rounds=1,
                                                   iterations=1)
    lines = ["ABLATION: MAPE-driven operating points", "",
             f"idle fleet: {sum(1 for p in idle_points.values() if p == 'low-power')}"
             f"/{len(idle_points)} devices at low-power",
             f"fpga-00-0 under sustained load: {loaded_point}"]
    emit("ablation_operating_points_mape", lines)
    assert all(p == "low-power" for p in idle_points.values())
    assert loaded_point == "performance"
