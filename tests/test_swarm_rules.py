"""Tests for rule-based swarm placement and MAPE-driven reallocation."""

import random

import pytest

from repro.continuum import Simulator, build_reference_infrastructure
from repro.continuum.workload import KernelClass
from repro.dpe import ComponentModel, ScenarioModel
from repro.dpe.frevo import SwarmRule
from repro.mirto import CognitiveEngine, make_strategy
from repro.mirto.placement import (
    PlacementConstraints,
    PlacementRequest,
    estimate_placement_kpis,
)
from repro.mirto.swarm_rules import (
    DEFAULT_RULE,
    RuleBasedPlacement,
    evolve_placement_rule,
)


def solve(strategy, app, infrastructure, constraints):
    return strategy.solve(PlacementRequest(
        application=app, infrastructure=infrastructure,
        constraints=constraints)).placement


def pipeline_scenario():
    scenario = ScenarioModel("rule-pipe", latency_budget_s=2.0,
                             min_security_level="low")
    scenario.add_component(ComponentModel("a", 200, input_bytes=50_000))
    scenario.add_component(ComponentModel(
        "b", 2000, kernel=KernelClass.DSP, accelerable=True))
    scenario.add_component(ComponentModel("c", 400))
    scenario.connect("a", "b", 50_000)
    scenario.connect("b", "c", 10_000)
    return scenario


class TestRuleBasedPlacement:
    def test_produces_complete_placement(self):
        infrastructure = build_reference_infrastructure(Simulator())
        app = pipeline_scenario().to_application()
        placement = solve(RuleBasedPlacement(), app, infrastructure,
                          PlacementConstraints())
        assert set(placement.assignment) == {"a", "b", "c"}
        assert placement.strategy == "swarm-rule"

    def test_registered_in_strategy_factory(self):
        strategy = make_strategy("swarm-rule", random.Random(0))
        assert strategy.name == "swarm-rule"

    def test_latency_weighted_rule_prefers_fast_devices(self):
        infrastructure = build_reference_infrastructure(Simulator())
        app = pipeline_scenario().to_application()
        rule = SwarmRule(0.0, 1.0, 0.0, 0.0, 0.0)  # latency only
        placement = solve(RuleBasedPlacement(rule), app, infrastructure,
                          PlacementConstraints())
        # DSP task lands on an accelerator or the fastest machine.
        device = infrastructure.device(placement.device_of("b"))
        assert device.speedup_for(app.task("b")) > 1.0 \
            or device.spec.gops >= 180

    def test_energy_weighted_rule_prefers_frugal_devices(self):
        infrastructure = build_reference_infrastructure(Simulator())
        app = pipeline_scenario().to_application()
        energy_rule = SwarmRule(0.0, 0.0, 1.0, 0.0, 0.0)
        latency_rule = SwarmRule(0.0, 1.0, 0.0, 0.0, 0.0)
        constraints = PlacementConstraints()
        e_place = solve(RuleBasedPlacement(energy_rule), app,
                        infrastructure, constraints)
        l_place = solve(RuleBasedPlacement(latency_rule), app,
                        infrastructure, constraints)
        _, e_energy = estimate_placement_kpis(app, e_place,
                                              infrastructure)
        _, l_energy = estimate_placement_kpis(app, l_place,
                                              infrastructure)
        assert e_energy <= l_energy

    def test_trust_weight_steers_away_from_distrusted(self):
        infrastructure = build_reference_infrastructure(Simulator())
        app = pipeline_scenario().to_application()
        trusted = {name: 1.0 for name in infrastructure.devices}
        trusted["cloud-00"] = 0.0
        trusted["cloud-01"] = 0.0
        rule = SwarmRule(0.0, 0.1, 0.0, 5.0, 0.0)  # trust dominates
        placement = solve(RuleBasedPlacement(rule), app, infrastructure,
                          PlacementConstraints(trusted=trusted))
        assert not any(d.startswith("cloud")
                       for d in placement.assignment.values())

    def test_own_load_spreads_tasks(self):
        """The local-load signal must prevent piling every task on one
        device when utilization is weighted heavily."""
        infrastructure = build_reference_infrastructure(Simulator())
        app = pipeline_scenario().to_application()
        rule = SwarmRule(10.0, 0.01, 0.0, 0.0, 0.0)
        placement = solve(RuleBasedPlacement(rule), app, infrastructure,
                          PlacementConstraints())
        assert len(set(placement.assignment.values())) > 1

    def test_exploration_uses_rng(self):
        infrastructure = build_reference_infrastructure(Simulator())
        app = pipeline_scenario().to_application()
        rule = SwarmRule(0.3, 0.6, 0.1, 0.2, 1.0)  # always explore
        seen = set()
        for seed in range(5):
            placement = solve(
                RuleBasedPlacement(rule, random.Random(seed)), app,
                infrastructure, PlacementConstraints())
            seen.add(tuple(sorted(placement.assignment.items())))
        assert len(seen) > 1


class TestRuleEvolution:
    def test_evolved_rule_not_worse_than_default(self):
        scenario = pipeline_scenario()

        def factory():
            return build_reference_infrastructure(Simulator())

        best_rule, best_fitness, evolver = evolve_placement_rule(
            scenario, factory, seed=1, generations=8)
        # Fitness of the hand-written default rule on the same setup.
        app = scenario.to_application()
        infrastructure = factory()
        constraints = PlacementConstraints(
            min_security_level=scenario.min_security_level)
        default_place = solve(RuleBasedPlacement(DEFAULT_RULE), app,
                              infrastructure, constraints)
        latency, energy = estimate_placement_kpis(
            app, default_place, infrastructure)
        default_fitness = -(latency + 0.05 * energy)
        assert best_fitness >= default_fitness - 1e-9
        assert len(evolver.history) == 8

    def test_evolution_history_improves(self):
        scenario = pipeline_scenario()

        def factory():
            return build_reference_infrastructure(Simulator())

        _, _, evolver = evolve_placement_rule(scenario, factory, seed=2,
                                              generations=10)
        fitnesses = [rec.best_fitness for rec in evolver.history]
        assert fitnesses[-1] >= fitnesses[0]


class TestMapeReallocation:
    def test_avoid_flag_excludes_device_from_new_placements(self):
        engine = CognitiveEngine(seed=61)
        from repro.security.trust import InteractionOutcome
        # Destroy trust in both cloud servers -> trust-drop triggers.
        for name in ("cloud-00", "cloud-01"):
            for _ in range(10):
                engine.manager.security.trust.observe(
                    name, InteractionOutcome(0, False, 0.0))
        engine.mape_iterate(1)
        scenario = pipeline_scenario()
        outcome = engine.manager.deploy(scenario.to_service_template(),
                                        strategy="greedy")
        assert not any(d.startswith("cloud")
                       for d in outcome.placement.assignment.values())

    def test_flag_clears_when_condition_recovers(self):
        engine = CognitiveEngine(seed=62)
        from repro.security.trust import InteractionOutcome
        for _ in range(10):
            engine.manager.security.trust.observe(
                "cloud-00", InteractionOutcome(0, False, 0.0))
        engine.mape_iterate(1)
        assert "status/reallocation/cloud-00" in \
            engine.kb.range("status/reallocation/")
        # Trust recovers.
        for _ in range(30):
            engine.manager.security.trust.observe(
                "cloud-00", InteractionOutcome(0, True, 1.0))
        engine.mape_iterate(1)
        assert "status/reallocation/cloud-00" not in \
            engine.kb.range("status/reallocation/")
