"""Tests for the Smart Mobility and Telerehabilitation use cases."""

import pytest

from repro.continuum.devices import Layer
from repro.continuum.workload import PrivacyClass
from repro.dpe import DesignFlow, synthesize_countermeasures
from repro.mirto import CognitiveEngine
from repro.tosca import ToscaValidator
from repro.usecases import mobility, run_sessions, telerehab


@pytest.fixture(scope="module")
def engine():
    return CognitiveEngine(seed=3)


class TestMobilityScenario:
    def test_scenario_validates(self):
        service = mobility.build_scenario().to_service_template()
        assert ToscaValidator().check(service) == []

    def test_scales_with_fleet(self):
        small = mobility.build_scenario(vehicles=1)
        large = mobility.build_scenario(vehicles=8)
        assert large.to_application().total_megaops() \
            > small.to_application().total_megaops()

    def test_perception_is_accelerable_dsp(self):
        scenario = mobility.build_scenario()
        perception = next(c for c in scenario.components
                          if c.name == "perception")
        assert perception.accelerable
        assert perception.kernel.value == "dsp"

    def test_adt_synthesis_reduces_risk(self):
        adt = mobility.build_adt()
        result = synthesize_countermeasures(adt, budget=8.0)
        assert result.risk_reduction > 0.3

    def test_deploys_within_budget(self, engine):
        scenario = mobility.build_scenario(vehicles=2)
        outcome = engine.manager.deploy(scenario.to_service_template(),
                                        strategy="greedy")
        assert outcome.deadline_met

    def test_aggregated_stages_never_in_cloud(self, engine):
        scenario = mobility.build_scenario()
        outcome = engine.manager.deploy(scenario.to_service_template(),
                                        strategy="greedy")
        for component in ("v2x-aggregate", "fusion"):
            device = engine.infrastructure.device(
                outcome.placement.device_of(component))
            assert device.spec.layer != Layer.CLOUD


class TestTelerehabScenario:
    def test_scenario_validates(self):
        service = telerehab.build_scenario().to_service_template()
        assert ToscaValidator().check(service) == []

    def test_raw_video_components_marked_personal(self):
        scenario = telerehab.build_scenario()
        personal = {c.name for c in scenario.components
                    if c.privacy is PrivacyClass.RAW_PERSONAL}
        assert personal == {"capture", "pose-estimation"}

    def test_high_security_floor(self):
        assert telerehab.build_scenario().min_security_level == "high"

    def test_personal_data_stays_at_edge(self, engine):
        scenario = telerehab.build_scenario()
        outcome = engine.manager.deploy(scenario.to_service_template(),
                                        strategy="greedy")
        for component in ("capture", "pose-estimation"):
            device = engine.infrastructure.device(
                outcome.placement.device_of(component))
            assert device.spec.layer == Layer.EDGE

    def test_pose_runs_on_high_security_device(self, engine):
        scenario = telerehab.build_scenario()
        outcome = engine.manager.deploy(scenario.to_service_template(),
                                        strategy="greedy")
        device = engine.infrastructure.device(
            outcome.placement.device_of("pose-estimation"))
        assert device.spec.max_security_level == "high"

    def test_session_length_scales_assessment(self):
        short = telerehab.build_scenario(session_minutes=5)
        long = telerehab.build_scenario(session_minutes=40)
        short_assess = next(c for c in short.components
                            if c.name == "exercise-assessment")
        long_assess = next(c for c in long.components
                           if c.name == "exercise-assessment")
        assert long_assess.megaops > short_assess.megaops

    def test_adt_synthesis(self):
        result = synthesize_countermeasures(telerehab.build_adt(),
                                            budget=10.0)
        assert result.selected
        assert result.residual_probability \
            < result.baseline_probability


class TestDpeOnUseCases:
    @pytest.mark.parametrize("case", [mobility, telerehab])
    def test_full_design_flow(self, case):
        spec = DesignFlow(seed=0).run(case.build_scenario(),
                                      case.build_adt(),
                                      defence_budget=8.0)
        assert spec.operating_points
        assert spec.countermeasures
        assert any(path.startswith("bitstreams/")
                   for path in spec.artifact_inventory)


class TestSessionRunner:
    def test_stats_shape(self, engine):
        stats = run_sessions(engine, mobility.build_scenario(vehicles=1),
                             "greedy", sessions=3)
        assert stats.sessions == 3
        assert stats.mean_makespan_s > 0
        assert stats.p95_makespan_s >= stats.mean_makespan_s * 0.5
        assert 0 <= stats.deadline_hit_rate <= 1

    def test_cognitive_not_worse_than_random(self, engine):
        scenario = mobility.build_scenario(vehicles=2)
        random_stats = run_sessions(engine, scenario, "random",
                                    sessions=4)
        cognitive = run_sessions(engine, scenario, "pso", sessions=4)
        assert cognitive.mean_makespan_s \
            <= random_stats.mean_makespan_s * 1.1
