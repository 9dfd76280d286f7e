"""Reproduces paper FIGURE 3: the MIRTO Cognitive Engine agent.

Fig. 3 shows the agent's internal architecture: the MIRTO API daemon
with its Authentication Module and TOSCA Validation Processor, the MIRTO
Manager (four drivers), and the proxies to the KB and deployment
mechanism. This bench drives a deployment through every stage of that
pipeline with per-stage timing, verifies each stage rejects what it
should, and measures the orchestration quality the agent delivers
against the non-cognitive baselines (OBJ2's performance/energy claim).
"""

import time

import pytest

from repro.mirto import ApiRequest, CognitiveEngine
from repro.tosca.parser import dump_service_template, parse_service_template
from repro.tosca.validator import ToscaValidator
from repro.usecases import mobility, run_sessions

from _report import emit, emit_timing, table


@pytest.fixture(scope="module")
def engine():
    return CognitiveEngine(seed=13)


def stage_timings(engine):
    """Time each Fig. 3 stage of one deployment independently."""
    scenario = mobility.build_scenario(vehicles=2)
    service = scenario.to_service_template()
    tosca_text = dump_service_template(service)
    agent = engine.agent()
    timings = {}

    start = time.perf_counter()
    token = engine.operator_token()
    user = agent.auth.authenticate(token)
    timings["authentication module"] = time.perf_counter() - start

    start = time.perf_counter()
    parsed = parse_service_template(tosca_text)
    ToscaValidator().validate(parsed)
    timings["TOSCA validation processor"] = time.perf_counter() - start

    start = time.perf_counter()
    outcome = engine.manager.deploy(parsed, strategy="pso")
    timings["MIRTO manager (place+configure+run)"] = \
        time.perf_counter() - start

    start = time.perf_counter()
    engine.registry.update_status("probe/fig3", {"ok": True})
    _ = engine.registry.status("probe/fig3")
    timings["KB proxy (status round trip)"] = time.perf_counter() - start
    return timings, outcome, user


def test_fig3_agent_pipeline_stages(engine, benchmark):
    (timings, outcome, user) = benchmark.pedantic(
        stage_timings, args=(engine,), rounds=1, iterations=1)
    rows = [[stage, f"{seconds * 1e3:.2f}"]
            for stage, seconds in timings.items()]
    title = ["FIGURE 3 (reproduced): MIRTO agent pipeline, per-stage",
             "wall time for one smart-mobility deployment"]
    note = emit_timing("fig3_agent_stages", title + [""] + table(
        ["agent stage", "time ms"], rows))
    emit("fig3_agent_stages", title + [
        note,
        "",
        f"authenticated user: {user.name} (roles {user.roles})",
        f"deployment outcome: makespan "
        f"{outcome.report.makespan_s * 1e3:.1f} ms, "
        f"security level {outcome.security_level}"])
    assert outcome.report.makespan_s > 0


def test_fig3_each_stage_rejects_bad_input(engine, benchmark):
    """Every box in the figure is a real gate, not pass-through."""

    def probe():
        agent = engine.agent()
        results = {}
        # Authentication Module gate.
        results["bad token"] = agent.handle(ApiRequest(
            "POST", "/deployments", token=b"forged",
            body={"tosca": ""})).status
        # TOSCA Validation Processor gate.
        invalid = """
tosca_definitions_version: myrtus_tosca_1_0
topology_template:
  node_templates:
    broken: {type: myrtus.nodes.Container, properties: {image: x}}
"""
        results["invalid tosca"] = agent.handle(ApiRequest(
            "POST", "/deployments", token=engine.operator_token(),
            body={"tosca": invalid})).status
        # Authorization gate (auditor cannot deploy).
        agent.auth.register_user("fig3-auditor", ["auditor"])
        results["no permission"] = agent.handle(ApiRequest(
            "POST", "/deployments",
            token=agent.auth.issue_token("fig3-auditor"),
            body={"tosca": invalid})).status
        return results

    results = benchmark.pedantic(probe, rounds=1, iterations=1)
    assert results == {"bad token": 401, "invalid tosca": 422,
                       "no permission": 403}


def test_fig3_cognitive_orchestration_beats_baselines(engine, benchmark):
    """OBJ2: the cognitive engine improves performance and energy over
    naive orchestration. Expected shape: cognitive (pso/aco) and
    informed (greedy) strategies dominate random/round-robin on both
    makespan and energy; random is the worst."""
    scenario = mobility.build_scenario(vehicles=2)

    def compare():
        stats = {}
        for strategy in ("random", "round-robin", "greedy", "pso",
                         "aco", "swarm-rule"):
            stats[strategy] = run_sessions(engine, scenario, strategy,
                                           sessions=5)
        return stats

    stats = benchmark.pedantic(compare, rounds=1, iterations=1)
    rows = [[name,
             f"{s.mean_makespan_s * 1e3:.1f}",
             f"{s.p95_makespan_s * 1e3:.1f}",
             f"{s.total_energy_j:.2f}",
             f"{s.deadline_hit_rate:.0%}"]
            for name, s in stats.items()]
    lines = ["FIGURE 3 (reproduced): orchestration quality, MIRTO",
             "strategies vs baselines (smart mobility, 5 sessions)", ""]
    lines += table(["strategy", "mean ms", "p95 ms", "energy J",
                    "deadline hit"], rows)
    emit("fig3_strategy_comparison", lines)
    # Shape assertions (factors, not absolutes).
    assert stats["greedy"].mean_makespan_s \
        < stats["random"].mean_makespan_s / 1.5
    for cognitive in ("pso", "aco"):
        assert stats[cognitive].mean_makespan_s \
            < stats["random"].mean_makespan_s
        assert stats[cognitive].total_energy_j \
            < stats["random"].total_energy_j
    assert stats["random"].deadline_hit_rate \
        <= max(stats["greedy"].deadline_hit_rate,
               stats["aco"].deadline_hit_rate)


def test_fig3_agent_negotiation_mesh(engine, benchmark):
    """Agents at all layers are peered and expose the same API."""

    def probe():
        statuses = {}
        for layer in ("edge", "fog", "cloud"):
            response = engine.agents[layer].handle(ApiRequest(
                "GET", "/status",
                token=engine.operator_token(layer)))
            assert response.status == 200
            statuses[layer] = response.body
        return statuses

    statuses = benchmark.pedantic(probe, rounds=1, iterations=1)
    for layer, status in statuses.items():
        assert len(status["peers"]) == 2, layer
