"""Tests for ADT synthesis, FREVO evolution, HLS/MDC, ONNX flow and the
full three-step DPE pipeline."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import CompilationError, ValidationError
from repro.continuum.workload import KernelClass, PrivacyClass
from repro.dpe import (
    AttackDefenceTree,
    AttackNode,
    ComponentModel,
    Defence,
    DesignFlow,
    OnnxModel,
    OnnxNode,
    Refinement,
    RuleEvolver,
    ScenarioModel,
    SwarmRule,
    compose,
    countermeasure_snippets,
    estimate_kpis,
    import_onnx,
    lower_to_hardware,
    reference_mlp,
    synthesize,
    synthesize_countermeasures,
)
from repro.dpe.mlir import (
    Actor,
    Builder,
    DataflowGraph,
    F32,
    Interpreter,
    Module,
)
from repro.dpe.modeling import _pseudo_bitstream
from repro.security.primitives import sha2
from repro.tosca import CsarArchive, ToscaValidator

SRC = Path(__file__).resolve().parent.parent / "src"


def sha2_filler(header: bytes, seed: bytes, size: int) -> bytes:
    """The pseudo-bitstream chain built with the from-scratch SHA-256:
    *header*, then H(H(seed)), H(H(H(seed))), ... cut to *size* bytes."""
    body = sha2.sha256(seed)
    stream = bytearray(header)
    while len(stream) < size:
        body = sha2.sha256(body)
        stream += body
    return bytes(stream[:size])


def sample_adt():
    root = AttackNode("compromise-patient-data", Refinement.OR)
    eavesdrop = root.add_child(
        AttackNode("eavesdrop-channel", probability=0.6, attack_cost=5))
    tamper_chain = root.add_child(AttackNode("tamper", Refinement.AND))
    access = tamper_chain.add_child(
        AttackNode("gain-access", probability=0.4, attack_cost=20))
    modify = tamper_chain.add_child(
        AttackNode("modify-records", probability=0.7, attack_cost=10))
    eavesdrop.add_defence(Defence("encrypt", 0.05, 3.0, "encrypt-channel"))
    access.add_defence(Defence("rbac", 0.3, 2.0, "access-control"))
    modify.add_defence(Defence("integrity", 0.1, 2.5, "integrity-check"))
    return AttackDefenceTree(root)


class TestAdt:
    def test_or_probability(self):
        tree = sample_adt()
        # P(or) = 1 - (1-0.6)(1-0.28); AND child = 0.4*0.7 = 0.28
        assert tree.success_probability() == pytest.approx(
            1 - 0.4 * 0.72)

    def test_defences_reduce_probability(self):
        tree = sample_adt()
        baseline = tree.success_probability()
        defended = tree.success_probability({"encrypt"})
        assert defended < baseline

    def test_attack_cost_cheapest_path(self):
        tree = sample_adt()
        # OR picks cheapest: eavesdrop at 5 vs AND(20+10)=30.
        assert tree.attack_cost() == 5

    def test_synthesis_respects_budget(self):
        tree = sample_adt()
        result = synthesize_countermeasures(tree, budget=3.0)
        assert result.total_cost <= 3.0
        assert result.residual_probability < result.baseline_probability

    def test_bigger_budget_never_worse(self):
        tree = sample_adt()
        small = synthesize_countermeasures(tree, budget=3.0)
        large = synthesize_countermeasures(tree, budget=10.0)
        assert large.residual_probability <= small.residual_probability

    def test_risk_reduction_metric(self):
        tree = sample_adt()
        result = synthesize_countermeasures(tree, budget=10.0)
        assert 0 < result.risk_reduction <= 1

    def test_snippets_follow_security_level(self):
        tree = sample_adt()
        result = synthesize_countermeasures(tree, budget=10.0)
        low = countermeasure_snippets(result, "low")
        high = countermeasure_snippets(result, "high")
        assert len(low) == len(high) == len(result.selected)
        assert any("ASCON" in s for s in low)
        assert any("AES-256" in s or "SHA-512" in s for s in high)

    def test_leaf_probability_validated(self):
        with pytest.raises(ValidationError):
            AttackNode("bad", probability=1.5)

    def test_leaf_cannot_have_children(self):
        leaf = AttackNode("leaf", probability=0.5)
        with pytest.raises(ValidationError):
            leaf.add_child(AttackNode("child", probability=0.1))

    def test_mitigation_range_validated(self):
        with pytest.raises(ValidationError):
            Defence("d", mitigation=2.0, cost=1.0,
                    primitive="encrypt-channel")


class TestFrevo:
    def test_evolution_improves_fitness(self):
        target = SwarmRule(0.5, 0.8, 0.2, 0.9, 0.05)

        def fitness(rule):
            return -sum(abs(a - b) for a, b in
                        zip(rule.as_vector(), target.as_vector()))

        evolver = RuleEvolver(fitness, random.Random(0), generations=15)
        best, best_fitness = evolver.evolve()
        assert best_fitness > evolver.history[0].best_fitness - 1e-9
        assert best_fitness > -1.0  # reasonably close to target

    def test_history_recorded(self):
        evolver = RuleEvolver(lambda r: 0.0, random.Random(0),
                              generations=5)
        evolver.evolve()
        assert len(evolver.history) == 5

    def test_best_fitness_monotonic(self):
        evolver = RuleEvolver(
            lambda r: -abs(r.utilization_weight),
            random.Random(1), generations=10)
        evolver.evolve()
        fitnesses = [rec.best_fitness for rec in evolver.history]
        assert all(b >= a - 1e-12 for a, b in zip(fitnesses,
                                                  fitnesses[1:]))

    def test_rule_vector_roundtrip(self):
        rule = SwarmRule(0.1, 0.2, 0.3, 0.4, 0.05)
        assert SwarmRule.from_vector(rule.as_vector()) == rule

    def test_exploration_clamped(self):
        rule = SwarmRule.from_vector([0, 0, 0, 0, 5.0])
        assert rule.exploration == 1.0

    def test_invalid_population(self):
        from repro.core.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            RuleEvolver(lambda r: 0.0, random.Random(0), mu=4, lam=2)


class TestHlsAndMdc:
    def scalar_module(self):
        module = Module("m")
        for name, op in (("fir", "arith.mulf"), ("iir", "arith.addf")):
            builder = Builder(module, name, [F32, F32])
            out = builder.op(op, [builder.args[0], builder.args[1]], [F32])
            builder.ret([out.result()])
        return module

    def test_synthesize_produces_verilog(self):
        module = self.scalar_module()
        result = synthesize(module, "fir")
        assert "module fir" in result.verilog
        assert result.resources.luts > 0
        assert result.latency_s() > 0
        assert result.throughput_per_s() > 0

    def test_no_cost_model_rejected(self):
        module = Module("m")
        builder = Builder(module, "odd", [F32])
        builder.op("dfg.push", [builder.args[0]], [])
        builder.op("cgra.config", [], [], {"placements": []})
        builder.ret([])
        # dfg/cgra ops are skipped, so this synthesizes fine.
        assert synthesize(module, "odd").latency_cycles >= 1

    def test_mdc_shares_common_actors(self):
        module = self.scalar_module()
        g1 = DataflowGraph("cfg-a", module)
        g1.add_actor(Actor("x", "fir", (1, 1), (1,)))
        g1.add_actor(Actor("y", "iir", (1, 1), (1,)))
        g2 = DataflowGraph("cfg-b", module)
        g2.add_actor(Actor("x", "fir", (1, 1), (1,)))
        accelerator = compose(module, [g1, g2])
        # 'fir' appears in both graphs but is instantiated once.
        assert len(accelerator.shared_actors) == 2
        assert accelerator.sharing_gain > 0
        assert accelerator.resources.luts \
            < accelerator.resources_unshared.luts

    def test_mdc_bitstreams_differ_per_configuration(self):
        module = self.scalar_module()
        g1 = DataflowGraph("a", module)
        g1.add_actor(Actor("x", "fir", (1, 1), (1,)))
        g2 = DataflowGraph("b", module)
        g2.add_actor(Actor("x", "iir", (1, 1), (1,)))
        accelerator = compose(module, [g1, g2])
        bit_a = accelerator.bitstream("a")
        bit_b = accelerator.bitstream("b")
        assert bit_a != bit_b
        assert bit_a.startswith(b"MDCB")
        assert accelerator.bitstream("a") == bit_a  # deterministic

    def test_mdc_bitstream_is_the_sha2_chain(self):
        module = self.scalar_module()
        g1 = DataflowGraph("a", module)
        g1.add_actor(Actor("x", "fir", (1, 1), (1,)))
        g2 = DataflowGraph("b", module)
        g2.add_actor(Actor("x", "iir", (1, 1), (1,)))
        accelerator = compose(module, [g1, g2])
        size = 256 + 32 * len(accelerator.shared_actors)
        for graph in ("a", "b"):
            word = accelerator.configurations[graph].config_word
            expected = sha2_filler(
                b"MDCB" + word.to_bytes(4, "big"),
                f"{accelerator.name}:{graph}:{word}".encode(), size)
            assert accelerator.bitstream(graph) == expected

    def test_mdc_unknown_configuration(self):
        module = self.scalar_module()
        g1 = DataflowGraph("a", module)
        g1.add_actor(Actor("x", "fir", (1, 1), (1,)))
        accelerator = compose(module, [g1])
        with pytest.raises(CompilationError):
            accelerator.bitstream("ghost")

    def test_mdc_empty_rejected(self):
        with pytest.raises(CompilationError):
            compose(Module("m"), [])


class TestOnnxFlow:
    def test_import_matches_numpy(self):
        rng = np.random.default_rng(1)
        model = reference_mlp(rng)
        module = Module("nn")
        func = import_onnx(model, module)
        x = rng.normal(0, 1, (1, 8))
        (result,) = Interpreter(module).run(func, x)
        h = np.maximum(x @ model.initializers["w1"]
                       + model.initializers["b1"], 0)
        expected = h @ model.initializers["w2"] + model.initializers["b2"]
        np.testing.assert_allclose(result, expected)

    def test_shape_inference_catches_mismatch(self):
        model = OnnxModel(
            name="bad", input_name="x", input_shape=(1, 4),
            output_name="y",
            nodes=[OnnxNode("Gemm", ["x", "w"], ["y"])],
            initializers={"w": np.zeros((5, 2))})
        with pytest.raises(CompilationError, match="shape mismatch"):
            model.infer_shapes()

    def test_unsupported_op_rejected(self):
        with pytest.raises(CompilationError):
            OnnxNode("Conv", ["x"], ["y"])

    def test_lower_to_fpga(self):
        rng = np.random.default_rng(2)
        model = reference_mlp(rng)
        module = Module("nn")
        func = import_onnx(model, module)
        deployment = lower_to_hardware(module, func,
                                       rng.normal(0, 1, (1, 8)),
                                       target="fpga")
        assert deployment.artifact["kind"] == "hls"
        assert deployment.artifact["luts"] > 0
        assert deployment.meets_tolerance(0.2)

    def test_unknown_target_rejected(self):
        rng = np.random.default_rng(3)
        model = reference_mlp(rng)
        module = Module("nn")
        func = import_onnx(model, module)
        with pytest.raises(CompilationError):
            lower_to_hardware(module, func, rng.normal(0, 1, (1, 8)),
                              target="asic")


def telerehab_scenario():
    scenario = ScenarioModel("telerehab", latency_budget_s=0.5,
                             min_security_level="high")
    scenario.add_component(ComponentModel(
        "pose", 500, input_bytes=200_000, kernel=KernelClass.NEURAL,
        accelerable=True, privacy=PrivacyClass.RAW_PERSONAL))
    scenario.add_component(ComponentModel(
        "assess", 2000, kernel=KernelClass.ANALYTICS,
        privacy=PrivacyClass.AGGREGATED))
    scenario.add_component(ComponentModel("feedback", 100))
    scenario.connect("pose", "assess", 50_000)
    scenario.connect("assess", "feedback", 1_000)
    return scenario


class TestScenarioModel:
    def test_duplicate_component_rejected(self):
        scenario = telerehab_scenario()
        with pytest.raises(ValidationError):
            scenario.add_component(ComponentModel("pose", 1))

    def test_unknown_edge_endpoint_rejected(self):
        scenario = telerehab_scenario()
        with pytest.raises(ValidationError):
            scenario.connect("pose", "ghost")

    def test_to_application(self):
        app = telerehab_scenario().to_application()
        assert len(app) == 3
        assert app.task("pose").kernel == KernelClass.NEURAL
        assert app.task("pose").requirements.privacy \
            == PrivacyClass.RAW_PERSONAL

    def test_service_template_valid(self):
        service = telerehab_scenario().to_service_template()
        assert ToscaValidator().check(service) == []

    def test_privacy_policy_generated(self):
        service = telerehab_scenario().to_service_template()
        privacy = service.policies_of_type("myrtus.policies.Privacy")
        by_target = {p.targets[0]: p for p in privacy}
        assert by_target["pose"].properties["max_layer"] == "edge"
        assert by_target["assess"].properties["max_layer"] == "fog"

    def test_accelerable_becomes_accelerated_kernel(self):
        service = telerehab_scenario().to_service_template()
        assert service.node_templates["pose"].type \
            == "myrtus.nodes.AcceleratedKernel"
        assert service.node_templates["assess"].type \
            == "myrtus.nodes.Container"


class TestDesignFlow:
    def test_kpi_estimation(self):
        estimate = estimate_kpis(telerehab_scenario(), seed=0)
        assert estimate.latency_s > 0
        assert estimate.energy_j > 0
        assert estimate.bottleneck_component == "assess"

    def test_full_pipeline(self):
        spec = DesignFlow(seed=0).run(telerehab_scenario(), sample_adt(),
                                      defence_budget=8.0)
        # Step 1 artifacts.
        assert ToscaValidator().check(spec.service) == []
        assert spec.kpi_estimate.latency_s > 0
        assert spec.countermeasures
        # Step 3 artifacts.
        assert spec.operating_points
        inventory = spec.artifact_inventory
        assert "bitstreams/pose.bit" in inventory
        assert "verilog/pose.v" in inventory
        assert "meta/operating-points.json" in inventory
        assert "security/countermeasures.txt" in inventory

    @pytest.mark.parametrize("name,luts", [("pose", 0), ("pose", 31),
                                           ("detector", 5000)])
    def test_pseudo_bitstream_is_the_sha2_chain(self, name, luts):
        assert _pseudo_bitstream(name, luts) \
            == sha2_filler(b"XLNX", name.encode(), 128 + luts)

    def test_csar_roundtrips(self):
        spec = DesignFlow(seed=0).run(telerehab_scenario())
        archive = CsarArchive.from_bytes(spec.csar_bytes)
        assert archive.service.name == "telerehab"
        assert "meta/operating-points.json" in archive.artifacts

    def test_operating_points_cover_tradeoff(self):
        spec = DesignFlow(seed=1).run(telerehab_scenario())
        points = spec.operating_points
        assert all(p["latency_s"] > 0 for p in points)
        if len(points) >= 2:
            assert points[0]["latency_s"] <= points[-1]["latency_s"]

    def test_flow_loads_no_lint_tool(self):
        """Verifying IR is the mini-MLIR's own job: a fresh interpreter
        that runs the whole flow never imports ``repro.analysis``."""
        probe = (
            "import sys\n"
            "from repro.dpe import DesignFlow\n"
            "from repro.usecases import telerehab\n"
            "DesignFlow(seed=0).run(telerehab.build_scenario(),"
            " telerehab.build_adt(), defence_budget=8.0)\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[:2] == ['repro', 'analysis']))\n")
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_flow_without_adt(self):
        spec = DesignFlow(seed=0).run(telerehab_scenario())
        assert spec.countermeasures == []
        assert spec.adt_result is None
