"""Tests for the MLIR dataflow analyses and their wiring into passes."""

import pytest

from repro.core.errors import CompilationError
from repro.dpe.mlir import (
    Builder,
    CgraModel,
    F32,
    I32,
    Module,
    canonicalize,
    emit_config_op,
    map_function,
    quantize_to_base2,
)
from repro.dpe.mlir.ir import (
    I1,
    Base2Type,
    Operation,
    TensorType,
    Value,
    verify_function,
    verify_module,
)
from repro.analysis.findings import Severity
from repro.analysis.mlir import (
    ControlFlowGraph,
    analyze_module,
    cfg_of_function,
    dead_values,
    def_use_chains,
    liveness,
)


def make_op(name, operands, result_types, attributes=None):
    op = Operation(name=name, operands=list(operands),
                   attributes=dict(attributes or {}),
                   results=[Value(t, f"t{i}")
                            for i, t in enumerate(result_types)])
    for res in op.results:
        res.producer = op
    return op


def simple_function():
    """f(a, b) = (a + b) * a  plus one dead add."""
    module = Module("m")
    builder = Builder(module, "f", [I32, I32])
    a, b = builder.args
    add = builder.op("arith.addi", [a, b], [I32])
    mul = builder.op("arith.muli", [add.result(), a], [I32])
    builder.op("arith.addi", [a, a], [I32])  # dead
    builder.ret([mul.result()])
    return module, module.function("f")


class TestDefUse:
    def test_chains_cover_arguments_and_results(self):
        _, func = simple_function()
        chains = def_use_chains(func)
        a, b = func.arguments
        assert chains[a].is_argument
        # a used by addi, muli, and the dead addi twice
        assert len(chains[a].uses) == 4
        assert len(chains[b].uses) == 1
        ret = func.returns[0]
        assert chains[ret].returned
        assert chains[ret].producer.name == "arith.muli"

    def test_dead_value_detected(self):
        _, func = simple_function()
        dead = dead_values(func)
        assert len(dead) == 1
        assert dead[0].producer.name == "arith.addi"

    def test_side_effect_ops_not_dead(self):
        module = Module("m")
        builder = Builder(module, "g", [I32])
        builder.op("dfg.push", [builder.args[0]], [I32])
        builder.ret([builder.args[0]])
        assert dead_values(module.function("g")) == []


class TestUseBeforeDef:
    def test_clean_function_passes(self):
        _, func = simple_function()
        assert verify_function(func) == []

    def test_deliberately_broken_module_caught(self):
        module = Module("broken")
        builder = Builder(module, "f", [I32])
        phantom = Value(I32, "phantom")
        op = make_op("arith.addi", [builder.args[0], phantom], [I32])
        module.function("f").ops.append(op)
        module.function("f").returns = [op.results[0]]
        problems = verify_function(module.function("f"))
        assert len(problems) == 1
        assert "never defined" in problems[0]
        with pytest.raises(CompilationError):
            verify_module(module)

    def test_use_before_definition_order(self):
        module = Module("m")
        builder = Builder(module, "f", [I32])
        late = make_op("arith.addi",
                       [builder.args[0], builder.args[0]], [I32])
        early = make_op("arith.muli",
                        [late.results[0], builder.args[0]], [I32])
        func = module.function("f")
        func.ops = [early, late]
        func.returns = [early.results[0]]
        problems = verify_function(func)
        assert any("before its definition" in p for p in problems)

    def test_undefined_return_caught(self):
        module = Module("m")
        Builder(module, "f", [I32])
        func = module.function("f")
        func.returns = [Value(I32, "ghost")]
        problems = verify_function(func)
        assert any("never defined" in p for p in problems)


class TestLivenessDiamond:
    def _diamond(self):
        r"""entry -> {left, right} -> merge.

        entry defines %x and %y; both branches consume %x; merge
        consumes only %y, so %y must stay live *through* both branches
        while %x dies at the end of each branch.
        """
        const_x = make_op("arith.constant", [], [I32], {"value": 1})
        const_y = make_op("arith.constant", [], [I32], {"value": 2})
        x, y = const_x.results[0], const_y.results[0]
        left_op = make_op("arith.addi", [x, x], [I32])
        right_op = make_op("arith.muli", [x, x], [I32])
        merge_op = make_op("arith.addi", [y, y], [I32])
        cfg = ControlFlowGraph("diamond")
        cfg.add_block("entry", [const_x, const_y])
        cfg.add_block("left", [left_op])
        cfg.add_block("right", [right_op])
        cfg.add_block("merge", [merge_op])
        cfg.add_edge("entry", "left")
        cfg.add_edge("entry", "right")
        cfg.add_edge("left", "merge")
        cfg.add_edge("right", "merge")
        return cfg, x, y, merge_op

    def test_branch_input_live_into_both_branches(self):
        cfg, x, _, _ = self._diamond()
        result = liveness(cfg)
        assert x in result.live_out["entry"]
        assert x in result.live_in["left"]
        assert x in result.live_in["right"]
        # %x is not used past the branches
        assert x not in result.live_out["left"]
        assert x not in result.live_out["right"]
        assert x not in result.live_in["merge"]

    def test_join_value_live_through_both_branches(self):
        cfg, _, y, _ = self._diamond()
        result = liveness(cfg)
        # %y is only used at the join, so it must be carried through
        # BOTH branch blocks even though neither touches it.
        assert y in result.live_out["entry"]
        assert y in result.live_in["left"]
        assert y in result.live_out["left"]
        assert y in result.live_in["right"]
        assert y in result.live_out["right"]
        assert y in result.live_in["merge"]

    def test_exit_live_seeds_exit_blocks(self):
        cfg, _, _, merge_op = self._diamond()
        final = merge_op.results[0]
        result = liveness(cfg, exit_live={final})
        assert final in result.live_out["merge"]
        assert final not in result.live_in["merge"]  # defined there

    def test_nothing_live_before_entry(self):
        cfg, *_ = self._diamond()
        result = liveness(cfg)
        assert result.live_in["entry"] == frozenset()

    def test_single_block_cfg_of_function(self):
        _, func = simple_function()
        cfg = cfg_of_function(func)
        result = liveness(cfg, exit_live=set(func.returns))
        # everything the body needs from outside is a function argument
        assert result.live_in[cfg.entry] <= set(func.arguments)


class TestTypeChecker:
    def test_integer_arith_on_float_flagged(self):
        module = Module("m")
        builder = Builder(module, "f", [F32, F32])
        builder.op("arith.addi", list(builder.args), [F32])
        builder.ret([])
        problems = verify_function(module.function("f"))
        assert any("non-integer" in p for p in problems)

    def test_float_arith_on_integer_flagged(self):
        module = Module("m")
        builder = Builder(module, "f", [I32, I32])
        builder.op("arith.mulf", list(builder.args), [I32])
        builder.ret([])
        problems = verify_function(module.function("f"))
        assert any("non-float" in p for p in problems)

    def test_arity_mismatch_flagged(self):
        module = Module("m")
        builder = Builder(module, "f", [I32])
        func = module.function("f")
        bad = make_op("arith.addi", [builder.args[0]], [I32])
        func.ops.append(bad)
        problems = verify_function(func)
        assert any("expects 2 operands" in p for p in problems)

    def test_cmp_operand_mismatch_flagged(self):
        module = Module("m")
        builder = Builder(module, "f", [I32, F32])
        builder.op("arith.cmp", list(builder.args), [I1],
                   {"predicate": "eq"})
        problems = verify_function(module.function("f"))
        assert any("operand types differ" in p for p in problems)

    def test_matmul_shape_mismatch_flagged(self):
        module = Module("m")
        t_a = TensorType((2, 3), F32)
        t_bad = TensorType((4, 5), F32)
        builder = Builder(module, "f", [t_a, t_bad])
        builder.op("tensor.matmul", list(builder.args),
                   [TensorType((2, 5), F32)])
        problems = verify_function(module.function("f"))
        assert any("inner dims differ" in p for p in problems)

    def test_base2_result_element_checked(self):
        module = Module("m")
        fixed = Base2Type(8, 4)
        builder = Builder(module, "f", [fixed, fixed])
        builder.op("base2.add", list(builder.args), [F32])  # wrong
        problems = verify_function(module.function("f"))
        assert any("expected a base2" in p for p in problems)

    def test_clean_function_has_no_problems(self):
        _, func = simple_function()
        assert verify_function(func) == []


class TestPassWiring:
    def test_canonicalize_checks_output(self):
        module, func = simple_function()
        # sabotage: drop the op producing the returned value
        func.ops = [op for op in func.ops if op.name != "arith.muli"]
        with pytest.raises(CompilationError,
                           match="failed static checks"):
            canonicalize(func)

    def test_canonicalize_passes_clean_function(self):
        _, func = simple_function()
        totals = canonicalize(func)
        assert totals["dce"] >= 1  # the planted dead add is removed

    def test_canonicalize_keeps_cgra_config(self):
        """DCE and the dead-value analysis share one side-effect rule:
        a mapped function's cgra.config op survives canonicalize."""
        module = Module("m")
        builder = Builder(module, "f", [I32, I32])
        a, b = builder.args
        add = builder.op("arith.addi", [a, b], [I32])
        mul = builder.op("arith.muli", [add.result(), a], [I32])
        builder.ret([mul.result()])
        config_op = emit_config_op(
            module, map_function(module, "f", CgraModel(2, 2)))
        func = module.function("f")
        assert dead_values(func) == []
        assert canonicalize(func)["dce"] == 0
        assert config_op in func.ops
        assert dead_values(func) == []

    def test_quantize_output_statically_checked(self):
        module = Module("m")
        t = TensorType((2, 2), F32)
        builder = Builder(module, "net", [t, t])
        mm = builder.op("tensor.matmul", list(builder.args), [t])
        builder.ret([mm.result()])
        fixed_fn = quantize_to_base2(module, "net", Base2Type(16, 8))
        assert verify_function(fixed_fn) == []


class TestAnalyzeModule:
    def test_findings_for_broken_and_dead(self):
        module, func = simple_function()
        findings = analyze_module(module)
        assert [f.rule for f in findings] == ["dead-value"]
        assert findings[0].severity == Severity.WARNING

    def test_error_findings_for_undefined_use(self):
        module = Module("broken")
        builder = Builder(module, "f", [I32])
        phantom = Value(I32, "phantom")
        func = module.function("f")
        func.ops.append(make_op("arith.addi",
                                [builder.args[0], phantom], [I32]))
        func.returns = [func.ops[0].results[0]]
        findings = analyze_module(module)
        assert any(f.rule == "dataflow"
                   and f.severity == Severity.ERROR for f in findings)
