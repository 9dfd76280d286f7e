"""Tests for the mini-MLIR: IR core, dialects, interpreter, passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CompilationError
from repro.dpe.mlir import (
    Actor,
    Base2Type,
    Builder,
    CgraMachine,
    CgraModel,
    DataflowGraph,
    F32,
    I32,
    Interpreter,
    Module,
    TensorType,
    canonicalize,
    map_function,
    quantization_error,
    quantize_to_base2,
    verify_module,
)
from repro.dpe.mlir.ir import I1, verify_function


def scalar_func(module, name="f"):
    """f(a, b) = a * b + a"""
    builder = Builder(module, name, [F32, F32])
    product = builder.op("arith.mulf", [builder.args[0], builder.args[1]],
                         [F32])
    total = builder.op("arith.addf", [product.result(), builder.args[0]],
                       [F32])
    builder.ret([total.result()])
    return builder.function


def dense_func(module, name="dense"):
    """relu(x @ W + b) with fixed W, b."""
    w = np.array([[1.0, -2.0], [0.5, 1.5]])
    b = np.array([[0.1, -0.1]])
    t12 = TensorType((1, 2), F32)
    t22 = TensorType((2, 2), F32)
    builder = Builder(module, name, [t12])
    wv = builder.op("tensor.constant", [], [t22], {"value": w})
    bv = builder.op("tensor.constant", [], [t12], {"value": b})
    mm = builder.op("tensor.matmul", [builder.args[0], wv.result()], [t12])
    ad = builder.op("tensor.add", [mm.result(), bv.result()], [t12])
    rl = builder.op("tensor.relu", [ad.result()], [t12])
    builder.ret([rl.result()])
    return builder.function


class TestTypes:
    def test_base2_range(self):
        fx = Base2Type(8, 4)
        assert fx.scale == pytest.approx(1 / 16)
        assert fx.max_value == pytest.approx(127 / 16)
        assert fx.min_value == pytest.approx(-8.0)

    def test_base2_quantize_clamps(self):
        fx = Base2Type(8, 4)
        assert fx.dequantize(fx.quantize(100.0)) == fx.max_value
        assert fx.dequantize(fx.quantize(-100.0)) == fx.min_value

    @given(st.floats(-7, 7))
    @settings(max_examples=50)
    def test_base2_roundtrip_error_bounded(self, value):
        fx = Base2Type(16, 8)
        assert abs(fx.dequantize(fx.quantize(value)) - value) \
            <= fx.scale / 2 + 1e-12

    def test_invalid_base2(self):
        with pytest.raises(CompilationError):
            Base2Type(4, 8)

    def test_tensor_type(self):
        t = TensorType((2, 3), F32)
        assert t.num_elements == 6
        assert "2x3" in str(t)

    def test_bad_tensor_shape(self):
        with pytest.raises(CompilationError):
            TensorType((0, 2), F32)


class TestVerifier:
    def test_valid_function_passes(self):
        module = Module("m")
        func = scalar_func(module)
        assert verify_function(func) == []

    def test_type_mismatch_detected(self):
        module = Module("m")
        builder = Builder(module, "bad", [F32, I32])
        builder.op("arith.addf", [builder.args[0], builder.args[1]], [F32])
        builder.ret([])
        problems = verify_function(builder.function)
        assert any("operand types differ" in p for p in problems)

    def test_undefined_value_detected(self):
        from repro.dpe.mlir.ir import Operation, Value
        module = Module("m")
        builder = Builder(module, "bad", [F32])
        ghost = Value(F32, "ghost")
        op = Operation("arith.addf", [builder.args[0], ghost], {},
                       [Value(F32, "r")])
        builder.function.ops.append(op)
        builder.ret([])
        problems = verify_function(builder.function)
        assert any("undefined value" in p for p in problems)

    def test_matmul_shape_check(self):
        module = Module("m")
        builder = Builder(module, "bad", [TensorType((2, 3), F32),
                                          TensorType((2, 3), F32)])
        builder.op("tensor.matmul", [builder.args[0], builder.args[1]],
                   [TensorType((2, 3), F32)])
        builder.ret([])
        problems = verify_function(builder.function)
        assert any("inner dims differ" in p for p in problems)

    def test_cmp_without_result_reported(self):
        module = Module("m")
        builder = Builder(module, "bad", [I32, I32])
        builder.op("arith.cmp", list(builder.args), [],
                   {"predicate": "eq"})
        builder.ret([])
        problems = verify_function(builder.function)
        assert any("expects 1 results, has 0" in p for p in problems)

    @pytest.mark.parametrize("name,operand_types,result_type,message", [
        ("arith.addi", [F32, F32], F32, "non-integer"),
        ("arith.cmp", [I32, F32], I1, "operand types differ"),
    ])
    def test_module_verify_rejects_operand_kinds(self, name, operand_types,
                                                 result_type, message):
        module = Module("m")
        builder = Builder(module, "bad", operand_types)
        builder.op(name, list(builder.args), [result_type],
                   {"predicate": "eq"} if name == "arith.cmp" else {})
        builder.ret([])
        with pytest.raises(CompilationError, match=message):
            verify_module(module)

    def test_module_verify_raises(self):
        module = Module("m")
        builder = Builder(module, "bad", [F32, I32])
        builder.op("arith.addf", [builder.args[0], builder.args[1]], [F32])
        builder.ret([])
        with pytest.raises(CompilationError):
            verify_module(module)

    def test_duplicate_function_rejected(self):
        module = Module("m")
        scalar_func(module, "f")
        with pytest.raises(CompilationError):
            scalar_func(module, "f")


class TestInterpreter:
    def test_scalar_arithmetic(self):
        module = Module("m")
        scalar_func(module)
        assert Interpreter(module).run("f", 3.0, 4.0) == [15.0]

    def test_tensor_network(self):
        module = Module("m")
        dense_func(module)
        x = np.array([[1.0, 2.0]])
        (result,) = Interpreter(module).run("dense", x)
        expected = np.maximum(
            x @ np.array([[1.0, -2.0], [0.5, 1.5]])
            + np.array([[0.1, -0.1]]), 0)
        np.testing.assert_allclose(result, expected)

    def test_cmp_and_select(self):
        module = Module("m")
        builder = Builder(module, "clamp", [F32])
        zero = builder.op("arith.constant", [], [F32], {"value": 0.0})
        from repro.dpe.mlir.ir import I1
        is_neg = builder.op("arith.cmp",
                            [builder.args[0], zero.result()], [I1],
                            {"predicate": "lt"})
        out = builder.op("arith.select",
                         [is_neg.result(), zero.result(), builder.args[0]],
                         [F32])
        builder.ret([out.result()])
        interp = Interpreter(module)
        assert interp.run("clamp", -5.0) == [0.0]
        assert interp.run("clamp", 5.0) == [5.0]

    def test_wrong_arity_rejected(self):
        module = Module("m")
        scalar_func(module)
        with pytest.raises(CompilationError):
            Interpreter(module).run("f", 1.0)

    def test_reshape(self):
        module = Module("m")
        builder = Builder(module, "rs", [TensorType((2, 3), F32)])
        out = builder.op("tensor.reshape", [builder.args[0]],
                         [TensorType((3, 2), F32)])
        builder.ret([out.result()])
        (result,) = Interpreter(module).run(
            "rs", np.arange(6.0).reshape(2, 3))
        assert result.shape == (3, 2)


class TestPasses:
    def build_foldable(self, module):
        builder = Builder(module, "fold", [F32])
        c2 = builder.op("arith.constant", [], [F32], {"value": 2.0})
        c3 = builder.op("arith.constant", [], [F32], {"value": 3.0})
        prod = builder.op("arith.mulf", [c2.result(), c3.result()], [F32])
        dead = builder.op("arith.addf", [builder.args[0], builder.args[0]],
                          [F32])
        assert dead  # intentionally unused
        out = builder.op("arith.addf", [builder.args[0], prod.result()],
                         [F32])
        builder.ret([out.result()])
        return builder.function

    def test_canonicalize_folds_and_removes_dead(self):
        module = Module("m")
        func = self.build_foldable(module)
        before = Interpreter(module).run("fold", 1.0)
        counts = canonicalize(func)
        assert counts["folded"] >= 1
        assert counts["dce"] >= 1
        assert Interpreter(module).run("fold", 1.0) == before
        assert len(func.ops) == 2  # folded const + final add

    def test_cse_merges_duplicates(self):
        module = Module("m")
        builder = Builder(module, "dup", [F32])
        a1 = builder.op("arith.addf", [builder.args[0], builder.args[0]],
                        [F32])
        a2 = builder.op("arith.addf", [builder.args[0], builder.args[0]],
                        [F32])
        out = builder.op("arith.mulf", [a1.result(), a2.result()], [F32])
        builder.ret([out.result()])
        before = Interpreter(module).run("dup", 3.0)
        counts = canonicalize(builder.function)
        assert counts["cse"] >= 1
        assert Interpreter(module).run("dup", 3.0) == before

    def test_quantize_to_base2_preserves_semantics(self):
        module = Module("m")
        dense_func(module)
        quantize_to_base2(module, "dense", Base2Type(16, 8))
        verify_module(module)
        x = np.array([[1.0, 2.0]])
        err = quantization_error(module, "dense", "dense_base2", [x])
        assert err < 0.05

    def test_wider_fixed_point_is_more_accurate(self):
        x = np.array([[0.7, -1.3]])
        errors = {}
        for width, frac in ((8, 4), (16, 8), (24, 12)):
            module = Module("m")
            dense_func(module)
            quantize_to_base2(module, "dense", Base2Type(width, frac),
                              new_name="q")
            errors[(width, frac)] = quantization_error(
                module, "dense", "q", [x])
        assert errors[(24, 12)] <= errors[(16, 8)] <= errors[(8, 4)]


class TestCgra:
    def test_mapping_matches_interpreter(self):
        module = Module("m")
        scalar_func(module)
        config = map_function(module, "f", CgraModel(2, 2))
        results, cycles = CgraMachine(module, config).run(3.0, 4.0)
        assert results == Interpreter(module).run("f", 3.0, 4.0)
        assert cycles >= 1

    def test_dependencies_respected_in_schedule(self):
        module = Module("m")
        scalar_func(module)
        config = map_function(module, "f", CgraModel(2, 2))
        mul = next(p for p in config.placements
                   if p.op_name == "arith.mulf")
        add = next(p for p in config.placements
                   if p.op_name == "arith.addf")
        assert add.start_cycle >= mul.start_cycle + mul.latency

    def test_bigger_grid_not_slower(self):
        module = Module("m")
        builder = Builder(module, "wide", [F32] * 4)
        sums = [builder.op("arith.addf", [builder.args[i],
                                          builder.args[i + 1]], [F32])
                for i in range(3)]
        builder.ret([s.result() for s in sums])
        small = map_function(module, "wide", CgraModel(1, 1))
        large = map_function(module, "wide", CgraModel(2, 2))
        assert large.total_cycles <= small.total_cycles

    def test_unsupported_op_class_rejected(self):
        module = Module("m")
        builder = Builder(module, "divides", [F32, F32])
        out = builder.op("arith.divf", [builder.args[0], builder.args[1]],
                         [F32])
        builder.ret([out.result()])
        with pytest.raises(CompilationError, match="lacks support"):
            map_function(module, "divides",
                         CgraModel(2, 2, ("alu", "mul", "const")))

    def test_config_metrics(self):
        module = Module("m")
        scalar_func(module)
        config = map_function(module, "f", CgraModel(2, 2))
        assert 1 <= config.utilized_pes <= 4
        assert config.latency_s() > 0
        assert config.energy_j() > 0


class TestDataflow:
    def build(self, module):
        builder = Builder(module, "double", [F32])
        out = builder.op("arith.addf",
                         [builder.args[0], builder.args[0]], [F32])
        builder.ret([out.result()])
        builder2 = Builder(module, "inc", [F32])
        one = builder2.op("arith.constant", [], [F32], {"value": 1.0})
        out2 = builder2.op("arith.addf", [builder2.args[0], one.result()],
                           [F32])
        builder2.ret([out2.result()])
        graph = DataflowGraph("pipe", module)
        graph.add_actor(Actor("dbl", "double", (1,), (1,),
                              cycles_per_firing=2))
        graph.add_actor(Actor("inc", "inc", (1,), (1,),
                              cycles_per_firing=1))
        graph.connect("dbl", 0, "inc", 0)
        graph.mark_input("dbl", 0)
        graph.mark_output("inc", 0)
        return graph

    def test_repetition_vector_uniform(self):
        module = Module("m")
        graph = self.build(module)
        assert graph.repetition_vector() == {"dbl": 1, "inc": 1}

    def test_multirate_repetition_vector(self):
        module = Module("m")
        graph = self.build(module)
        # dbl produces 2 tokens per firing now: inc must fire twice.
        graph.actors["dbl"].output_rates = (2,)
        reps = graph.repetition_vector()
        assert reps == {"dbl": 1, "inc": 2}

    def test_inconsistent_rates_rejected(self):
        module = Module("m")
        graph = self.build(module)
        graph.connect("dbl", 0, "inc", 0)  # duplicate channel, same rates
        graph.actors["dbl"].output_rates = (2,)
        # One channel wants 1:1, the other 2:1 -> but both channels share
        # the same ports/rates, so this IS consistent; force inconsistency
        # with a back edge instead.
        graph.actors["dbl"].input_rates = (3,)
        graph.connect("inc", 0, "dbl", 0, initial_tokens=3)
        with pytest.raises(CompilationError, match="inconsistent"):
            graph.repetition_vector()

    def test_buffer_sizes(self):
        module = Module("m")
        graph = self.build(module)
        assert graph.buffer_sizes() == {("dbl", "inc"): 1}

    def test_functional_execution(self):
        module = Module("m")
        graph = self.build(module)
        outputs = graph.execute({("dbl", 0): [3.0]})
        assert outputs[("inc", 0)] == [7.0]  # 3*2 + 1

    def test_starvation_detected(self):
        module = Module("m")
        graph = self.build(module)
        with pytest.raises(CompilationError, match="deadlock|starvation"):
            graph.execute({})  # no input tokens

    def test_zero_token_cycle_deadlock(self):
        module = Module("m")
        graph = self.build(module)
        graph.actors["dbl"].input_rates = (1,)
        graph.connect("inc", 0, "dbl", 0)  # cycle without initial tokens
        with pytest.raises(CompilationError, match="deadlock"):
            graph.throughput_estimate()

    def test_throughput_improves_with_parallelism(self):
        module = Module("m")
        graph = self.build(module)
        graph.actors["dbl"].output_rates = (4,)
        graph.actors["inc"].input_rates = (1,)
        solo = graph.throughput_estimate(parallel_units=1)
        quad = graph.throughput_estimate(parallel_units=4)
        assert quad >= solo

    def test_unknown_actor_function_rejected(self):
        module = Module("m")
        graph = DataflowGraph("g", module)
        with pytest.raises(CompilationError):
            graph.add_actor(Actor("a", "missing", (1,), (1,)))


class TestAlgebraicSimplification:
    def build(self, op_name, const_value, const_first=False):
        from repro.dpe.mlir.passes import simplify_algebraic
        module = Module("m")
        builder = Builder(module, "s", [F32])
        const = builder.op("arith.constant", [], [F32],
                           {"value": const_value})
        operands = ([const.result(), builder.args[0]] if const_first
                    else [builder.args[0], const.result()])
        out = builder.op(op_name, operands, [F32])
        builder.ret([out.result()])
        return module, builder.function, simplify_algebraic

    def test_mul_by_one_removed(self):
        module, func, simplify = self.build("arith.mulf", 1.0)
        assert simplify(func) == 1
        assert func.returns[0] is func.arguments[0]
        assert Interpreter(module).run("s", 7.0) == [7.0]

    def test_one_times_x_removed(self):
        module, func, simplify = self.build("arith.mulf", 1.0,
                                            const_first=True)
        assert simplify(func) == 1

    def test_add_zero_removed(self):
        module, func, simplify = self.build("arith.addf", 0.0)
        assert simplify(func) == 1
        assert Interpreter(module).run("s", 3.5) == [3.5]

    def test_sub_zero_removed(self):
        module, func, simplify = self.build("arith.subf", 0.0)
        assert simplify(func) == 1

    def test_div_by_one_removed(self):
        module, func, simplify = self.build("arith.divf", 1.0)
        assert simplify(func) == 1

    def test_mul_by_two_kept(self):
        module, func, simplify = self.build("arith.mulf", 2.0)
        assert simplify(func) == 0

    def test_max_of_same_value(self):
        from repro.dpe.mlir.passes import simplify_algebraic
        module = Module("m")
        builder = Builder(module, "s", [F32])
        out = builder.op("arith.maxf",
                         [builder.args[0], builder.args[0]], [F32])
        builder.ret([out.result()])
        assert simplify_algebraic(builder.function) == 1

    def test_double_relu_collapsed(self):
        from repro.dpe.mlir.passes import simplify_algebraic
        import numpy as np
        module = Module("m")
        t = TensorType((2, 2), F32)
        builder = Builder(module, "s", [t])
        first = builder.op("tensor.relu", [builder.args[0]], [t])
        second = builder.op("tensor.relu", [first.result()], [t])
        builder.ret([second.result()])
        before = Interpreter(module).run(
            "s", np.array([[-1.0, 2.0], [0.5, -3.0]]))
        assert simplify_algebraic(builder.function) == 1
        canonicalize(builder.function)
        assert len(builder.function.ops) == 1
        after = Interpreter(module).run(
            "s", np.array([[-1.0, 2.0], [0.5, -3.0]]))
        np.testing.assert_array_equal(before[0], after[0])

    def test_canonicalize_chains_simplifications(self):
        """x*1 + 0 collapses fully to x through repeated passes."""
        module = Module("m")
        builder = Builder(module, "chain", [F32])
        one = builder.op("arith.constant", [], [F32], {"value": 1.0})
        zero = builder.op("arith.constant", [], [F32], {"value": 0.0})
        scaled = builder.op("arith.mulf",
                            [builder.args[0], one.result()], [F32])
        shifted = builder.op("arith.addf",
                             [scaled.result(), zero.result()], [F32])
        builder.ret([shifted.result()])
        counts = canonicalize(builder.function)
        assert counts["simplified"] >= 2
        assert len(builder.function.ops) == 0
        assert builder.function.returns[0] is builder.function.arguments[0]
        assert Interpreter(module).run("chain", 9.0) == [9.0]
