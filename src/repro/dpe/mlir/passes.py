"""Rewrite passes: constant folding, CSE, DCE, and base2 quantization.

The quantization pass implements the "NumPy-like expressions with support
for custom data types using the base2 dialect" direction of the paper: a
float tensor function is rewritten into fixed-point arithmetic with
quantize/dequantize at the boundary, preserving the function interface.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.errors import CompilationError
from repro.dpe.mlir.ir import (
    SIDE_EFFECT_PREFIXES,
    Base2Type,
    Function,
    Module,
    Operation,
    TensorType,
    Value,
    verify_function,
)
from repro.dpe.mlir.interp import Interpreter

_FOLDABLE = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b,
    "arith.maxf": max,
    "arith.minf": min,
}


def fold_constants(function: Function) -> int:
    """Evaluate ops whose operands are all arith.constants.

    Returns the number of ops folded. Folded ops become constants; DCE
    removes the now-dead originals' operands.
    """
    folded = 0
    const_values: dict[int, Any] = {}
    for op in function.ops:
        if op.name == "arith.constant":
            const_values[id(op.results[0])] = op.attributes["value"]
    for op in list(function.ops):
        fn = _FOLDABLE.get(op.name)
        if fn is None:
            continue
        if all(id(v) in const_values for v in op.operands):
            value = fn(*(const_values[id(v)] for v in op.operands))
            op.name = "arith.constant"
            op.operands = []
            op.attributes = {"value": value}
            const_values[id(op.results[0])] = value
            folded += 1
    return folded


def eliminate_common_subexpressions(function: Function) -> int:
    """Merge structurally identical pure ops; returns ops removed."""
    seen: dict[tuple, Value] = {}
    replacements: dict[int, Value] = {}
    kept: list[Operation] = []
    removed = 0
    for op in function.ops:
        operands = [replacements.get(id(v), v) for v in op.operands]
        op.operands = operands
        key = (
            op.name,
            tuple(id(v) for v in operands),
            tuple(sorted(
                (k, _hashable(v)) for k, v in op.attributes.items())),
        )
        if len(op.results) == 1 and key in seen:
            replacements[id(op.results[0])] = seen[key]
            removed += 1
            continue
        if len(op.results) == 1:
            seen[key] = op.results[0]
        kept.append(op)
    function.ops = kept
    function.returns = [replacements.get(id(v), v)
                        for v in function.returns]
    return removed


def _hashable(value: Any):
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    return value


def eliminate_dead_code(function: Function) -> int:
    """Drop unused ops free of side effects; returns ops removed."""
    live: set[int] = {id(v) for v in function.returns}
    kept_reversed: list[Operation] = []
    removed = 0
    for op in reversed(function.ops):
        if any(id(r) in live for r in op.results) \
                or op.name.startswith(SIDE_EFFECT_PREFIXES):
            kept_reversed.append(op)
            for operand in op.operands:
                live.add(id(operand))
        else:
            removed += 1
    function.ops = list(reversed(kept_reversed))
    return removed


def simplify_algebraic(function: Function) -> int:
    """Peephole identities: x*1, x+0, x-0, x/1, min/max(x,x), relu∘relu.

    Returns the number of rewrites. Identities are applied by replacing
    every use of the op's result with the surviving operand; DCE then
    removes the orphaned op.
    """
    const_values: dict[int, Any] = {}
    for op in function.ops:
        if op.name in ("arith.constant", "tensor.constant"):
            const_values[id(op.results[0])] = op.attributes["value"]

    def is_const(value: Value, expected: float) -> bool:
        raw = const_values.get(id(value))
        if raw is None:
            return False
        if isinstance(raw, np.ndarray):
            return bool(np.all(raw == expected))
        return raw == expected

    replacements: dict[int, Value] = {}
    rewrites = 0
    for op in function.ops:
        op.operands = [replacements.get(id(v), v) for v in op.operands]
        survivor: Value | None = None
        if op.name in ("arith.mulf", "arith.muli", "tensor.mul"):
            lhs, rhs = op.operands
            if is_const(rhs, 1.0):
                survivor = lhs
            elif is_const(lhs, 1.0):
                survivor = rhs
        elif op.name in ("arith.addf", "arith.addi", "tensor.add"):
            lhs, rhs = op.operands
            if is_const(rhs, 0.0):
                survivor = lhs
            elif is_const(lhs, 0.0):
                survivor = rhs
        elif op.name in ("arith.subf", "arith.subi"):
            if is_const(op.operands[1], 0.0):
                survivor = op.operands[0]
        elif op.name == "arith.divf":
            if is_const(op.operands[1], 1.0):
                survivor = op.operands[0]
        elif op.name in ("arith.maxf", "arith.minf"):
            if op.operands[0] is op.operands[1]:
                survivor = op.operands[0]
        elif op.name in ("tensor.relu", "base2.relu"):
            producer = op.operands[0].producer
            if producer is not None and producer.name == op.name:
                survivor = op.operands[0]  # relu is idempotent
        if survivor is not None and survivor.type == op.results[0].type:
            replacements[id(op.results[0])] = survivor
            rewrites += 1
    if replacements:
        for op in function.ops:
            op.operands = [replacements.get(id(v), v)
                           for v in op.operands]
        function.returns = [replacements.get(id(v), v)
                            for v in function.returns]
    return rewrites


def statically_check(function: Function) -> None:
    """Verify a pass's output; raise when the function is broken.

    Every pass calls this on its output, so a rewrite that produces a
    use-before-def or a type inconsistency fails immediately at the
    stage that introduced it instead of surfacing as a wrong number in
    the interpreter (or not at all).
    """
    problems = verify_function(function)
    if problems:
        raise CompilationError(
            f"pass output failed static checks: " + "; ".join(problems))


def canonicalize(function: Function) -> dict[str, int]:
    """Fold + simplify + CSE + DCE to a fixed point; returns counts."""
    totals = {"folded": 0, "simplified": 0, "cse": 0, "dce": 0}
    for _ in range(20):
        folded = fold_constants(function)
        simplified = simplify_algebraic(function)
        cse = eliminate_common_subexpressions(function)
        dce = eliminate_dead_code(function)
        totals["folded"] += folded
        totals["simplified"] += simplified
        totals["cse"] += cse
        totals["dce"] += dce
        if folded == simplified == cse == dce == 0:
            break
    statically_check(function)
    return totals


# -- quantization to base2 ----------------------------------------------------------

_TENSOR_TO_BASE2 = {
    "tensor.matmul": "base2.matmul",
    "tensor.add": "base2.add",
    "tensor.mul": "base2.mul",
    "tensor.relu": "base2.relu",
}


def quantize_to_base2(module: Module, func_name: str,
                      fixed: Base2Type,
                      new_name: str | None = None) -> Function:
    """Create a fixed-point twin of a float tensor function.

    The new function keeps the float interface: inputs are quantized on
    entry, arithmetic runs in base2, results dequantize on exit — the
    standard deployment shape for FPGA/CGRA inference.
    """
    source = module.function(func_name)
    new_name = new_name or f"{func_name}_base2"
    mapping: dict[int, Value] = {}
    target = Function(
        name=new_name,
        arguments=[Value(a.type, a.name) for a in source.arguments],
    )
    counter = [0]

    def fresh(type_) -> Value:
        counter[0] += 1
        return Value(type_, f"q{counter[0]}")

    def fixed_type_of(float_type):
        if isinstance(float_type, TensorType):
            return TensorType(float_type.shape, fixed)
        return fixed

    def emit(name, operands, result_type, attributes=None) -> Value:
        operation = Operation(
            name=name, operands=list(operands),
            attributes=dict(attributes or {}),
            results=[fresh(result_type)])
        operation.results[0].producer = operation
        target.ops.append(operation)
        return operation.results[0]

    # Quantize arguments (the target function's own argument values).
    for src_arg, dst_arg in zip(source.arguments, target.arguments):
        mapping[id(src_arg)] = emit("base2.quantize", [dst_arg],
                                    fixed_type_of(src_arg.type))
    # Translate the body.
    for op in source.ops:
        if op.name == "tensor.constant":
            raw = emit("tensor.constant", [], op.results[0].type,
                       op.attributes)
            mapping[id(op.results[0])] = emit(
                "base2.quantize", [raw],
                fixed_type_of(op.results[0].type))
        elif op.name in _TENSOR_TO_BASE2:
            operands = [mapping[id(v)] for v in op.operands]
            mapping[id(op.results[0])] = emit(
                _TENSOR_TO_BASE2[op.name], operands,
                fixed_type_of(op.results[0].type))
        else:
            raise CompilationError(
                f"quantize_to_base2: unsupported op {op.name}")
    # Dequantize results.
    returns = []
    for ret in source.returns:
        returns.append(emit("base2.dequantize", [mapping[id(ret)]],
                            ret.type))
    target.returns = returns
    module.add(target)
    statically_check(target)
    return target


def quantization_error(module: Module, float_func: str, fixed_func: str,
                       inputs: list[np.ndarray]) -> float:
    """Max absolute difference between float and base2 versions."""
    interp = Interpreter(module)
    ref = interp.run(float_func, *inputs)
    approx = interp.run(fixed_func, *inputs)
    worst = 0.0
    for r, a in zip(ref, approx):
        worst = max(worst, float(np.max(np.abs(
            np.asarray(r, dtype=np.float64)
            - np.asarray(a, dtype=np.float64)))))
    return worst
