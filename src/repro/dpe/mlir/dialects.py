"""Dialect definitions: arith, tensor, base2, dfg, cgra and their verifiers.

Each op is registered with its verifier, the one home of the op's rules:
:func:`repro.dpe.mlir.ir.verify_function` runs it on every op. A
verifier checks the operand and result counts first, so the op's type
rules after it can index both safely. The interpreter in
:mod:`repro.dpe.mlir.interp` gives the ops executable semantics so every
lowering can be checked for functional equivalence.
"""

from __future__ import annotations

from typing import Callable

from repro.core.errors import CompilationError
from repro.dpe.mlir.ir import (
    I1,
    Base2Type,
    Operation,
    ScalarType,
    TensorType,
    register_op,
)

Rule = Callable[[Operation], None]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CompilationError(message)


def _element(type_):
    """A tensor's element type; a scalar or base2 type is its own."""
    return type_.element if isinstance(type_, TensorType) else type_


def _verifier(operands: int, results: int, *rules: Rule) -> Rule:
    """An op verifier: the operand and result counts, then *rules*."""

    def verify(op: Operation) -> None:
        _require(len(op.operands) == operands,
                 f"expects {operands} operands, has {len(op.operands)}")
        _require(len(op.results) == results,
                 f"expects {results} results, has {len(op.results)}")
        for rule in rules:
            rule(op)

    return verify


def _constant(op: Operation) -> None:
    _require("value" in op.attributes, "constant needs a 'value' attribute")


# -- arith dialect ----------------------------------------------------------------


def _same_types(op: Operation) -> None:
    lhs, rhs = op.operands
    _require(lhs.type == rhs.type,
             f"operand types differ: {lhs.type} vs {rhs.type}")
    _require(lhs.type == op.results[0].type,
             "result type must match operand type")


def _integer_kind(op: Operation) -> None:
    elem = _element(op.operands[0].type)
    _require(not isinstance(elem, ScalarType) or elem.is_integer,
             f"integer arith on non-integer type {elem}")


def _float_kind(op: Operation) -> None:
    elem = _element(op.operands[0].type)
    _require(not isinstance(elem, ScalarType) or elem.is_float,
             f"float arith on non-float type {elem}")


def _cmp(op: Operation) -> None:
    _require(op.attributes.get("predicate") in
             ("eq", "ne", "lt", "le", "gt", "ge"),
             "cmp needs a valid 'predicate' attribute")
    lhs, rhs = op.operands
    _require(lhs.type == rhs.type,
             f"cmp operand types differ: {lhs.type} vs {rhs.type}")
    _require(op.results[0].type == I1, "cmp result must be i1")


def _select(op: Operation) -> None:
    cond, then, other = op.operands
    _require(cond.type == I1, "select condition must be i1")
    _require(then.type == other.type,
             "select branches must have the same type")
    _require(op.results[0].type == then.type,
             "select result type must match branch type")


for _name in ("arith.addi", "arith.subi", "arith.muli"):
    register_op(_name, _verifier(2, 1, _same_types, _integer_kind))
for _name in ("arith.addf", "arith.subf", "arith.mulf", "arith.divf",
              "arith.maxf", "arith.minf"):
    register_op(_name, _verifier(2, 1, _same_types, _float_kind))
register_op("arith.constant", _verifier(0, 1, _constant))
register_op("arith.cmp", _verifier(2, 1, _cmp))
register_op("arith.select", _verifier(3, 1, _select))


# -- tensor dialect (NN kernels; the torch-MLIR/ONNX entry point) -------------------


def _matmul(op: Operation) -> None:
    a, b = (operand.type for operand in op.operands)
    _require(isinstance(a, TensorType) and isinstance(b, TensorType),
             "matmul operands must be tensors")
    _require(len(a.shape) == 2 and len(b.shape) == 2,
             "matmul needs rank-2 tensors")
    _require(a.shape[1] == b.shape[0],
             f"matmul inner dims differ: {a.shape} x {b.shape}")
    result = op.results[0].type
    _require(isinstance(result, TensorType)
             and result.shape == (a.shape[0], b.shape[1]),
             "matmul result shape mismatch")


def _elementwise(op: Operation) -> None:
    first = op.operands[0].type
    _require(isinstance(first, TensorType), "operands must be tensors")
    for other in op.operands[1:]:
        _require(other.type == first, "elementwise operand types differ")
    _require(op.results[0].type == first,
             "elementwise result type mismatch")


def _reshape(op: Operation) -> None:
    src = op.operands[0].type
    dst = op.results[0].type
    _require(isinstance(src, TensorType) and isinstance(dst, TensorType),
             "reshape needs tensor types")
    _require(src.num_elements == dst.num_elements,
             "reshape must preserve element count")


register_op("tensor.matmul", _verifier(2, 1, _matmul))
register_op("tensor.add", _verifier(2, 1, _elementwise))
register_op("tensor.mul", _verifier(2, 1, _elementwise))
register_op("tensor.relu", _verifier(1, 1, _elementwise))
register_op("tensor.reshape", _verifier(1, 1, _reshape))
register_op("tensor.constant", _verifier(0, 1, _constant))


# -- base2 dialect (fixed-point numerals [25]) ----------------------------------------


def _quantize(op: Operation) -> None:
    _require(isinstance(_element(op.results[0].type), Base2Type),
             "quantize result must be a base2 type")


def _dequantize(op: Operation) -> None:
    _require(isinstance(_element(op.operands[0].type), Base2Type),
             "dequantize operand must be a base2 type")
    _require(not isinstance(_element(op.results[0].type), Base2Type),
             "dequantize result must be a float/scalar type")


def _fixed_point(op: Operation) -> None:
    for operand in op.operands:
        _require(isinstance(_element(operand.type), Base2Type),
                 "fixed-point op needs base2 operands")
    elem = _element(op.results[0].type)
    _require(isinstance(elem, Base2Type),
             f"base2 op result element is {elem}, expected a base2 type")


register_op("base2.quantize", _verifier(1, 1, _quantize))
register_op("base2.dequantize", _verifier(1, 1, _dequantize))
for _name in ("base2.add", "base2.mul", "base2.matmul"):
    register_op(_name, _verifier(2, 1, _fixed_point))
register_op("base2.relu", _verifier(1, 1, _fixed_point))


# -- dfg dialect markers (graph structure lives in repro.dpe.mlir.dataflow) ------------

register_op("dfg.push")
register_op("dfg.pull")


# -- cgra dialect ------------------------------------------------------------------


def _verify_cgra_config(op: Operation) -> None:
    _require("placements" in op.attributes,
             "cgra.config needs a 'placements' attribute")


register_op("cgra.config", _verify_cgra_config)
