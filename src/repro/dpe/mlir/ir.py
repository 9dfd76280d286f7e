"""A compact multi-dialect SSA IR, in the spirit of MLIR.

The DPE's node-level optimization step builds "a common interoperability
framework based on MLIR" (paper Sec. V) with dialects for dataflow
(dfg-mlir), binary numeral types (base2) and CGRAs (cgra-mlir). This
module provides the IR core those dialects plug into: types, SSA values,
operations with attributes, functions, modules, a builder, and the IR's
one verifier: SSA dominance here, each op's rules in the verifier its
dialect registers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.errors import CompilationError


# -- types -----------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarType:
    """A scalar: i32, i64, f32, f64 or i1."""

    name: str  # "i1" | "i32" | "i64" | "f32" | "f64"

    def __str__(self) -> str:
        return self.name

    @property
    def is_float(self) -> bool:
        return self.name.startswith("f")

    @property
    def is_integer(self) -> bool:
        return self.name.startswith("i")


I1 = ScalarType("i1")
I32 = ScalarType("i32")
I64 = ScalarType("i64")
F32 = ScalarType("f32")
F64 = ScalarType("f64")


@dataclass(frozen=True)
class Base2Type:
    """Fixed-point binary numeral type (the base2 dialect [25]).

    ``width`` total bits, ``frac`` fractional bits, two's complement
    when signed. Value range and quantization step follow directly.
    """

    width: int
    frac: int
    signed: bool = True

    def __post_init__(self):
        if self.width < 1 or self.frac < 0 or self.frac > self.width:
            raise CompilationError(
                f"invalid base2 type width={self.width} frac={self.frac}")

    def __str__(self) -> str:
        sign = "s" if self.signed else "u"
        return f"base2.fixed<{sign}{self.width}_{self.frac}>"

    @property
    def scale(self) -> float:
        return 2.0 ** -self.frac

    @property
    def min_value(self) -> float:
        if self.signed:
            return -(2 ** (self.width - 1)) * self.scale
        return 0.0

    @property
    def max_value(self) -> float:
        if self.signed:
            return (2 ** (self.width - 1) - 1) * self.scale
        return (2 ** self.width - 1) * self.scale

    def quantize(self, value: float) -> int:
        """Float -> clamped integer representation."""
        raw = round(value / self.scale)
        lo = round(self.min_value / self.scale)
        hi = round(self.max_value / self.scale)
        return max(lo, min(hi, raw))

    def dequantize(self, raw: int) -> float:
        return raw * self.scale


@dataclass(frozen=True)
class TensorType:
    """A dense tensor with static shape."""

    shape: tuple[int, ...]
    element: ScalarType | Base2Type

    def __post_init__(self):
        if any(d < 1 for d in self.shape):
            raise CompilationError(f"bad tensor shape {self.shape}")

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"tensor<{dims}x{self.element}>"

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n


Type = ScalarType | Base2Type | TensorType


# -- values and operations ---------------------------------------------------------------


@dataclass(eq=False)
class Value:
    """An SSA value: produced by exactly one op (or a function arg)."""

    type: Type
    name: str
    producer: "Operation | None" = None

    def __repr__(self) -> str:
        return f"%{self.name}: {self.type}"


@dataclass(eq=False)
class Operation:
    """One IR operation: ``results = dialect.op(operands) {attrs}``."""

    name: str  # "dialect.opname"
    operands: list[Value]
    attributes: dict[str, Any]
    results: list[Value]

    @property
    def dialect(self) -> str:
        return self.name.split(".", 1)[0]

    def result(self, index: int = 0) -> Value:
        return self.results[index]

    def __repr__(self) -> str:
        res = ", ".join(f"%{r.name}" for r in self.results)
        args = ", ".join(f"%{o.name}" for o in self.operands)
        attrs = (" " + str(self.attributes)) if self.attributes else ""
        head = f"{res} = " if res else ""
        return f"{head}{self.name}({args}){attrs}"


@dataclass(eq=False)
class Function:
    """A single-block function (sufficient for dataflow kernels)."""

    name: str
    arguments: list[Value]
    ops: list[Operation] = field(default_factory=list)
    returns: list[Value] = field(default_factory=list)

    @property
    def arg_types(self) -> list[Type]:
        return [a.type for a in self.arguments]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lines = [f"func @{self.name}({', '.join(map(repr, self.arguments))})"]
        lines += [f"  {op!r}" for op in self.ops]
        lines.append(f"  return {', '.join('%' + r.name for r in self.returns)}")
        return "\n".join(lines)


@dataclass(eq=False)
class Module:
    """Top-level container of functions."""

    name: str
    functions: dict[str, Function] = field(default_factory=dict)

    def add(self, function: Function) -> Function:
        if function.name in self.functions:
            raise CompilationError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        return function

    def function(self, name: str) -> Function:
        if name not in self.functions:
            raise CompilationError(f"unknown function {name!r}")
        return self.functions[name]


class Builder:
    """Constructs SSA into a function with fresh value names."""

    def __init__(self, module: Module, func_name: str,
                 arg_types: list[Type]):
        self._counter = itertools.count()
        args = [Value(t, f"arg{i}") for i, t in enumerate(arg_types)]
        self.function = Function(name=func_name, arguments=args)
        module.add(self.function)

    def _fresh(self, type_: Type) -> Value:
        return Value(type_, f"v{next(self._counter)}")

    def op(self, name: str, operands: list[Value],
           result_types: list[Type],
           attributes: dict[str, Any] | None = None) -> Operation:
        """Append an operation; returns it (use .result() for the value)."""
        operation = Operation(
            name=name,
            operands=list(operands),
            attributes=dict(attributes or {}),
            results=[self._fresh(t) for t in result_types],
        )
        for res in operation.results:
            res.producer = operation
        self.function.ops.append(operation)
        return operation

    def ret(self, values: list[Value]) -> None:
        self.function.returns = list(values)

    @property
    def args(self) -> list[Value]:
        return self.function.arguments


# -- op registry and verification -------------------------------------------------------

#: name -> (verify_fn(op) -> None). Dialect modules register here.
OP_VERIFIERS: dict[str, Callable[[Operation], None]] = {}

#: Name prefixes of the dialects whose ops act on channels (dfg) or on
#: configuration state (cgra): dead-code elimination keeps them, the
#: dead-value analysis ignores their unread results, and HLS prices
#: none of them.
SIDE_EFFECT_PREFIXES = ("dfg.", "cgra.")


def register_op(name: str,
                verifier: Callable[[Operation], None] | None = None) -> None:
    """Register an op name (and optional structural verifier)."""
    OP_VERIFIERS[name] = verifier or (lambda op: None)


def verify_function(function: Function) -> list[str]:
    """The IR's one verifier; returns every problem it finds.

    A single walk reports operands read before their defining op or
    never defined at all, returns of undefined values, unregistered
    ops, and whatever each op's registered dialect verifier rejects.
    """
    problems: list[str] = []
    name = function.name
    defined: set[int] = {id(a) for a in function.arguments}
    for position, op in enumerate(function.ops):
        for operand in op.operands:
            if id(operand) in defined:
                continue
            where = f"{name}: op #{position} ({op.name}) uses"
            if any(operand in later.results
                   for later in function.ops[position:]):
                problems.append(
                    f"{where} %{operand.name} before its definition")
            else:
                problems.append(f"{where} undefined value "
                                f"%{operand.name} (never defined)")
        verifier = OP_VERIFIERS.get(op.name)
        if verifier is None:
            problems.append(f"{name}: unregistered op {op.name}")
        else:
            try:
                verifier(op)
            except CompilationError as exc:
                problems.append(f"{name}: {op.name}: {exc}")
        for res in op.results:
            defined.add(id(res))
    for ret in function.returns:
        if id(ret) not in defined:
            problems.append(f"{name}: returns undefined value "
                            f"%{ret.name} (never defined)")
    return problems


def verify_module(module: Module) -> None:
    """Raise :class:`CompilationError` listing all verification problems."""
    problems = []
    for function in module.functions.values():
        problems += verify_function(function)
    if problems:
        raise CompilationError(
            f"module {module.name!r} failed verification: "
            + "; ".join(problems)
        )
