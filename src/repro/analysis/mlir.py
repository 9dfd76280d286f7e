"""Dataflow analyses for the mini-MLIR (`repro.dpe.mlir`).

The IR verifier in ``repro.dpe.mlir.ir`` enforces SSA dominance and
per-op structural rules; this module adds the classic dataflow
analyses on top: def-use chains, use-before-def and dead-value
detection, backward liveness over an explicit control-flow graph, and a
type/arity consistency checker that is stricter than the dialect
verifiers (element kinds for arith ops, result types of base2/select,
cmp operand agreement).

``check_function`` combines the blocking analyses and is invoked from
``repro.dpe.mlir.passes`` after every rewrite, so each lowering stage
of the DPE flow is statically checked — not just interpreted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import CompilationError
from repro.dpe.mlir.ir import (
    OP_VERIFIERS,
    Base2Type,
    Function,
    Module,
    Operation,
    ScalarType,
    TensorType,
    Value,
)

from repro.analysis.findings import Finding, Severity, assign_occurrences

#: Ops kept alive regardless of result uses (side effects on channels /
#: configuration state) — mirrors the DCE rule in passes.py.
_SIDE_EFFECT_PREFIXES = ("dfg.", "cgra.")


# -- def-use chains ----------------------------------------------------------------


@dataclass
class DefUse:
    """Where one SSA value is defined and every place it is used."""

    value: Value
    producer: Operation | None  # None = function argument
    uses: list[tuple[Operation, int]] = field(default_factory=list)
    returned: bool = False

    @property
    def is_argument(self) -> bool:
        return self.producer is None

    @property
    def is_dead(self) -> bool:
        return not self.uses and not self.returned


def def_use_chains(function: Function) -> dict[Value, DefUse]:
    """Build the def-use chain for every value in *function*."""
    chains: dict[Value, DefUse] = {}
    for arg in function.arguments:
        chains[arg] = DefUse(value=arg, producer=None)
    for op in function.ops:
        for res in op.results:
            chains[res] = DefUse(value=res, producer=op)
    for op in function.ops:
        for index, operand in enumerate(op.operands):
            if operand in chains:
                chains[operand].uses.append((op, index))
    for ret in function.returns:
        if ret in chains:
            chains[ret].returned = True
    return chains


def use_before_def(function: Function) -> list[str]:
    """Report operands read before (or without ever being) defined."""
    problems: list[str] = []
    defined: set[int] = {id(a) for a in function.arguments}
    all_defs: set[int] = set(defined)
    for op in function.ops:
        for res in op.results:
            all_defs.add(id(res))
    for position, op in enumerate(function.ops):
        for operand in op.operands:
            if id(operand) in defined:
                continue
            if id(operand) in all_defs:
                problems.append(
                    f"{function.name}: op #{position} ({op.name}) uses "
                    f"%{operand.name} before its definition")
            else:
                problems.append(
                    f"{function.name}: op #{position} ({op.name}) uses "
                    f"%{operand.name} which is never defined")
        for res in op.results:
            defined.add(id(res))
    for ret in function.returns:
        if id(ret) not in defined:
            problems.append(
                f"{function.name}: returns %{ret.name} which is never "
                "defined")
    return problems


def dead_values(function: Function) -> list[Value]:
    """Values produced but never consumed nor returned.

    Results of side-effecting ops (dfg.*, cgra.*) are not reported:
    their firing matters even when the token value is unread.
    """
    dead = []
    for info in def_use_chains(function).values():
        if not info.is_dead or info.is_argument:
            continue
        if info.producer is not None and \
                info.producer.name.startswith(_SIDE_EFFECT_PREFIXES):
            continue
        dead.append(info.value)
    return dead


# -- liveness over an explicit CFG ----------------------------------------------------

# The IR's functions are single-block, but the analysis is written
# against a block graph so lowering stages that introduce control flow
# (and the tests' diamond CFG) use the same fixed-point engine.


@dataclass
class Block:
    """A straight-line sequence of operations inside a CFG."""

    name: str
    ops: list[Operation] = field(default_factory=list)

    def use_def(self) -> tuple[set[Value], set[Value]]:
        """(upward-exposed uses, definitions) for this block."""
        uses: set[Value] = set()
        defs: set[Value] = set()
        for op in self.ops:
            for operand in op.operands:
                if operand not in defs:
                    uses.add(operand)
            for res in op.results:
                defs.add(res)
        return uses, defs


class ControlFlowGraph:
    """A directed graph of blocks with one entry."""

    def __init__(self, name: str, entry: str = "entry"):
        self.name = name
        self.entry = entry
        self.blocks: dict[str, Block] = {}
        self._successors: dict[str, list[str]] = {}

    def add_block(self, name: str,
                  ops: list[Operation] | None = None) -> Block:
        if name in self.blocks:
            raise CompilationError(f"duplicate block {name!r}")
        block = Block(name, list(ops or []))
        self.blocks[name] = block
        self._successors[name] = []
        return block

    def add_edge(self, src: str, dst: str) -> None:
        for endpoint in (src, dst):
            if endpoint not in self.blocks:
                raise CompilationError(f"unknown block {endpoint!r}")
        self._successors[src].append(dst)

    def successors(self, name: str) -> list[str]:
        return list(self._successors[name])

    def exit_blocks(self) -> list[str]:
        return [name for name, succ in self._successors.items()
                if not succ]


@dataclass
class LivenessResult:
    """Per-block live-in/live-out sets from the backward fixed point."""

    live_in: dict[str, frozenset[Value]]
    live_out: dict[str, frozenset[Value]]


def liveness(cfg: ControlFlowGraph,
             exit_live: set[Value] | None = None) -> LivenessResult:
    """Backward may-liveness: ``in = use ∪ (out − def)``.

    *exit_live* is the set of values live past the function (its
    returns); it seeds the live-out of every exit block.
    """
    exit_live = set(exit_live or ())
    use_def = {name: block.use_def()
               for name, block in cfg.blocks.items()}
    live_in: dict[str, set[Value]] = {n: set() for n in cfg.blocks}
    live_out: dict[str, set[Value]] = {n: set() for n in cfg.blocks}
    exits = set(cfg.exit_blocks())
    changed = True
    while changed:
        changed = False
        for name in cfg.blocks:
            out: set[Value] = set(exit_live) if name in exits else set()
            for succ in cfg.successors(name):
                out |= live_in[succ]
            uses, defs = use_def[name]
            new_in = uses | (out - defs)
            if out != live_out[name] or new_in != live_in[name]:
                live_out[name] = out
                live_in[name] = new_in
                changed = True
    return LivenessResult(
        live_in={n: frozenset(s) for n, s in live_in.items()},
        live_out={n: frozenset(s) for n, s in live_out.items()},
    )


def cfg_of_function(function: Function) -> ControlFlowGraph:
    """View a single-block IR function as a one-block CFG."""
    cfg = ControlFlowGraph(function.name)
    cfg.add_block(cfg.entry, function.ops)
    return cfg


# -- type / arity consistency -------------------------------------------------------

#: op name -> (operand count, result count); None = unconstrained.
_ARITY: dict[str, tuple[int | None, int | None]] = {
    "arith.constant": (0, 1),
    "arith.cmp": (2, 1),
    "arith.select": (3, 1),
    "tensor.constant": (0, 1),
    "tensor.matmul": (2, 1),
    "tensor.add": (2, 1),
    "tensor.mul": (2, 1),
    "tensor.relu": (1, 1),
    "tensor.reshape": (1, 1),
    "base2.quantize": (1, 1),
    "base2.dequantize": (1, 1),
    "base2.add": (2, 1),
    "base2.mul": (2, 1),
    "base2.matmul": (2, 1),
    "base2.relu": (1, 1),
}
for _name in ("arith.addi", "arith.subi", "arith.muli", "arith.addf",
              "arith.subf", "arith.mulf", "arith.divf", "arith.maxf",
              "arith.minf"):
    _ARITY[_name] = (2, 1)

_INT_ARITH = frozenset({"arith.addi", "arith.subi", "arith.muli"})
_FLOAT_ARITH = frozenset({"arith.addf", "arith.subf", "arith.mulf",
                          "arith.divf", "arith.maxf", "arith.minf"})


def _element_of(type_):
    return type_.element if isinstance(type_, TensorType) else type_


def check_types(function: Function) -> list[str]:
    """Arity + type consistency beyond the dialect verifiers.

    Runs the registered per-op verifier, then checks the stricter rules
    the dialects leave open: scalar kind of arith int/float ops, cmp
    operand agreement, select result type, and base2 result elements.
    """
    problems: list[str] = []

    def bad(op: Operation, message: str) -> None:
        problems.append(f"{function.name}: {op.name}: {message}")

    for op in function.ops:
        arity = _ARITY.get(op.name)
        if arity is not None:
            want_operands, want_results = arity
            if want_operands is not None \
                    and len(op.operands) != want_operands:
                bad(op, f"expects {want_operands} operands, has "
                        f"{len(op.operands)}")
                continue
            if want_results is not None \
                    and len(op.results) != want_results:
                bad(op, f"expects {want_results} results, has "
                        f"{len(op.results)}")
                continue
        verifier = OP_VERIFIERS.get(op.name)
        if verifier is not None:
            try:
                verifier(op)
            except CompilationError as exc:
                bad(op, str(exc))
                continue
        if op.name in _INT_ARITH or op.name in _FLOAT_ARITH:
            elem = _element_of(op.operands[0].type)
            if isinstance(elem, ScalarType):
                if op.name in _INT_ARITH and not elem.is_integer:
                    bad(op, f"integer arith on non-integer type {elem}")
                if op.name in _FLOAT_ARITH and not elem.is_float:
                    bad(op, f"float arith on non-float type {elem}")
        elif op.name == "arith.cmp":
            lhs, rhs = op.operands
            if lhs.type != rhs.type:
                bad(op, f"cmp operand types differ: {lhs.type} vs "
                        f"{rhs.type}")
        elif op.name == "arith.select":
            if op.results[0].type != op.operands[1].type:
                bad(op, "select result type must match branch type")
        elif op.name in ("base2.add", "base2.mul", "base2.matmul",
                         "base2.relu"):
            elem = _element_of(op.results[0].type)
            if not isinstance(elem, Base2Type):
                bad(op, f"base2 op result element is {elem}, "
                        "expected a base2 type")
        elif op.name == "base2.dequantize":
            elem = _element_of(op.results[0].type)
            if isinstance(elem, Base2Type):
                bad(op, "dequantize result must be a float/scalar type")
    return problems


# -- combined checks (the pass entry points) ------------------------------------------


def check_function(function: Function) -> list[str]:
    """Blocking checks: use-before-def + type/arity consistency."""
    return use_before_def(function) + check_types(function)


def check_module(module: Module) -> None:
    """Raise :class:`CompilationError` when any function fails."""
    problems: list[str] = []
    for function in module.functions.values():
        problems += check_function(function)
    if problems:
        raise CompilationError(
            f"module {module.name!r} failed dataflow checks: "
            + "; ".join(problems))


def analyze_module(module: Module) -> list[Finding]:
    """Full report as findings (blocking problems + dead-value warnings)."""
    findings: list[Finding] = []
    for function in module.functions.values():
        path = f"mlir:{module.name}/{function.name}"
        for problem in check_function(function):
            findings.append(Finding(
                tool="mlir", rule="dataflow", path=path, line=0,
                message=problem, severity=Severity.ERROR,
                context=problem))
        for value in dead_values(function):
            producer = value.producer.name if value.producer else "?"
            message = (f"{function.name}: %{value.name} ({producer}) is "
                       "never used")
            findings.append(Finding(
                tool="mlir", rule="dead-value", path=path, line=0,
                message=message, severity=Severity.WARNING,
                context=message))
    return assign_occurrences(findings)
