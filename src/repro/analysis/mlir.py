"""Dataflow analyses for the mini-MLIR (`repro.dpe.mlir`).

The IR's one verifier, ``repro.dpe.mlir.ir.verify_function``, checks
SSA dominance and runs each op's dialect verifier; the DPE passes call
it after every rewrite, so each lowering stage of the DPE flow is
statically checked, not just interpreted. This module adds the classic
dataflow analyses on top: def-use chains, dead-value detection and
backward liveness over an explicit control-flow graph.
``analyze_module`` reports the verifier's problems and the dead values
as findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import CompilationError
from repro.dpe.mlir.ir import (
    SIDE_EFFECT_PREFIXES,
    Function,
    Module,
    Operation,
    Value,
    verify_function,
)

from repro.analysis.findings import Finding, Severity, assign_occurrences


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
                info.producer.name.startswith(SIDE_EFFECT_PREFIXES):
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


def analyze_module(module: Module) -> list[Finding]:
    """Full report as findings (blocking problems + dead-value warnings)."""
    findings: list[Finding] = []
    for function in module.functions.values():
        path = f"mlir:{module.name}/{function.name}"
        for problem in verify_function(function):
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
