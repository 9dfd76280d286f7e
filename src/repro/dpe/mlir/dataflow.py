"""The dfg dialect: static dataflow graphs (dfg-mlir analogue).

Actors wrap IR functions; channels carry tokens with SDF
production/consumption rates. Provides the classic SDF analyses —
consistency (repetition vector via balance equations), deadlock-free
buffer sizing, and throughput estimation — plus a functional executor
that fires actors with the reference interpreter, used to check HLS and
CGRA lowerings for equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from repro.core.errors import CompilationError
from repro.core.graph import topological_sort
from repro.dpe.mlir.interp import Interpreter
from repro.dpe.mlir.ir import Module


@dataclass
class Actor:
    """A dataflow actor bound to an IR function.

    ``input_rates``/``output_rates`` give tokens consumed/produced per
    firing, in the order of the function's arguments/results.
    """

    name: str
    function: str
    input_rates: tuple[int, ...] = ()
    output_rates: tuple[int, ...] = ()
    # Cost model for scheduling/throughput (cycles per firing).
    cycles_per_firing: int = 1

    def __post_init__(self):
        if any(r < 1 for r in self.input_rates + self.output_rates):
            raise CompilationError(
                f"actor {self.name}: rates must be >= 1")


@dataclass
class Channel:
    """A FIFO from one actor output port to another's input port."""

    src: str
    src_port: int
    dst: str
    dst_port: int
    initial_tokens: int = 0


class DataflowGraph:
    """A static (synchronous) dataflow graph."""

    def __init__(self, name: str, module: Module):
        self.name = name
        self.module = module
        self.actors: dict[str, Actor] = {}
        self.channels: list[Channel] = []
        # External interface: channels into/out of the graph.
        self.inputs: list[tuple[str, int]] = []  # (actor, port)
        self.outputs: list[tuple[str, int]] = []

    def add_actor(self, actor: Actor) -> Actor:
        if actor.name in self.actors:
            raise CompilationError(f"duplicate actor {actor.name!r}")
        self.module.function(actor.function)  # existence check
        self.actors[actor.name] = actor
        return actor

    def connect(self, src: str, src_port: int, dst: str, dst_port: int,
                initial_tokens: int = 0) -> Channel:
        for endpoint in (src, dst):
            if endpoint not in self.actors:
                raise CompilationError(f"unknown actor {endpoint!r}")
        channel = Channel(src, src_port, dst, dst_port, initial_tokens)
        self.channels.append(channel)
        return channel

    def mark_input(self, actor: str, port: int) -> None:
        self.inputs.append((actor, port))

    def mark_output(self, actor: str, port: int) -> None:
        self.outputs.append((actor, port))

    # -- SDF analyses ---------------------------------------------------------

    def repetition_vector(self) -> dict[str, int]:
        """Solve the balance equations; raises when inconsistent."""
        if not self.actors:
            return {}
        ratios: dict[str, Fraction] = {}
        order = list(self.actors)
        ratios[order[0]] = Fraction(1)
        # Propagate ratios over an undirected traversal of the channels.
        adjacency: dict[str, list[tuple[str, Fraction]]] = {
            a: [] for a in self.actors}
        for ch in self.channels:
            prod = self.actors[ch.src].output_rates[ch.src_port]
            cons = self.actors[ch.dst].input_rates[ch.dst_port]
            # r_src * prod == r_dst * cons
            adjacency[ch.src].append((ch.dst, Fraction(prod, cons)))
            adjacency[ch.dst].append((ch.src, Fraction(cons, prod)))
        stack = [order[0]]
        while stack:
            current = stack.pop()
            for neighbour, factor in adjacency[current]:
                expected = ratios[current] * factor
                if neighbour in ratios:
                    if ratios[neighbour] != expected:
                        raise CompilationError(
                            f"graph {self.name}: inconsistent SDF rates "
                            f"at actor {neighbour}")
                else:
                    ratios[neighbour] = expected
                    stack.append(neighbour)
        for actor in self.actors:
            ratios.setdefault(actor, Fraction(1))  # disconnected actor
        denominator_lcm = 1
        for frac in ratios.values():
            denominator_lcm = denominator_lcm * frac.denominator // gcd(
                denominator_lcm, frac.denominator)
        reps = {a: int(f * denominator_lcm) for a, f in ratios.items()}
        divisor = 0
        for value in reps.values():
            divisor = gcd(divisor, value)
        return {a: v // max(1, divisor) for a, v in reps.items()}

    def buffer_sizes(self) -> dict[tuple[str, str], int]:
        """Conservative per-channel buffer bound for one iteration."""
        reps = self.repetition_vector()
        sizes = {}
        for ch in self.channels:
            produced = reps[ch.src] * \
                self.actors[ch.src].output_rates[ch.src_port]
            sizes[(ch.src, ch.dst)] = produced + ch.initial_tokens
        return sizes

    def throughput_estimate(self, parallel_units: int = 1) -> float:
        """Graph iterations per cycle on *parallel_units* executors."""
        reps = self.repetition_vector()
        total_cycles = sum(
            reps[name] * actor.cycles_per_firing
            for name, actor in self.actors.items())
        if total_cycles == 0:
            return float("inf")
        critical = self._critical_path_cycles(reps)
        effective = max(critical, total_cycles / parallel_units)
        return 1.0 / effective

    def _critical_path_cycles(self, reps: dict[str, int]) -> int:
        succ: dict[str, dict[str, None]] = {name: {} for name in self.actors}
        preds: dict[str, list[str]] = {name: [] for name in self.actors}
        for ch in self.channels:
            if ch.initial_tokens == 0:  # tokens break the dependency
                succ[ch.src][ch.dst] = None
                preds[ch.dst].append(ch.src)
        try:
            order = topological_sort(succ)
        except ValueError:
            raise CompilationError(
                f"graph {self.name}: zero-token cycle (deadlock)") from None
        best: dict[str, int] = {}
        for name in order:
            cost = reps[name] * self.actors[name].cycles_per_firing
            best[name] = cost + max((best[p] for p in preds[name]),
                                    default=0)
        return max(best.values(), default=0)

    # -- functional execution ----------------------------------------------------

    def execute(self, external_inputs: dict[tuple[str, int], list],
                iterations: int = 1) -> dict[tuple[str, int], list]:
        """Fire the graph; returns tokens on output ports.

        ``external_inputs`` maps (actor, port) to a token list; each
        graph iteration consumes tokens per the repetition vector.
        """
        reps = self.repetition_vector()
        interp = Interpreter(self.module)
        queues: dict[tuple[str, int], list] = {}
        for ch in self.channels:
            queues[(ch.dst, ch.dst_port)] = [None] * ch.initial_tokens
        for key, tokens in external_inputs.items():
            queues.setdefault(key, []).extend(tokens)
        outputs: dict[tuple[str, int], list] = {
            key: [] for key in self.outputs}
        out_channels: dict[tuple[str, int], list[tuple[str, int]]] = {}
        for ch in self.channels:
            out_channels.setdefault((ch.src, ch.src_port), []).append(
                (ch.dst, ch.dst_port))
        for _ in range(iterations):
            remaining = {name: reps[name] for name in self.actors}
            progress = True
            while any(remaining.values()) and progress:
                progress = False
                for name, actor in self.actors.items():
                    if remaining[name] == 0:
                        continue
                    if not self._can_fire(actor, queues):
                        continue
                    self._fire(actor, interp, queues, out_channels, outputs)
                    remaining[name] -= 1
                    progress = True
            if any(remaining.values()):
                starved = [n for n, r in remaining.items() if r]
                raise CompilationError(
                    f"graph {self.name}: deadlock/starvation at {starved}")
        return outputs

    def _can_fire(self, actor: Actor, queues) -> bool:
        for port, rate in enumerate(actor.input_rates):
            if len(queues.get((actor.name, port), [])) < rate:
                return False
        return True

    def _fire(self, actor: Actor, interp, queues, out_channels,
              outputs) -> None:
        args = []
        for port, rate in enumerate(actor.input_rates):
            queue = queues[(actor.name, port)]
            tokens, queues[(actor.name, port)] = queue[:rate], queue[rate:]
            args.extend(tokens)
        results = interp.run(actor.function, *args)
        produced: list = []
        for value, rate in zip(results, actor.output_rates):
            produced.append([value] * 1 if rate == 1 else list(value))
        for port, tokens in enumerate(produced):
            if (actor.name, port) in outputs:
                outputs[(actor.name, port)].extend(tokens)
            for dst in out_channels.get((actor.name, port), []):
                queues.setdefault(dst, []).extend(tokens)
