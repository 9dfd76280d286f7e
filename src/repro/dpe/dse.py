"""Design-space exploration for heterogeneous platforms (mocasin analogue).

The paper extends Mocasin, "a high-level Python-based DSE tool for
heterogeneous manycores", to CGRA-bearing platforms, and exports
per-application operating points as deployment meta-information
([29], [30]). This module reproduces that flow: a platform model, a
task-graph-to-processor mapping representation, an analytic list-schedule
evaluator for latency/energy, three exploration strategies (exhaustive,
genetic, simulated annealing), Pareto-front extraction, and the
operating-point export consumed by the MIRTO Node Manager at runtime.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError, ValidationError
from repro.continuum.workload import Application, KernelClass


@dataclass(frozen=True)
class ProcessorModel:
    """One processing element of the target platform."""

    name: str
    kind: str  # "cpu" | "fpga" | "cgra" | "gpu"
    gops: float
    busy_power_w: float
    idle_power_w: float
    accel_kernels: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if self.gops <= 0:
            raise ConfigurationError("processor gops must be positive")

    def time_for(self, megaops: float, kernel: KernelClass) -> float:
        speedup = self.accel_kernels.get(kernel, 1.0)
        return (megaops / 1e3) / (self.gops * speedup)


@dataclass(frozen=True)
class PlatformModel:
    """Processors plus a shared interconnect (latency + bandwidth)."""

    name: str
    processors: tuple[ProcessorModel, ...]
    interconnect_latency_s: float = 1e-6
    interconnect_bw_bps: float = 1e9

    def __post_init__(self):
        if not self.processors:
            raise ConfigurationError("platform needs processors")
        names = [p.name for p in self.processors]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate processor names")

    def processor(self, name: str) -> ProcessorModel:
        for proc in self.processors:
            if proc.name == name:
                return proc
        raise ConfigurationError(f"unknown processor {name!r}")

    def comm_time(self, nbytes: int) -> float:
        return self.interconnect_latency_s \
            + nbytes * 8 / self.interconnect_bw_bps


@dataclass(frozen=True)
class Mapping:
    """Assignment of every task to a processor."""

    assignment: tuple[tuple[str, str], ...]  # (task, processor) sorted

    @staticmethod
    def of(assignment: dict[str, str]) -> "Mapping":
        return Mapping(tuple(sorted(assignment.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


@dataclass(frozen=True)
class EvaluationResult:
    """KPIs of one mapping."""

    mapping: Mapping
    latency_s: float
    energy_j: float

    def dominates(self, other: "EvaluationResult") -> bool:
        return (self.latency_s <= other.latency_s
                and self.energy_j <= other.energy_j
                and (self.latency_s < other.latency_s
                     or self.energy_j < other.energy_j))


class MappingEvaluator:
    """Analytic list-schedule evaluation of a mapping.

    Tasks run in topological order; each processor serializes its tasks;
    cross-processor edges pay interconnect time. Energy is the marginal
    (multi-tenant) cost: each task pays its duration at the executing
    processor's full busy power. Idle power is *not* charged to the
    application — in a continuum, idle capacity is shared across
    tenants, and charging one application for a whole server's idle
    draw would make every heterogeneous mapping look wasteful and
    collapse the latency/energy trade-off.

    The evaluator snapshots the application and the platform at
    construction. Each task, in topological order, gets a
    ``{processor: (duration, busy_power_w)}`` table and a
    ``[(predecessor, comm_time)]`` list, so :meth:`evaluate` only does
    dict lookups and the schedule's arithmetic, in the same order as
    reading the models on every call. Build a new evaluator after
    changing either model.
    """

    def __init__(self, application: Application, platform: PlatformModel):
        self.application = application
        self.platform = platform
        tasks = application.tasks
        self._topo = [task.name for task in tasks]
        self._processors = [p.name for p in platform.processors]
        self._steps = []
        for task in tasks:
            task_name = task.name
            costs = {proc.name: (proc.time_for(task.megaops, task.kernel),
                                 proc.busy_power_w)
                     for proc in platform.processors}
            preds = [(pred, platform.comm_time(
                         application.edge_bytes(pred, task_name)))
                     for pred in application.predecessors(task_name)]
            self._steps.append((task_name, costs, preds))
        self.evaluations = 0

    def evaluate(self, mapping: Mapping) -> EvaluationResult:
        self.evaluations += 1
        assignment = mapping.as_dict()
        missing = [t for t in self._topo if t not in assignment]
        if missing:
            raise ValidationError(f"mapping misses tasks: {missing}")
        proc_free = dict.fromkeys(self._processors, 0.0)
        finish: dict[str, float] = {}
        busy_energy = 0.0
        for task_name, costs, preds in self._steps:
            proc = assignment[task_name]
            if proc not in costs:
                raise ConfigurationError(f"unknown processor {proc!r}")
            duration, busy_power_w = costs[proc]
            ready = 0.0
            for pred, comm_time in preds:
                arrival = finish[pred]
                if assignment[pred] != proc:
                    arrival += comm_time
                ready = max(ready, arrival)
            start = max(ready, proc_free[proc])
            finish[task_name] = start + duration
            proc_free[proc] = finish[task_name]
            busy_energy += duration * busy_power_w
        makespan = max(finish.values(), default=0.0)
        return EvaluationResult(mapping=mapping, latency_s=makespan,
                                energy_j=busy_energy)


def pareto_front(results: list[EvaluationResult]) -> list[EvaluationResult]:
    """Non-dominated subset, sorted by latency.

    One stable sort by ``(latency_s, energy_j)`` and one sweep: a point
    is kept when its energy is strictly below the last kept point's, so
    of several identical KPI points the first in *results* survives.
    """
    front: list[EvaluationResult] = []
    for result in sorted(results,
                         key=lambda r: (r.latency_s, r.energy_j)):
        if not front or result.energy_j < front[-1].energy_j:
            front.append(result)
    return front


class ExhaustiveExplorer:
    """Enumerate every mapping (small problems only)."""

    def __init__(self, evaluator: MappingEvaluator, limit: int = 200_000):
        self.evaluator = evaluator
        self.limit = limit

    def explore(self) -> list[EvaluationResult]:
        tasks = [t.name for t in self.evaluator.application.tasks]
        procs = [p.name for p in self.evaluator.platform.processors]
        space = len(procs) ** len(tasks)
        if space > self.limit:
            raise ConfigurationError(
                f"exhaustive space {space} exceeds limit {self.limit}")
        results = []
        for combo in itertools.product(procs, repeat=len(tasks)):
            mapping = Mapping.of(dict(zip(tasks, combo)))
            results.append(self.evaluator.evaluate(mapping))
        return results


class GeneticExplorer:
    """GA over mappings: tournament selection, crossover, mutation."""

    def __init__(self, evaluator: MappingEvaluator, rng: random.Random,
                 population: int = 30, generations: int = 25,
                 mutation_rate: float = 0.15,
                 objective: str = "latency"):
        if objective not in ("latency", "energy", "edp"):
            raise ConfigurationError(f"unknown objective {objective!r}")
        self.evaluator = evaluator
        self.rng = rng
        self.population_size = population
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.objective = objective

    def _fitness(self, result: EvaluationResult) -> float:
        if self.objective == "latency":
            return result.latency_s
        if self.objective == "energy":
            return result.energy_j
        return result.latency_s * result.energy_j  # EDP

    def explore(self) -> list[EvaluationResult]:
        tasks = [t.name for t in self.evaluator.application.tasks]
        procs = [p.name for p in self.evaluator.platform.processors]
        population = [
            {t: self.rng.choice(procs) for t in tasks}
            for _ in range(self.population_size)
        ]
        evaluated: list[EvaluationResult] = []

        def score(genome: dict[str, str]) -> EvaluationResult:
            result = self.evaluator.evaluate(Mapping.of(genome))
            evaluated.append(result)
            return result

        scored = [(score(g), g) for g in population]
        for _ in range(self.generations):
            scored.sort(key=lambda pair: self._fitness(pair[0]))
            survivors = scored[: max(2, self.population_size // 2)]
            children = []
            while len(children) + len(survivors) < self.population_size:
                pa = self.rng.choice(survivors)[1]
                pb = self.rng.choice(survivors)[1]
                child = {t: (pa if self.rng.random() < 0.5 else pb)[t]
                         for t in tasks}
                for t in tasks:
                    if self.rng.random() < self.mutation_rate:
                        child[t] = self.rng.choice(procs)
                children.append(child)
            scored = survivors + [(score(c), c) for c in children]
        return evaluated


class AnnealingExplorer:
    """Simulated annealing over single-task reassignment moves."""

    def __init__(self, evaluator: MappingEvaluator, rng: random.Random,
                 iterations: int = 500, initial_temp: float = 1.0,
                 cooling: float = 0.995, objective: str = "latency"):
        self.evaluator = evaluator
        self.rng = rng
        self.iterations = iterations
        self.initial_temp = initial_temp
        self.cooling = cooling
        self.objective = objective

    def _fitness(self, result: EvaluationResult) -> float:
        if self.objective == "energy":
            return result.energy_j
        if self.objective == "edp":
            return result.latency_s * result.energy_j
        return result.latency_s

    def explore(self) -> list[EvaluationResult]:
        tasks = [t.name for t in self.evaluator.application.tasks]
        procs = [p.name for p in self.evaluator.platform.processors]
        current = {t: self.rng.choice(procs) for t in tasks}
        current_result = self.evaluator.evaluate(Mapping.of(current))
        evaluated = [current_result]
        temp = self.initial_temp
        scale = max(self._fitness(current_result), 1e-12)
        for _ in range(self.iterations):
            candidate = dict(current)
            candidate[self.rng.choice(tasks)] = self.rng.choice(procs)
            result = self.evaluator.evaluate(Mapping.of(candidate))
            evaluated.append(result)
            delta = (self._fitness(result)
                     - self._fitness(current_result)) / scale
            if delta <= 0 or self.rng.random() < math.exp(-delta / temp):
                current, current_result = candidate, result
            temp *= self.cooling
        return evaluated


def export_operating_points(results: list[EvaluationResult],
                            max_points: int = 5) -> list[dict]:
    """Pareto points as runtime meta-information ([29], [30]).

    Returns JSON-safe dicts the DPE embeds in the CSAR and the MIRTO
    Node Manager consumes when trading QoS for energy at runtime. When
    the front is longer than *max_points*, the points are spread evenly
    along it from the fastest; ``max_points=1`` keeps the fastest.
    """
    if max_points < 1:
        raise ConfigurationError(
            f"max_points must be at least 1, got {max_points}")
    front = pareto_front(results)
    if len(front) > max_points:
        step = (len(front) - 1) / max(max_points - 1, 1)
        front = [front[round(i * step)] for i in range(max_points)]
    points = []
    for index, result in enumerate(front):
        points.append({
            "name": f"op-{index}",
            "latency_s": result.latency_s,
            "energy_j": result.energy_j,
            "mapping": result.mapping.as_dict(),
        })
    return points
