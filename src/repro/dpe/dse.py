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

    ``evaluations`` counts the mappings :meth:`evaluate` has actually
    computed. The genetic and annealing explorers evaluate each
    distinct mapping once per explore, so after one of them it is the
    number of distinct mappings, not the length of the returned list.
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


#: What a stochastic explorer can minimise.
_OBJECTIVES = ("latency", "energy", "edp")


def _check_objective(objective: str) -> str:
    if objective not in _OBJECTIVES:
        raise ConfigurationError(f"unknown objective {objective!r}; "
                                 f"expected one of {_OBJECTIVES}")
    return objective


def _fitness(result: EvaluationResult, objective: str) -> float:
    """The value *objective* minimises: latency, energy or their
    product (EDP)."""
    if objective == "latency":
        return result.latency_s
    if objective == "energy":
        return result.energy_j
    return result.latency_s * result.energy_j


def _memo_scorer(evaluator: MappingEvaluator, tasks: list[str],
                 objective: str):
    """Score genomes (processor names in *tasks*' order) once each.

    Returns ``score(genome) -> (fitness, result)``. The memo belongs to
    one explore: a GA or an annealing walk revisits many mappings, and a
    revisit returns the first result object instead of evaluating again.
    """
    memo: dict[tuple[str, ...], tuple[float, EvaluationResult]] = {}

    def score(genome: tuple[str, ...]) -> tuple[float, EvaluationResult]:
        scored = memo.get(genome)
        if scored is None:
            result = evaluator.evaluate(Mapping.of(dict(zip(tasks, genome))))
            scored = memo[genome] = (_fitness(result, objective), result)
        return scored

    return score


class GeneticExplorer:
    """GA over mappings: truncation selection, crossover, mutation."""

    def __init__(self, evaluator: MappingEvaluator, rng: random.Random,
                 population: int = 30, generations: int = 25,
                 mutation_rate: float = 0.15,
                 objective: str = "latency"):
        if population < 1:
            raise ConfigurationError(
                f"population must be at least 1, got {population}")
        self.evaluator = evaluator
        self.rng = rng
        self.population_size = population
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.objective = _check_objective(objective)

    def explore(self) -> list[EvaluationResult]:
        """Every score in order, duplicates included; a mapping met
        again is the same result object."""
        rng = self.rng
        tasks = [t.name for t in self.evaluator.application.tasks]
        procs = [p.name for p in self.evaluator.platform.processors]
        score = _memo_scorer(self.evaluator, tasks, self.objective)
        evaluated: list[EvaluationResult] = []

        def entry(genome: tuple[str, ...]):
            value, result = score(genome)
            evaluated.append(result)
            return value, genome

        scored = [entry(tuple(rng.choice(procs) for _ in tasks))
                  for _ in range(self.population_size)]
        for _ in range(self.generations):
            scored.sort(key=lambda pair: pair[0])
            survivors = scored[: max(2, self.population_size // 2)]
            children = []
            while len(children) + len(survivors) < self.population_size:
                pa = rng.choice(survivors)[1]
                pb = rng.choice(survivors)[1]
                child = [a if rng.random() < 0.5 else b
                         for a, b in zip(pa, pb)]
                for i in range(len(child)):
                    if rng.random() < self.mutation_rate:
                        child[i] = rng.choice(procs)
                children.append(tuple(child))
            scored = survivors + [entry(c) for c in children]
        return evaluated


class AnnealingExplorer:
    """Simulated annealing over single-task reassignment moves."""

    def __init__(self, evaluator: MappingEvaluator, rng: random.Random,
                 iterations: int = 500, initial_temp: float = 1.0,
                 cooling: float = 0.995, objective: str = "latency"):
        if not initial_temp > 0:
            raise ConfigurationError(
                f"initial_temp must be positive, got {initial_temp}")
        if not 0 < cooling <= 1:
            raise ConfigurationError(
                f"cooling must be in (0, 1], got {cooling}")
        self.evaluator = evaluator
        self.rng = rng
        self.iterations = iterations
        self.initial_temp = initial_temp
        self.cooling = cooling
        self.objective = _check_objective(objective)

    def explore(self) -> list[EvaluationResult]:
        """Every score in order, duplicates included; a mapping met
        again is the same result object."""
        rng = self.rng
        tasks = [t.name for t in self.evaluator.application.tasks]
        procs = [p.name for p in self.evaluator.platform.processors]
        position = {task: i for i, task in enumerate(tasks)}
        score = _memo_scorer(self.evaluator, tasks, self.objective)
        current = tuple(rng.choice(procs) for _ in tasks)
        current_value, current_result = score(current)
        evaluated = [current_result]
        temp = self.initial_temp
        scale = max(current_value, 1e-12)
        for _ in range(self.iterations):
            candidate = list(current)
            # The processor is drawn before the task, as the statement
            # evaluates its right-hand side first.
            candidate[position[rng.choice(tasks)]] = rng.choice(procs)
            candidate = tuple(candidate)
            value, result = score(candidate)
            evaluated.append(result)
            delta = (value - current_value) / scale
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                current, current_value = candidate, value
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
