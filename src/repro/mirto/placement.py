"""Workload placement: the decision problem the MIRTO WL Manager solves.

Given an application DAG, the infrastructure, and the constraints the
TOSCA policies impose (privacy layer ceilings, security floors, memory,
latency SLOs), choose a device for every task. Implements the baselines
the paper's cognitive claims are measured against (random, round-robin,
greedy) and the cognitive strategies (PSO, ACO, firefly over the
constrained assignment space). :func:`execute_placement` then actually
runs the placed application in the discrete-event simulator and reports
measured KPIs — so strategy comparisons in the benchmarks are
simulation-backed, not analytic-only.

Solvers implement an *anytime* contract: callers build a
:class:`PlacementRequest` (problem + deterministic work budget + warm
start) and get a :class:`PlacementResult` (best placement, cost, lower
bound, optimality flag, per-backend :class:`SolveStats`) from
:meth:`PlacementStrategy.solve`. Budgets live on the DES clock — a
deadline converts to a node allowance via the modeled per-node cost —
so identical seeds and budgets produce byte-identical results on any
machine. :func:`solve_traced` is the one producer of the
``mirto.placement.solve`` span and bus record. The exact
branch-and-bound backend lives in :mod:`repro.mirto.exact` and the
deadline-raced portfolio in :mod:`repro.mirto.portfolio`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.errors import ConfigurationError, OrchestrationError
from repro.core.levels import SECURITY_RANK
from repro.continuum.devices import Device, Layer
from repro.continuum.infrastructure import Infrastructure
from repro.continuum.workload import Application, PrivacyClass, Task
from repro.mirto.swarm import (
    AntColonyOptimizer,
    FireflyOptimizer,
    ParticleSwarmOptimizer,
)

_LAYER_ORDER = [Layer.EDGE, Layer.FOG, Layer.CLOUD]


@dataclass
class PlacementConstraints:
    """Constraints distilled from TOSCA policies for one application."""

    min_security_level: str = "low"
    source_device: str | None = None  # where input data originates
    trust_threshold: float = 0.0
    trusted: dict[str, float] = field(default_factory=dict)

    def max_layer_for(self, task: Task) -> Layer:
        privacy = task.requirements.privacy
        if privacy is PrivacyClass.RAW_PERSONAL:
            return Layer.EDGE
        if privacy is PrivacyClass.AGGREGATED:
            return Layer.FOG
        return Layer.CLOUD


def is_eligible(device: Device, task: Task,
                constraints: PlacementConstraints) -> bool:
    """Whether *device* satisfies every hard constraint for *task*: the
    one feasibility test behind candidate lists and warm starts."""
    if getattr(device, "failed", False):
        return False
    spec = device.spec
    ceiling = _LAYER_ORDER.index(constraints.max_layer_for(task))
    need_security = max(
        SECURITY_RANK[constraints.min_security_level],
        SECURITY_RANK.get(task.requirements.min_security_level, 0))
    if _LAYER_ORDER.index(spec.layer) > ceiling \
            or SECURITY_RANK[spec.max_security_level] < need_security \
            or spec.memory_bytes < task.memory_bytes:
        return False
    trust = constraints.trusted.get(device.name, 1.0)
    if trust < constraints.trust_threshold:
        return False
    latency_budget = task.requirements.latency_budget_s
    if latency_budget != math.inf:
        # Latency-SLO feasibility: a device that cannot run the task
        # within its budget even at its fastest operating point can
        # never satisfy the SLO, whatever the schedule around it does.
        # Judged at peak (not the active point) so MAPE keeping a
        # device in low-power mode doesn't shrink the feasible set the
        # optimizers search.
        fastest = max(device.operating_points.values(),
                      key=lambda op: op.perf_scale)
        if device.estimate_duration(task, fastest.name) > latency_budget:
            return False
    return True


def eligible_devices(task: Task, infrastructure: Infrastructure,
                     constraints: PlacementConstraints) -> list[Device]:
    """Devices satisfying every hard constraint for *task*."""
    return [device for device in infrastructure.devices.values()
            if is_eligible(device, task, constraints)]


@dataclass
class Placement:
    """A complete task-to-device assignment."""

    assignment: dict[str, str]
    strategy: str

    def device_of(self, task_name: str) -> str:
        return self.assignment[task_name]


class ListSchedule:
    """The one analytic model of a placed DAG: an ASAP list schedule.

    Tasks run in ``application.tasks`` order, each once its inputs have
    arrived (cross-device edges and, given *source_device*, root inputs
    pay the network's transfer estimate) and its device is free. A
    device's free time is seeded lazily with its backlog, so only the
    devices the schedule touches are consulted. :meth:`push` schedules
    the next task and :meth:`pop` takes the last one back;
    ``assignment``, ``finish``, ``makespan`` and ``energy`` describe
    the scheduled prefix.
    """

    def __init__(self, application: Application,
                 infrastructure: Infrastructure,
                 source_device: str | None = None):
        self.tasks = application.tasks
        self.assignment: dict[str, str] = {}
        self.finish: dict[str, float] = {}
        self.makespan = 0.0
        self.energy = 0.0
        self._application = application
        self._transfer = infrastructure.network.estimate_transfer_time
        self._source = source_device
        self._free: dict[str, float] = {}
        #: Per scheduled task: (previous free time or None, makespan,
        #: energy) before it was pushed.
        self._undo: list[tuple[float | None, float, float]] = []

    def push(self, device: Device) -> float:  # perf: hot
        """Schedule the next task on *device*; return its finish time."""
        undo = self._undo
        task = self.tasks[len(undo)]
        name = task.name
        device_name = device.name
        application = self._application
        transfer = self._transfer
        finish = self.finish
        assignment = self.assignment
        ready = 0.0
        preds = application.predecessors(name)
        if not preds and self._source is not None \
                and self._source != device_name:
            ready = transfer(self._source, device_name, task.input_bytes)
        for pred in preds:
            arrival = finish[pred]
            pred_device = assignment[pred]
            if pred_device != device_name:
                arrival += transfer(pred_device, device_name,
                                    application.edge_bytes(pred, name))
            if arrival > ready:
                ready = arrival
        free = self._free.get(device_name)
        undo.append((free, self.makespan, self.energy))
        if free is None:
            free = device.backlog_seconds()
        start = ready if ready > free else free
        end = start + device.estimate_duration(task)
        finish[name] = end
        assignment[name] = device_name
        self._free[device_name] = end
        if end > self.makespan:
            self.makespan = end
        self.energy += device.estimate_energy(task)
        return end

    def pop(self) -> None:
        """Take the last scheduled task back."""
        free, self.makespan, self.energy = self._undo.pop()
        name = self.tasks[len(self._undo)].name
        del self.finish[name]
        device_name = self.assignment.pop(name)
        if free is None:
            del self._free[device_name]
        else:
            self._free[device_name] = free

    def end_on(self, device: Device) -> float:
        """Finish time the next task would have on *device*."""
        end = self.push(device)
        self.pop()
        return end


def estimate_placement_kpis(application: Application,  # perf: hot
                            placement: Placement,
                            infrastructure: Infrastructure,
                            source_device: str | None = None
                            ) -> tuple[float, float]:
    """Analytic (latency, energy) estimate of a placement: its
    :class:`ListSchedule`'s makespan and energy — the model the
    cognitive strategies optimize against before committing."""
    schedule = ListSchedule(application, infrastructure, source_device)
    devices = infrastructure.devices
    assignment = placement.assignment
    for task in schedule.tasks:
        schedule.push(devices[assignment[task.name]])
    return schedule.makespan, schedule.energy


#: The objective's weight on energy; the complement weights latency.
#: Every solver backend uses this one value, so exact bounds and
#: metaheuristic scores stay comparable to the last bit.
ENERGY_WEIGHT = 0.3

#: Modeled cost of one search node / objective evaluation: the DES-clock
#: rate at which a :class:`SolveBudget` deadline becomes a node count.
NODE_COST_S = 25e-6


def _objective(latency: float, energy: float) -> float:
    """``latency * (1 - w) + w * energy / 100`` with ``w =``
    :data:`ENERGY_WEIGHT`: the one formula behind every solver's cost,
    the exact search's child order and its lower bound, so all of them
    round alike."""
    return latency * (1 - ENERGY_WEIGHT) + ENERGY_WEIGHT * energy / 100.0


def placement_cost(application: Application,
                   infrastructure: Infrastructure,
                   assignment: dict[str, str], *,
                   source_device: str | None = None) -> float:
    """Scalar objective every solver minimizes.

    :func:`_objective` over the analytic KPI model — the single
    definition all backends (baselines, swarms, the exact
    branch-and-bound, the portfolio) share, so their reported costs are
    directly comparable bit for bit.
    """
    latency, energy = estimate_placement_kpis(
        application, Placement(assignment, "candidate"),
        infrastructure, source_device)
    return _objective(latency, energy)


@dataclass(frozen=True)
class SolveBudget:
    """Deterministic work budget for one anytime solve.

    Budgets are expressed on the DES clock, never the wall clock: a
    ``deadline_s`` (modeled seconds) converts to a node allowance at
    :data:`NODE_COST_S` per node. The default budget is unlimited —
    solvers run to their natural termination (configured iterations, or
    an exhausted search tree).
    """

    max_nodes: int | None = None
    deadline_s: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ConfigurationError("max_nodes must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError("deadline_s must be > 0")

    @property
    def unlimited(self) -> bool:
        return self.max_nodes is None and self.deadline_s is None

    def node_limit(self) -> int | None:
        """The budget as a node count (``None`` when unlimited)."""
        limits = []
        if self.max_nodes is not None:
            limits.append(self.max_nodes)
        if self.deadline_s is not None:
            limits.append(max(1, int(self.deadline_s / NODE_COST_S)))
        return min(limits) if limits else None


@dataclass
class PlacementRequest:
    """One placement problem handed to an anytime solver."""

    application: Application
    infrastructure: Infrastructure
    constraints: PlacementConstraints = field(
        default_factory=PlacementConstraints)
    budget: SolveBudget = field(default_factory=SolveBudget)
    #: Optional incumbent to start from (e.g. the currently deployed
    #: placement, or MAPE's last advice). Ignored when it no longer
    #: covers the application or names a device that is unknown or
    #: fails a hard constraint (:func:`is_eligible`).
    warm_start: Placement | None = None
    #: Called as ``on_incumbent(placement, cost, backend)`` every time
    #: a solver improves its best-so-far; lets callers stop early.
    on_incumbent: Callable[[Placement, float, str], None] | None = None


@dataclass
class SolveStats:
    """Per-backend accounting for one solve."""

    backend: str
    nodes: int = 0         # budget units charged (search nodes)
    evaluations: int = 0   # full objective evaluations (memo misses)
    steps: int = 0         # cooperative step() slices executed
    incumbents: int = 0    # times the backend improved its best
    pruned: int = 0        # subtrees cut by the bound (exact only)
    best_cost: float = math.inf
    lower_bound: float = 0.0
    proven_optimal: bool = False

    def to_payload(self) -> dict:
        return {
            "backend": self.backend,
            "nodes": self.nodes,
            "evaluations": self.evaluations,
            "steps": self.steps,
            "incumbents": self.incumbents,
            "pruned": self.pruned,
            "best_cost": self.best_cost,
            "lower_bound": self.lower_bound,
            "proven_optimal": self.proven_optimal,
        }


@dataclass
class PlacementResult:
    """Outcome of one anytime solve."""

    placement: Placement
    cost: float
    optimal: bool
    lower_bound: float
    #: Which backend produced the returned placement: the strategy's
    #: name, or the winning portfolio lane ("exact", "pso", ...). A
    #: winning warm start counts for the backend that adopted it.
    provenance: str
    stats: tuple[SolveStats, ...] = ()

    def to_payload(self) -> dict:
        """JSON-safe snapshot (stable key order for byte-identity)."""
        return {
            "assignment": dict(sorted(self.placement.assignment.items())),
            "strategy": self.placement.strategy,
            "cost": self.cost,
            "optimal": self.optimal,
            "lower_bound": self.lower_bound,
            "provenance": self.provenance,
            "stats": [s.to_payload() for s in self.stats],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True,
                          separators=(",", ":"))


class SolveSession:
    """One in-progress anytime solve (cooperative stepping).

    ``step()`` advances one bounded slice of work and returns ``True``
    while more work remains within budget; ``result()`` snapshots the
    best incumbent found so far and is valid at any point (it
    self-starts if no step ran yet). The portfolio round-robins
    ``step()`` across backends — no threads, so interleaving is
    deterministic. The session owns the incumbent: backends hand every
    candidate to :meth:`_offer`. *warm* is the request's warm start as
    :meth:`PlacementStrategy.session` priced it, once per solve (None
    when there is none or it is infeasible); each session adopts it
    itself.
    """

    def __init__(self, strategy: "PlacementStrategy",
                 request: PlacementRequest,
                 warm: tuple[Placement, float] | None):
        self._strategy = strategy
        self._request = request
        self._warm = warm
        self._stats = SolveStats(backend=strategy.name)
        self._best: tuple[Placement, float] | None = None

    def step(self) -> bool:
        raise NotImplementedError

    def _offer(self, placement: Placement, cost: float) -> None:
        """Keep *placement* if strictly better; count and report it."""
        if self._best is None or cost < self._best[1]:
            self._best = (placement, cost)
            self._stats.incumbents += 1
            self._stats.best_cost = cost
            callback = self._request.on_incumbent
            if callback is not None:
                callback(placement, cost, self._strategy.name)

    def result(self) -> PlacementResult:
        """The incumbent, with no lower bound and no optimality claim."""
        if self._best is None:
            self.step()
        placement, cost = self._best
        return PlacementResult(
            placement=placement, cost=cost, optimal=False,
            lower_bound=0.0, provenance=self._strategy.name,
            stats=(self._stats,))


def _warm_incumbent(request: PlacementRequest
                    ) -> tuple[Placement, float] | None:
    """Validate and cost the request's warm start (None if it leaves a
    task unplaced or names an unknown or ineligible device)."""
    warm = request.warm_start
    if warm is None:
        return None
    devices = request.infrastructure.devices
    constraints = request.constraints
    assignment = {}
    for task in request.application.tasks:
        device = warm.assignment.get(task.name)
        if device is None or device not in devices \
                or not is_eligible(devices[device], task, constraints):
            return None
        assignment[task.name] = device
    cost = placement_cost(
        request.application, request.infrastructure, assignment,
        source_device=request.constraints.source_device)
    return Placement(assignment, warm.strategy), cost


class _OneShotSession(SolveSession):
    """Adapter running a one-shot heuristic under the anytime contract.

    The heuristic's single ``_place()`` pass is one indivisible step;
    budgets below one evaluation still get a complete answer (an
    anytime solver never returns without an incumbent).
    """

    def step(self) -> bool:
        if self._best is not None:
            return False
        request = self._request
        placement = self._strategy._place(request.application,
                                          request.infrastructure,
                                          request.constraints)
        cost = placement_cost(
            request.application, request.infrastructure,
            placement.assignment,
            source_device=request.constraints.source_device)
        stats = self._stats
        stats.nodes += 1
        stats.evaluations += 1
        stats.steps += 1
        warm = self._warm
        if warm is not None and warm[1] < cost:
            placement, cost = warm
        self._offer(placement, cost)
        return False


def _decode_relaxed(position: list[float],
                    options: list[list[Device]]) -> list[int]:
    """Argmax per per-task score block of a relaxed position vector.

    ``index(max(...))`` picks the first maximum, exactly like the
    argmax over range() it replaces — just without a lambda call per
    element.
    """
    choices = []
    offset = 0
    for opts in options:
        end = offset + len(opts)
        scores = position[offset:end]
        choices.append(scores.index(max(scores)))
        offset = end
    return choices


class _SwarmSession(SolveSession):
    """Anytime adapter over the population optimizers' ``steps()``.

    Budget granularity is one optimizer iteration: the node meter is
    checked between iterations, never inside one, so a solve under a
    given budget is a strict prefix of the unbudgeted solve — same RNG
    draws, same incumbents, just cut short. An unlimited budget runs
    exactly the strategy's configured ``iterations``.
    """

    def __init__(self, strategy: "_CognitiveBase",
                 request: PlacementRequest,
                 warm: tuple[Placement, float] | None):
        super().__init__(strategy, request, warm)
        self._limit = request.budget.node_limit()
        self._iterations_left = strategy.iterations
        self._gen = None
        self._decode = None

    def _count_eval(self) -> None:
        self._stats.evaluations += 1
        self._stats.nodes += 1

    def _record(self, encoded, value: float) -> None:
        if encoded is None:
            return
        if self._best is not None and value >= self._best[1]:
            return
        self._offer(Placement(self._decode(encoded),
                              self._strategy.name), value)

    @property
    def _exhausted(self) -> bool:
        return self._limit is not None \
            and self._stats.nodes >= self._limit

    def _start(self) -> None:
        strategy, request = self._strategy, self._request
        optimizer, objective, decode = strategy._build(
            request, self._count_eval)
        self._decode = decode
        if self._warm is not None:
            self._offer(*self._warm)
        self._gen = optimizer.steps(objective)
        self._record(*next(self._gen))  # init population
        self._stats.steps += 1

    def step(self) -> bool:
        if self._gen is None:
            self._start()
        elif self._exhausted or self._iterations_left <= 0:
            return False
        else:
            self._record(*next(self._gen))
            self._iterations_left -= 1
            self._stats.steps += 1
        return not self._exhausted and self._iterations_left > 0

    def result(self) -> PlacementResult:
        if self._gen is None:
            self._start()
        if self._best is None:
            # An anytime solver must hold an incumbent, but ACO's init
            # yield carries no evaluated point: force one iteration
            # even past the budget (the swarm analogue of the exact
            # lane's first-dive guarantee).
            self._record(*next(self._gen))
            self._iterations_left -= 1
            self._stats.steps += 1
        return super().result()


class PlacementStrategy:
    """Base class: anytime solvers implementing :meth:`solve`.

    Stepping backends (swarms, exact, portfolio) name their session
    class in ``_session_type``; one-shot heuristics implement
    :meth:`_place`, adapted by :class:`_OneShotSession`.
    """

    name = "abstract"
    _session_type: type[SolveSession] = _OneShotSession

    def session(self, request: PlacementRequest) -> SolveSession:
        """Start an anytime solve, pricing its warm start once; callers
        drive ``step()``."""
        return self._session_type(self, request, _warm_incumbent(request))

    def solve(self, request: PlacementRequest) -> PlacementResult:
        """Run the solve to budget exhaustion or completion."""
        session = self.session(request)
        while session.step():
            pass
        return session.result()

    def _place(self, application: Application,
               infrastructure: Infrastructure,
               constraints: PlacementConstraints) -> Placement:
        raise NotImplementedError

    def _eligible_or_raise(self, task: Task,
                           infrastructure: Infrastructure,
                           constraints: PlacementConstraints
                           ) -> list[Device]:
        devices = eligible_devices(task, infrastructure, constraints)
        if not devices:
            raise OrchestrationError(
                f"no eligible device for task {task.name!r} "
                f"(privacy={task.requirements.privacy.value}, "
                f"security>={constraints.min_security_level})")
        return sorted(devices, key=lambda d: d.name)


def solve_traced(strategy: PlacementStrategy, request: PlacementRequest,
                 service: str) -> PlacementResult:
    """Solve *request* as *service*'s recorded placement decision.

    The one producer of the ``mirto.placement.solve`` span (with cost,
    optimality, provenance and per-backend evaluations) and of the bus
    record of the same name, so deploys and MAPE replans report their
    decisions identically. An :class:`OrchestrationError` (a task with
    no eligible device) propagates: the span ends with
    ``status="error"`` and nothing is published.
    """
    ctx = request.infrastructure.ctx
    with ctx.tracer.start_span("mirto.placement.solve", layer="mirto",
                               strategy=strategy.name,
                               tasks=len(request.application)) as span:
        result = strategy.solve(request)
        attrs = getattr(span, "attrs", None)
        if attrs is not None:
            attrs["cost"] = result.cost
            attrs["optimal"] = result.optimal
            attrs["provenance"] = result.provenance
            attrs["backends"] = {s.backend: s.evaluations
                                 for s in result.stats}
    ctx.publish("mirto.placement.solve", {
        "service": service,
        "strategy": result.placement.strategy,
        "cost": result.cost,
        "optimal": result.optimal,
        "lower_bound": result.lower_bound,
        "provenance": result.provenance,
        "evaluations": sum(s.evaluations for s in result.stats),
    })
    return result


class RandomPlacement(PlacementStrategy):
    """Uniform choice among eligible devices (the weakest baseline)."""

    name = "random"

    def __init__(self, rng: random.Random):
        self.rng = rng

    def _place(self, application, infrastructure, constraints) -> Placement:
        assignment = {}
        for task in application.tasks:
            devices = self._eligible_or_raise(task, infrastructure,
                                              constraints)
            assignment[task.name] = self.rng.choice(devices).name
        return Placement(assignment, self.name)


class RoundRobinPlacement(PlacementStrategy):
    """Cycle through eligible devices (the Kubernetes-ish baseline)."""

    name = "round-robin"

    def __init__(self):
        self._cursor = 0

    def _place(self, application, infrastructure, constraints) -> Placement:
        assignment = {}
        for task in application.tasks:
            devices = self._eligible_or_raise(task, infrastructure,
                                              constraints)
            assignment[task.name] = devices[self._cursor
                                            % len(devices)].name
            self._cursor += 1
        return Placement(assignment, self.name)


class GreedyPlacement(PlacementStrategy):
    """Per-task best estimated finish time (myopic but informed)."""

    name = "greedy"

    def _place(self, application, infrastructure, constraints) -> Placement:
        schedule = ListSchedule(application, infrastructure,
                                constraints.source_device)
        for task in schedule.tasks:
            devices = self._eligible_or_raise(task, infrastructure,
                                              constraints)
            # min() keeps the first of equal finish times.
            schedule.push(min(devices, key=schedule.end_on))
        return Placement(schedule.assignment, self.name)


class _CognitiveBase(PlacementStrategy):
    """Shared machinery for optimizer-backed strategies."""

    _session_type = _SwarmSession

    def __init__(self, rng: random.Random, iterations: int = 30):
        self.rng = rng
        self.iterations = iterations

    def _build(self, request: PlacementRequest,
               on_evaluate: Callable[[], None]):
        """(optimizer, objective, decode) for one anytime solve."""
        raise NotImplementedError

    def _options_for(self, request: PlacementRequest
                     ) -> tuple[list[Task], list[list[Device]]]:
        tasks = request.application.tasks
        options = [self._eligible_or_raise(task, request.infrastructure,
                                           request.constraints)
                   for task in tasks]
        return tasks, options

    def _compiled_objective(self, application, infrastructure, tasks,
                            options, source_device: str | None = None,
                            on_evaluate: Callable[[], None]
                            | None = None):
        """Build a memoized choices->score callable for one solve run.

        The memo is keyed on the discrete choice tuple: the relaxed
        continuous encodings (PSO/firefly) decode many nearby positions
        to the same assignment, so full re-evaluations collapse. Each
        miss is scored by :func:`placement_cost`, exactly as any other
        backend would score the assignment. *on_evaluate* fires once
        per memo miss — the budget meter the anytime sessions charge
        (memo hits are free by design).
        """
        names = [task.name for task in tasks]
        memo: dict[tuple[int, ...], float] = {}

        def objective(choices) -> float:  # perf: hot
            key = tuple(choices)
            score = memo.get(key)
            if score is None:
                if on_evaluate is not None:
                    on_evaluate()
                assignment = {}
                for i, choice in enumerate(key):
                    assignment[names[i]] = options[i][choice].name
                score = placement_cost(
                    application, infrastructure, assignment,
                    source_device=source_device)
                memo[key] = score
            return score

        return objective


class _RelaxedPlacement(_CognitiveBase):
    """Continuous swarm over a relaxed assignment: one score per
    (task, device), decoded by a per-task argmax."""

    def _optimizer(self, dims: int):
        raise NotImplementedError

    def _build(self, request, on_evaluate):
        tasks, options = self._options_for(request)
        dims = sum(len(opts) for opts in options)
        compiled = self._compiled_objective(
            request.application, request.infrastructure, tasks, options,
            request.constraints.source_device, on_evaluate)

        def objective(position: list[float]) -> float:
            return compiled(_decode_relaxed(position, options))

        def decode(position: list[float]) -> dict[str, str]:
            choices = _decode_relaxed(position, options)
            return {task.name: options[i][choice].name
                    for i, (task, choice) in enumerate(zip(tasks,
                                                           choices))}

        return self._optimizer(dims), objective, decode


class PsoPlacement(_RelaxedPlacement):
    """PSO over a relaxed assignment: one score per (task, device)."""

    name = "pso"

    def _optimizer(self, dims: int):
        return ParticleSwarmOptimizer(dims, self.rng, particles=16)


class FireflyPlacement(_RelaxedPlacement):
    """Firefly algorithm over the same relaxed encoding as PSO."""

    name = "firefly"

    def _optimizer(self, dims: int):
        return FireflyOptimizer(dims, self.rng, fireflies=12)


class AcoPlacement(_CognitiveBase):
    """ACO directly over the discrete task-to-device choices."""

    name = "aco"

    def _build(self, request, on_evaluate):
        tasks, options = self._options_for(request)
        max_options = max(len(opts) for opts in options)
        compiled = self._compiled_objective(
            request.application, request.infrastructure, tasks, options,
            request.constraints.source_device, on_evaluate)

        def objective(choices: list[int]) -> float:
            return compiled([min(c, len(options[i]) - 1)
                             for i, c in enumerate(choices)])

        def decode(choices: list[int]) -> dict[str, str]:
            return {
                tasks[i].name: options[i][min(c, len(options[i]) - 1)]
                .name
                for i, c in enumerate(choices)
            }

        optimizer = AntColonyOptimizer(len(tasks), max_options,
                                       self.rng, ants=12)
        return optimizer, objective, decode


@dataclass
class ExecutionReport:
    """Measured KPIs from actually running a placed application."""

    application: str
    strategy: str
    makespan_s: float
    energy_j: float
    offloads: int
    records: list = field(default_factory=list)


def execute_placement(application: Application, placement: Placement,
                      infrastructure: Infrastructure,
                      source_device: str | None = None
                      ) -> ExecutionReport:
    """Run the placed application to completion in the DES.

    Tasks wait for predecessors, pay real (contended) network transfers
    for cross-device edges, and contend for device cores. Returns the
    measured makespan and energy.
    """
    sim = infrastructure.sim
    start_time = sim.now
    done_events: dict[str, object] = {
        task.name: sim.event() for task in application.tasks}
    energy_total = {"j": 0.0}
    offloads = {"n": 0}
    records: list = []

    def run_task(task: Task):
        device = infrastructure.device(placement.device_of(task.name))
        preds = application.predecessors(task.name)
        if not preds and source_device is not None \
                and source_device != device.name:
            yield sim.process(infrastructure.network.transfer(
                source_device, device.name, task.input_bytes))
        for pred in preds:
            yield done_events[pred]
            pred_device = placement.device_of(pred)
            if pred_device != device.name:
                yield sim.process(infrastructure.network.transfer(
                    pred_device, device.name,
                    application.edge_bytes(pred, task.name)))
                infrastructure.record_offload(pred_device, device.name)
                offloads["n"] += 1
        record = yield sim.process(device.execute(task))
        energy_total["j"] += record.energy_j
        records.append(record)
        # Emitted at the completion instant (sim.now == record.end_s),
        # keeping trace timestamps monotone; an ambient `with` around
        # the whole generator would misattribute interleaved events.
        tracer.record_span(
            "continuum.device.task", "continuum",
            record.start_s, record.end_s,
            task=record.task_name, device=record.device_name,
            operating_point=record.operating_point)
        done_events[task.name].succeed(record)

    tracer = infrastructure.ctx.tracer
    with tracer.start_span("mirto.placement.execute", layer="mirto",
                           application=application.name):
        for task in application.tasks:
            sim.process(run_task(task))
        sim.run(until=sim.all_of(list(done_events.values())))
    return ExecutionReport(
        application=application.name,
        strategy=placement.strategy,
        makespan_s=sim.now - start_time,
        energy_j=energy_total["j"],
        offloads=offloads["n"],
        records=records,
    )


def _swarm_rule(rng: random.Random) -> PlacementStrategy:
    from repro.mirto.swarm_rules import RuleBasedPlacement
    return RuleBasedPlacement(rng=rng)


def _exact(rng: random.Random) -> PlacementStrategy:
    from repro.mirto.exact import ExactPlacement
    return ExactPlacement()


def _portfolio(rng: random.Random) -> PlacementStrategy:
    from repro.mirto.portfolio import PortfolioPlacement
    return PortfolioPlacement(seed=rng.getrandbits(32))


#: name -> factory(rng) of every strategy :func:`make_strategy` builds.
_STRATEGIES: dict[str, Callable[[random.Random], PlacementStrategy]] = {
    "random": RandomPlacement,
    "round-robin": lambda rng: RoundRobinPlacement(),
    "greedy": lambda rng: GreedyPlacement(),
    "pso": PsoPlacement,
    "aco": AcoPlacement,
    "firefly": FireflyPlacement,
    "swarm-rule": _swarm_rule,
    "exact": _exact,
    "portfolio": _portfolio,
}

#: Every name :func:`make_strategy` accepts.
STRATEGY_NAMES = tuple(_STRATEGIES)


def make_strategy(name: str, rng: random.Random | None = None
                  ) -> PlacementStrategy:
    """Factory used by benchmarks and the WL Manager."""
    if name not in STRATEGY_NAMES:
        raise OrchestrationError(f"unknown placement strategy {name!r}")
    return _STRATEGIES[name](rng or random.Random(0))
