"""Exact placement: depth-first branch-and-bound with admissible bounds.

The search assigns devices to tasks in the application's topological
order, mirroring :func:`repro.mirto.placement.estimate_placement_kpis`
incrementally: because that estimator list-schedules tasks in a fixed
order, a prefix's finish times never change when the suffix is filled
in, so the prefix makespan/energy are exact and any completion costs at
least

``(1 - w) * max(prefix makespan, critical-path LB over remaining tasks)
+ w * (prefix energy + sum of per-task cheapest energies) / 100``

where the critical-path LB gives every unassigned task its
cheapest-feasible-device duration and ignores transfers and queueing —
dropping nonnegative terms keeps the bound admissible. Subtrees whose
bound reaches the incumbent are cut; an exhausted tree is a proof of
optimality. Under the anytime contract the session always finishes its
first depth-first dive (so there is always an incumbent), then honors
the node budget, reporting the root lower bound when stopped early.

The portfolio feeds foreign incumbents in through :meth:`tighten`:
pruning against a tighter bound only discards subtrees that cannot beat
the shared incumbent, so at any node count the raced exact lane is
never worse than a standalone run — it only reaches surviving leaves
sooner.
"""

from __future__ import annotations

import math

from repro.mirto.placement import (
    Placement,
    PlacementRequest,
    PlacementResult,
    PlacementStrategy,
    SolveSession,
    _DEFAULT_ENERGY_WEIGHT,
    _objective,
    _warm_incumbent,
    placement_cost,
)

#: Sentinel for "device had no scheduled-free entry before this apply".
_MISSING = object()


class ExactPlacement(PlacementStrategy):
    """Branch-and-bound over task->device assignments.

    Proves optimality on small instances (roughly <= 8 services x 20
    devices) and behaves as an anytime solver beyond that: best
    incumbent at budget exhaustion, with the root lower bound reported.
    ``node_budget`` caps unbudgeted requests so an unlimited
    :class:`SolveBudget` cannot detonate on a large instance; an
    explicit request budget always wins.
    """

    name = "exact"

    def __init__(self, energy_weight: float = _DEFAULT_ENERGY_WEIGHT,
                 node_budget: int = 200_000, batch: int = 64):
        self.energy_weight = energy_weight
        self.node_budget = node_budget
        self.batch = batch

    def session(self, request: PlacementRequest) -> SolveSession:
        return _ExactSession(self, request)


class _ExactSession(SolveSession):
    """One branch-and-bound run, steppable in ``batch``-node slices."""

    def __init__(self, strategy: ExactPlacement,
                 request: PlacementRequest):
        super().__init__(strategy, request)
        self._w = strategy.energy_weight
        limit = request.budget.node_limit()
        self._limit = strategy.node_budget if limit is None else limit
        app = request.application
        infra = request.infrastructure
        self._transfer = infra.network.estimate_transfer_time
        self._source = request.constraints.source_device
        tasks = app.tasks
        self._tasks = tasks
        self._n = len(tasks)
        self._preds = {t.name: app.predecessors(t.name) for t in tasks}
        self._devices = infra.devices
        w = self._w
        # Children ordered by myopic per-task score so the first dive
        # is greedy-ish and the incumbent tightens the bound early.
        self._options = []
        for task in tasks:
            devices = strategy._eligible_or_raise(task, infra,
                                                  request.constraints)
            devices.sort(key=lambda d: (_objective(
                d.estimate_duration(task), d.estimate_energy(task), w),
                d.name))
            self._options.append(devices)
        self._min_dur = [
            min(d.estimate_duration(t) for d in opts)
            for t, opts in zip(tasks, self._options)]
        suffix = [0.0] * (self._n + 1)
        for i in range(self._n - 1, -1, -1):
            suffix[i] = suffix[i + 1] + min(
                d.estimate_energy(tasks[i]) for d in self._options[i])
        self._suffix_energy = suffix
        # Incremental list-schedule state (undone on backtrack).
        self._assignment: dict[str, str] = {}
        self._finish: dict[str, float] = {}
        self._device_free: dict[str, float] = {}
        self._prefix_mk = [0.0] * (self._n + 1)
        self._prefix_en = [0.0] * (self._n + 1)
        self._choice = [-1] * self._n
        self._undo: list[tuple | None] = [None] * self._n
        self._depth = 0
        self._bound = math.inf
        self._complete = self._n == 0
        self._done = self._complete
        self._root_lb = self._lower_bound(-1, 0.0, 0.0, None, 0.0)
        warm = _warm_incumbent(request, self._w)
        if warm is not None:
            self.tighten(warm[1])
            self._offer(*warm)

    # -- incumbents ---------------------------------------------------------

    def tighten(self, bound: float) -> None:
        """Adopt an incumbent's cost (own or foreign) as the pruning
        bound when it is tighter."""
        if bound < self._bound:
            self._bound = bound

    # -- scheduling arithmetic (mirrors estimate_placement_kpis) ------------

    def _schedule(self, depth: int, device) -> tuple[float, float, float]:
        """(finish, prefix makespan, prefix energy) if *device* runs
        the depth-th task, without mutating state."""
        task = self._tasks[depth]
        device_name = device.name
        ready = 0.0
        preds = self._preds[task.name]
        if not preds and self._source is not None \
                and self._source != device_name:
            ready = self._transfer(self._source, device_name,
                                   task.input_bytes)
        app = self._request.application
        for pred in preds:
            arrival = self._finish[pred]
            pred_device = self._assignment[pred]
            if pred_device != device_name:
                arrival += self._transfer(pred_device, device_name,
                                          app.edge_bytes(pred,
                                                         task.name))
            if arrival > ready:
                ready = arrival
        free = self._device_free.get(device_name)
        if free is None:
            free = device.backlog_seconds()
        start = ready if ready > free else free
        end = start + device.estimate_duration(task)
        makespan = self._prefix_mk[depth]
        if end > makespan:
            makespan = end
        energy = self._prefix_en[depth] + device.estimate_energy(task)
        return end, makespan, energy

    def _lower_bound(self, depth: int, makespan: float, energy: float,
                     candidate_task: str | None,
                     candidate_end: float) -> float:
        """Admissible bound on any completion of the current prefix
        plus the candidate assignment at *depth* (not yet applied)."""
        finish = self._finish
        future = {} if candidate_task is None \
            else {candidate_task: candidate_end}
        lb_makespan = makespan
        for j in range(depth + 1, self._n):
            task = self._tasks[j]
            ready = 0.0
            for pred in self._preds[task.name]:
                at = finish.get(pred)
                if at is None:
                    at = future[pred]
                if at > ready:
                    ready = at
            end = ready + self._min_dur[j]
            future[task.name] = end
            if end > lb_makespan:
                lb_makespan = end
        return _objective(lb_makespan,
                          energy + self._suffix_energy[depth + 1], self._w)

    # -- DFS state machine --------------------------------------------------

    def _apply(self, depth: int, device, end: float, makespan: float,
               energy: float) -> None:
        task_name = self._tasks[depth].name
        device_name = device.name
        prev_free = self._device_free.get(device_name, _MISSING)
        self._device_free[device_name] = end
        self._finish[task_name] = end
        self._assignment[task_name] = device_name
        self._prefix_mk[depth + 1] = makespan
        self._prefix_en[depth + 1] = energy
        self._undo[depth] = (task_name, device_name, prev_free)

    def _revert(self, depth: int) -> None:
        task_name, device_name, prev_free = self._undo[depth]
        if prev_free is _MISSING:
            del self._device_free[device_name]
        else:
            self._device_free[device_name] = prev_free
        del self._finish[task_name]
        del self._assignment[task_name]
        self._undo[depth] = None

    def _leaf(self) -> None:
        # Leaf cost comes from the shared estimator, not the
        # incremental prefix, so reported costs are bit-identical to
        # what every other backend computes for the same assignment.
        self._stats.evaluations += 1
        cost = placement_cost(
            self._request.application, self._request.infrastructure,
            self._assignment, strategy=self._strategy.name,
            source_device=self._source, energy_weight=self._w)
        if cost < self._bound or self._best is None:
            self.tighten(cost)
            self._offer(Placement(dict(self._assignment),
                                  self._strategy.name), cost)

    def _advance_one(self) -> bool:
        """One DFS move (try a candidate, or backtrack one level);
        False once the whole tree is exhausted."""
        depth = self._depth
        if depth < 0:
            return False
        if self._undo[depth] is not None:
            self._revert(depth)
        options = self._options[depth]
        index = self._choice[depth] + 1
        if index >= len(options):
            self._choice[depth] = -1
            self._depth = depth - 1
            return self._depth >= 0
        self._choice[depth] = index
        self._stats.nodes += 1
        device = options[index]
        end, makespan, energy = self._schedule(depth, device)
        lb = self._lower_bound(depth, makespan, energy,
                               self._tasks[depth].name, end)
        if lb >= self._bound:
            self._stats.pruned += 1
            return True
        self._apply(depth, device, end, makespan, energy)
        if depth + 1 == self._n:
            self._leaf()
            self._revert(depth)
            return True
        self._depth = depth + 1
        self._choice[self._depth] = -1
        return True

    def step(self) -> bool:
        if self._done:
            return False
        self._stats.steps += 1
        start = self._stats.nodes
        batch = self._strategy.batch
        while True:
            # The first dive always completes (an anytime solver must
            # hold an incumbent); after that the node budget rules.
            if self._best is not None \
                    and self._stats.nodes >= self._limit:
                self._done = True
                return False
            if not self._advance_one():
                self._complete = True
                self._done = True
                return False
            if self._stats.nodes - start >= batch:
                return True

    def result(self) -> PlacementResult:
        if self._best is None:
            while self.step():
                pass
        placement, cost = self._best
        if self._complete:
            # Exhausted tree: nothing costs less than the final bound
            # (pruned subtrees had lb >= a bound that only ever
            # tightened toward this one).
            lower_bound = self._bound
        else:
            lower_bound = self._root_lb
        optimal = cost <= lower_bound
        self._stats.lower_bound = lower_bound
        self._stats.proven_optimal = optimal
        return PlacementResult(
            placement=placement, cost=cost, optimal=optimal,
            lower_bound=lower_bound, provenance=self._strategy.name,
            stats=(self._stats,))
