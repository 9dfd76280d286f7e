"""Exact placement: depth-first branch-and-bound with admissible bounds.

The search assigns devices to tasks in the application's topological
order by pushing them onto one :class:`repro.mirto.placement.ListSchedule`
and popping them on the way back. That schedule is the cost model
itself, and it schedules tasks in a fixed order, so a prefix's finish
times never change when the suffix is filled in: the prefix
makespan/energy are exact, a leaf's cost is read off the full schedule
(bit-identical to :func:`~repro.mirto.placement.placement_cost`), and
any completion costs at least

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
    ListSchedule,
    Placement,
    PlacementRequest,
    PlacementResult,
    PlacementStrategy,
    SolveSession,
    _objective,
)

#: Node allowance of an unbudgeted request, so an unlimited
#: :class:`~repro.mirto.placement.SolveBudget` cannot detonate on a
#: large instance; an explicit request budget always wins.
NODE_BUDGET = 200_000

#: Search nodes per ``step()`` slice.
BATCH = 64


class _ExactSession(SolveSession):
    """One branch-and-bound run, steppable in :data:`BATCH`-node
    slices."""

    def __init__(self, strategy: PlacementStrategy,
                 request: PlacementRequest,
                 warm: tuple[Placement, float] | None):
        super().__init__(strategy, request, warm)
        limit = request.budget.node_limit()
        self._limit = NODE_BUDGET if limit is None else limit
        app = request.application
        infra = request.infrastructure
        #: The current DFS path's assignments, scheduled in task order
        #: (pushed on descent, popped on prune, leaf and backtrack).
        self._prefix = ListSchedule(app, infra,
                                    request.constraints.source_device)
        tasks = self._prefix.tasks
        self._n = len(tasks)
        self._preds = {t.name: app.predecessors(t.name) for t in tasks}
        # Children ordered by myopic per-task score so the first dive
        # is greedy-ish and the incumbent tightens the bound early.
        self._options = []
        for task in tasks:
            devices = strategy._eligible_or_raise(task, infra,
                                                  request.constraints)
            devices.sort(key=lambda d: (_objective(
                d.estimate_duration(task), d.estimate_energy(task)),
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
        self._choice = [-1] * self._n
        self._depth = 0
        self._bound = math.inf
        self._complete = self._n == 0
        self._done = self._complete
        self._root_lb = self._lower_bound(0)
        if warm is not None:
            self.tighten(warm[1])
            self._offer(*warm)

    # -- incumbents ---------------------------------------------------------

    def tighten(self, bound: float) -> None:
        """Adopt an incumbent's cost (own or foreign) as the pruning
        bound when it is tighter."""
        if bound < self._bound:
            self._bound = bound

    # -- DFS state machine --------------------------------------------------

    def _lower_bound(self, scheduled: int) -> float:
        """Admissible bound on any completion of the first *scheduled*
        tasks, as the prefix schedule holds them."""
        prefix = self._prefix
        finish = prefix.finish
        future = {}
        lb_makespan = prefix.makespan
        for j in range(scheduled, self._n):
            task = prefix.tasks[j]
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
                          prefix.energy + self._suffix_energy[scheduled])

    def _leaf(self) -> None:
        # The prefix is the whole schedule now: the same pushes, in the
        # same order, as placement_cost makes for this assignment, so
        # the cost is bit-identical to every other backend's.
        self._stats.evaluations += 1
        prefix = self._prefix
        cost = _objective(prefix.makespan, prefix.energy)
        if cost < self._bound or self._best is None:
            self.tighten(cost)
            self._offer(Placement(dict(prefix.assignment),
                                  self._strategy.name), cost)

    def _advance_one(self) -> bool:
        """One DFS move (try a candidate, or backtrack one level);
        False once the whole tree is exhausted."""
        depth = self._depth
        if depth < 0:
            return False
        prefix = self._prefix
        options = self._options[depth]
        index = self._choice[depth] + 1
        if index >= len(options):
            self._choice[depth] = -1
            self._depth = depth - 1
            if depth:
                prefix.pop()  # the parent's choice
            return self._depth >= 0
        self._choice[depth] = index
        self._stats.nodes += 1
        prefix.push(options[index])
        if self._lower_bound(depth + 1) >= self._bound:
            self._stats.pruned += 1
            prefix.pop()
            return True
        if depth + 1 == self._n:
            self._leaf()
            prefix.pop()
            return True
        self._depth = depth + 1
        self._choice[self._depth] = -1
        return True

    def step(self) -> bool:
        if self._done:
            return False
        self._stats.steps += 1
        start = self._stats.nodes
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
            if self._stats.nodes - start >= BATCH:
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


class ExactPlacement(PlacementStrategy):
    """Branch-and-bound over task->device assignments.

    Proves optimality on small instances (roughly <= 8 services x 20
    devices) and behaves as an anytime solver beyond that: best
    incumbent at budget exhaustion, with the root lower bound reported.
    An unbudgeted request gets :data:`NODE_BUDGET` nodes.
    """

    name = "exact"
    _session_type = _ExactSession
