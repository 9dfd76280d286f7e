"""Deadline-raced solver portfolio: exact vs. the swarm heuristics.

Races the exact branch-and-bound against PSO/ACO/firefly under one
deadline with deterministic round-robin ``step()`` interleaving — no
threads, so a run is a pure function of (seed, request). Semantics are
*parallel racing*: every lane receives the full budget, exactly as if
the backends ran concurrently, which is what makes the portfolio never
worse than the best single backend at equal budget. Each lane draws
from its own seed-tree RNG stream (``derive_seed(seed, backend)``), so
adding or removing a lane never perturbs the others.

Incumbents flow one way: every lane's improvements update the shared
best (with provenance), and the shared best is fed into the exact
lane's pruning bound via ``tighten()``. Metaheuristic lanes never see
foreign incumbents — injecting them would perturb RNG draw order and
break the equal-budget dominance argument; tightening a bound only
ever discards provably-dominated subtrees, so it is safe. When the
exact lane finishes its tree, the race stops early: the shared best at
that point is provably optimal.

The request's warm start is priced once per solve and that one
``(placement, cost)`` goes to every lane, which adopts it itself.
"""

from __future__ import annotations

import random

from repro.core.errors import OrchestrationError
from repro.core.rng import derive_seed
from repro.mirto.exact import ExactPlacement
from repro.mirto.placement import (
    AcoPlacement,
    FireflyPlacement,
    Placement,
    PlacementRequest,
    PlacementResult,
    PlacementStrategy,
    PsoPlacement,
    SolveBudget,
    SolveSession,
)

_SWARM_BACKENDS = {
    "pso": PsoPlacement,
    "aco": AcoPlacement,
    "firefly": FireflyPlacement,
}

#: The race's lanes, in stepping order.
BACKENDS = ("exact", *_SWARM_BACKENDS)

#: Applied when the request's budget is unlimited — a race needs a
#: finish line (50ms-equivalent on the DES clock).
RACE_BUDGET = SolveBudget(deadline_s=0.050)


class _Lane:
    """One backend's slot in the race."""

    __slots__ = ("name", "session", "finished", "result")

    def __init__(self, name: str, session: SolveSession):
        self.name = name
        self.session = session
        self.finished = False
        self.result: PlacementResult | None = None


class _PortfolioSession(SolveSession):
    """The race. Its incumbent carries the winning lane's label, so it
    keeps its own ``_offer`` rather than the base session's."""

    def __init__(self, strategy: "PortfolioPlacement",
                 request: PlacementRequest,
                 warm: tuple[Placement, float] | None):
        self._strategy = strategy
        self._request = request
        self._best: tuple[Placement, float, str] | None = None
        budget = request.budget if not request.budget.unlimited \
            else RACE_BUDGET
        self._lanes = []
        for name in BACKENDS:
            backend = strategy.backend(name)
            lane_request = PlacementRequest(
                application=request.application,
                infrastructure=request.infrastructure,
                constraints=request.constraints,
                budget=budget,
                on_incumbent=self._lane_callback(name),
            )
            self._lanes.append(_Lane(name, backend._session_type(
                backend, lane_request, warm)))
        self._done = False

    def _lane_callback(self, lane_name: str):
        def on_incumbent(placement: Placement, cost: float,
                         backend: str) -> None:
            self._offer(placement, cost, lane_name)
        return on_incumbent

    def _offer(self, placement: Placement, cost: float,
               backend: str) -> None:
        if self._best is not None and cost >= self._best[1]:
            return
        self._best = (placement, cost, backend)
        request = self._request
        if request.on_incumbent is not None:
            request.on_incumbent(placement, cost, backend)
        request.infrastructure.ctx.publish(
            "mirto.placement.incumbent",
            {"backend": backend, "cost": cost})

    def _finish_lane(self, lane: _Lane) -> None:
        lane.finished = True
        lane.result = lane.session.result()
        self._offer(lane.result.placement, lane.result.cost, lane.name)

    def step(self) -> bool:
        if self._done:
            return False
        for lane in self._lanes:
            if lane.finished:
                continue
            if self._best is not None:
                tighten = getattr(lane.session, "tighten", None)
                if tighten is not None:
                    tighten(self._best[1])
            if not lane.session.step():
                self._finish_lane(lane)
                # A finished exact lane whose lower bound reaches the
                # shared best is a proof: the other lanes can only
                # rediscover it, so the race stops early.
                if lane.result.lower_bound >= self._best[1]:
                    for other in self._lanes:
                        if not other.finished:
                            self._finish_lane(other)
                    break
        self._done = all(lane.finished for lane in self._lanes)
        return not self._done

    def result(self) -> PlacementResult:
        if self._best is None:
            while self.step():
                pass
        for lane in self._lanes:
            if lane.result is None:
                lane.result = lane.session.result()
        placement, cost, backend = self._best
        stats = tuple(stat for lane in self._lanes
                      for stat in lane.result.stats)
        lower_bound = max(lane.result.lower_bound
                          for lane in self._lanes)
        return PlacementResult(
            placement=Placement(dict(placement.assignment),
                                self._strategy.name),
            cost=cost, optimal=cost <= lower_bound,
            lower_bound=lower_bound, provenance=backend, stats=stats)


class PortfolioPlacement(PlacementStrategy):
    """Anytime portfolio racing exact and metaheuristic backends."""

    name = "portfolio"
    _session_type = _PortfolioSession

    def __init__(self, seed: int = 0, iterations: int = 30):
        self.seed = seed
        self.iterations = iterations

    def backend(self, name: str) -> PlacementStrategy:
        """A lane's backend, freshly seeded from the portfolio's seed
        tree — also how tests build the standalone baseline a raced
        lane is compared against."""
        if name == "exact":
            return ExactPlacement()
        cls = _SWARM_BACKENDS.get(name)
        if cls is None:
            raise OrchestrationError(
                f"unknown portfolio backend {name!r}")
        rng = random.Random(
            derive_seed(self.seed, f"mirto.placement.{name}"))
        return cls(rng, iterations=self.iterations)
