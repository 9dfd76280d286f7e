"""Swarm-intelligence optimizers (the LAKE contribution in the paper).

Two population-based optimizers used by the MIRTO Manager's cognitive
placement strategies:

* :class:`ParticleSwarmOptimizer` — continuous PSO, used over relaxed
  assignment vectors (each task gets a score per device; the argmax
  decodes to a placement);
* :class:`AntColonyOptimizer` — discrete ACO over task-to-device choices
  with pheromone reinforcement, a natural fit for combinatorial
  placement.

Both are generic: they optimize a user-supplied objective and are also
exercised directly by unit tests on analytic functions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.errors import ConfigurationError


def _drive(stepper, iterations: int):
    """Take a ``steps()`` generator's initialization point, then
    *iterations* iterations; return the last ``(best, best value)``."""
    best = next(stepper)
    for _ in range(iterations):
        best = next(stepper)
    return best


@dataclass
class OptimizationTrace:
    """Best objective value per iteration (for convergence reporting)."""

    best_per_iteration: list[float] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        if len(self.best_per_iteration) < 2:
            return False
        return self.best_per_iteration[-1] < self.best_per_iteration[0]


class ParticleSwarmOptimizer:
    """Canonical PSO minimizing ``objective(position)``.

    Positions are real vectors in a box; inertia/cognitive/social
    parameters follow the standard constriction-free setup.
    """

    def __init__(self, dimensions: int, rng: random.Random,
                 particles: int = 20, inertia: float = 0.7,
                 cognitive: float = 1.5, social: float = 1.5,
                 bounds: tuple[float, float] = (-1.0, 1.0)):
        if dimensions < 1 or particles < 2:
            raise ConfigurationError(
                "PSO needs >=1 dimension and >=2 particles")
        if bounds[0] >= bounds[1]:
            raise ConfigurationError("invalid PSO bounds")
        self.dimensions = dimensions
        self.rng = rng
        self.num_particles = particles
        self.inertia = inertia
        self.cognitive = cognitive
        self.social = social
        self.bounds = bounds
        self.trace = OptimizationTrace()

    def minimize(self, objective: Callable[[list[float]], float],
                 iterations: int = 50) -> tuple[list[float], float]:
        """Run PSO; returns (best position, best value)."""
        return _drive(self.steps(objective), iterations)

    def steps(self, objective: Callable[[list[float]], float]):
        """Generator form of :meth:`minimize` for anytime callers.

        The first ``next()`` initializes and evaluates the population;
        every later ``next()`` runs one full PSO iteration. Each yield
        is ``(best position, best value)`` so far. RNG draw order is
        identical to :meth:`minimize` — driving the generator for *k*
        iterations is bit-identical to ``minimize(..., iterations=k)``.
        """
        lo, hi = self.bounds
        span = hi - lo
        positions = [[self.rng.uniform(lo, hi)
                      for _ in range(self.dimensions)]
                     for _ in range(self.num_particles)]
        velocities = [[self.rng.uniform(-span, span) * 0.1
                       for _ in range(self.dimensions)]
                      for _ in range(self.num_particles)]
        personal_best = [list(p) for p in positions]
        personal_value = [objective(p) for p in positions]
        best_index = min(range(self.num_particles),
                         key=lambda i: personal_value[i])
        global_best = list(personal_best[best_index])
        global_value = personal_value[best_index]
        yield list(global_best), global_value
        # Local bindings keep attribute lookups out of the O(particles x
        # dimensions) update loop; arithmetic and RNG draw order are
        # exactly the canonical formulation's, so runs stay bit-stable.
        rand = self.rng.random
        inertia, cognitive, social = \
            self.inertia, self.cognitive, self.social
        dims = range(self.dimensions)
        while True:
            for i in range(self.num_particles):
                velocity = velocities[i]
                position = positions[i]
                pbest = personal_best[i]
                for d in dims:
                    r1, r2 = rand(), rand()
                    v = (inertia * velocity[d]
                         + cognitive * r1 * (pbest[d] - position[d])
                         + social * r2 * (global_best[d] - position[d]))
                    velocity[d] = v
                    position[d] = min(hi, max(lo, position[d] + v))
                value = objective(position)
                if value < personal_value[i]:
                    personal_value[i] = value
                    personal_best[i] = list(position)
                    if value < global_value:
                        global_value = value
                        global_best = list(position)
            self.trace.best_per_iteration.append(global_value)
            yield list(global_best), global_value


class FireflyOptimizer:
    """Firefly algorithm: attraction towards brighter (better) peers.

    Each firefly moves towards every brighter firefly with strength
    decaying in squared distance (``beta * exp(-gamma r^2)``), plus a
    small random walk. A third population-based strategy flavour for
    MIRTO agents alongside PSO and ACO.
    """

    def __init__(self, dimensions: int, rng: random.Random,
                 fireflies: int = 15, beta: float = 1.0,
                 gamma: float = 1.0, alpha: float = 0.2,
                 alpha_decay: float = 0.97,
                 bounds: tuple[float, float] = (-1.0, 1.0)):
        if dimensions < 1 or fireflies < 2:
            raise ConfigurationError(
                "firefly needs >=1 dimension and >=2 fireflies")
        if bounds[0] >= bounds[1]:
            raise ConfigurationError("invalid firefly bounds")
        self.dimensions = dimensions
        self.rng = rng
        self.num_fireflies = fireflies
        self.beta = beta
        self.gamma = gamma
        self.alpha = alpha
        self.alpha_decay = alpha_decay
        self.bounds = bounds
        self.trace = OptimizationTrace()

    def minimize(self, objective: Callable[[list[float]], float],
                 iterations: int = 40) -> tuple[list[float], float]:
        """Run the firefly algorithm; returns (best position, value)."""
        return _drive(self.steps(objective), iterations)

    def steps(self, objective: Callable[[list[float]], float]):
        """Generator form of :meth:`minimize` for anytime callers.

        First ``next()`` initializes the population; each later
        ``next()`` is one iteration. Yields ``(best position, best
        value)``. The current-best firefly never moves (nothing is
        brighter), so the population minimum is non-increasing and the
        yielded best matches what :meth:`minimize` would return after
        the same number of iterations, draw for draw.
        """
        lo, hi = self.bounds
        span = hi - lo
        positions = [[self.rng.uniform(lo, hi)
                      for _ in range(self.dimensions)]
                     for _ in range(self.num_fireflies)]
        brightness = [objective(p) for p in positions]
        best_index = min(range(self.num_fireflies),
                         key=lambda k: brightness[k])
        yield list(positions[best_index]), brightness[best_index]
        alpha = self.alpha
        while True:
            for i in range(self.num_fireflies):
                for j in range(self.num_fireflies):
                    if brightness[j] >= brightness[i]:
                        continue  # j is not brighter (lower is better)
                    r_sq = sum((a - b) ** 2 for a, b in
                               zip(positions[i], positions[j]))
                    attraction = self.beta * math.exp(-self.gamma * r_sq)
                    for d in range(self.dimensions):
                        step = (attraction
                                * (positions[j][d] - positions[i][d])
                                + alpha * span
                                * (self.rng.random() - 0.5))
                        positions[i][d] = min(hi, max(
                            lo, positions[i][d] + step))
                    brightness[i] = objective(positions[i])
            alpha *= self.alpha_decay
            self.trace.best_per_iteration.append(min(brightness))
            best_index = min(range(self.num_fireflies),
                             key=lambda k: brightness[k])
            yield list(positions[best_index]), brightness[best_index]


class AntColonyOptimizer:
    """ACO over sequential discrete choices.

    Each of ``n_decisions`` positions picks one of ``n_options``;
    ``objective(choices)`` scores a complete assignment (lower is
    better). Each ant picks every option with probability proportional
    to its pheromone; pheromones reinforce good assignments, and
    evaporation keeps exploration alive.
    """

    def __init__(self, n_decisions: int, n_options: int,
                 rng: random.Random, ants: int = 20,
                 evaporation: float = 0.3):
        if n_decisions < 1 or n_options < 1:
            raise ConfigurationError("ACO needs decisions and options")
        if not 0 < evaporation < 1:
            raise ConfigurationError("evaporation must be in (0, 1)")
        self.n_decisions = n_decisions
        self.n_options = n_options
        self.rng = rng
        self.ants = ants
        self.evaporation = evaporation
        self.pheromone = [[1.0] * n_options for _ in range(n_decisions)]
        self.trace = OptimizationTrace()

    def _pick(self, decision: int) -> int:
        """Roulette wheel over the decision's pheromone row."""
        row = self.pheromone[decision]
        threshold = self.rng.random() * sum(row)
        cumulative = 0.0
        for option, weight in enumerate(row):
            cumulative += weight
            if cumulative >= threshold:
                return option
        return self.n_options - 1

    def minimize(self, objective: Callable[[list[int]], float],
                 iterations: int = 40) -> tuple[list[int], float]:
        """Run ACO; returns (best choice vector, best value)."""
        global_best, global_value = _drive(self.steps(objective),
                                           iterations)
        assert global_best is not None
        return global_best, global_value

    def steps(self, objective: Callable[[list[int]], float]):
        """Generator form of :meth:`minimize` for anytime callers.

        ACO has no evaluated initial population, so the first ``next()``
        yields ``(None, inf)``; each later ``next()`` runs one iteration
        and yields ``(best choices, best value)`` so far, with RNG draw
        order identical to :meth:`minimize`.
        """
        global_best: list[int] | None = None
        global_value = math.inf
        yield None, global_value
        while True:
            solutions = []
            for _ in range(self.ants):
                choices = [self._pick(d) for d in range(self.n_decisions)]
                value = objective(choices)
                solutions.append((value, choices))
                if value < global_value:
                    global_value = value
                    global_best = list(choices)
            # Evaporate, then deposit proportional to solution quality.
            for decision in range(self.n_decisions):
                for option in range(self.n_options):
                    self.pheromone[decision][option] *= \
                        (1 - self.evaporation)
            solutions.sort(key=lambda pair: pair[0])
            for rank, (value, choices) in enumerate(solutions[:5]):
                deposit = 1.0 / (1.0 + value) / (1 + rank)
                for decision, option in enumerate(choices):
                    self.pheromone[decision][option] += deposit
            self.trace.best_per_iteration.append(global_value)
            yield list(global_best), global_value
