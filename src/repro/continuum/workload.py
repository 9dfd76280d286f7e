"""Workload model: tasks, task graphs, and workload generators.

A :class:`Task` is the unit of computation the continuum schedules: an
amount of compute work (mega-operations), data to move in and out, and
non-functional requirements (latency budget, privacy class, security
level, accelerability). Tasks compose into DAG-shaped
:class:`Application`s, the unit MIRTO deploys from a TOSCA request.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from repro.core.errors import ValidationError
from repro.core.graph import reachable, topological_sort


class PrivacyClass(str, Enum):
    """How sensitive a task's input data is.

    ``RAW_PERSONAL`` data must stay at the edge (telerehabilitation video),
    ``AGGREGATED`` may reach the fog, ``PUBLIC`` may go anywhere.
    """

    PUBLIC = "public"
    AGGREGATED = "aggregated"
    RAW_PERSONAL = "raw_personal"


class KernelClass(str, Enum):
    """Computational kernel family, used for accelerator affinity."""

    GENERAL = "general"
    DSP = "dsp"
    NEURAL = "neural"
    CRYPTO = "crypto"
    ANALYTICS = "analytics"


@dataclass(frozen=True)
class TaskRequirements:
    """Non-functional requirements attached to a task."""

    latency_budget_s: float = float("inf")
    privacy: PrivacyClass = PrivacyClass.PUBLIC
    min_security_level: str = "low"  # one of repro.security.levels names
    preferred_layer: str | None = None

    def __post_init__(self):
        if self.latency_budget_s <= 0:
            raise ValidationError("latency budget must be positive")


@dataclass
class Task:
    """A schedulable unit of work.

    Parameters
    ----------
    name:
        Unique name within its application.
    megaops:
        Compute demand in millions of operations.
    input_bytes / output_bytes:
        Data transferred to/from the executing device.
    kernel:
        Kernel family; accelerators speed up matching kernels.
    memory_bytes:
        Resident memory required while running.
    requirements:
        Non-functional constraints the orchestrator must honour.
    """

    name: str
    megaops: float
    input_bytes: int = 0
    output_bytes: int = 0
    kernel: KernelClass = KernelClass.GENERAL
    memory_bytes: int = 64 * 1024 * 1024
    requirements: TaskRequirements = field(default_factory=TaskRequirements)

    def __post_init__(self):
        if self.megaops < 0:
            raise ValidationError(f"task {self.name}: negative megaops")
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise ValidationError(f"task {self.name}: negative data size")
        if self.memory_bytes < 0:
            raise ValidationError(f"task {self.name}: negative memory")

    def scaled(self, factor: float) -> "Task":
        """Return a copy with compute and data scaled by *factor*."""
        return Task(
            name=self.name,
            megaops=self.megaops * factor,
            input_bytes=int(self.input_bytes * factor),
            output_bytes=int(self.output_bytes * factor),
            kernel=self.kernel,
            memory_bytes=self.memory_bytes,
            requirements=self.requirements,
        )


class Application:
    """A DAG of tasks with data dependencies.

    Edges carry the number of bytes the upstream task sends downstream.
    ``graph`` maps each task name to ``{successor name: bytes}``, in
    insertion order: the adjacency :mod:`repro.core.graph` reads, whose
    Kahn order is :attr:`tasks`.
    """

    def __init__(self, name: str):
        self.name = name
        self.graph: dict[str, dict[str, int]] = {}
        self._tasks: dict[str, Task] = {}
        self._preds: dict[str, list[str]] = {}
        self._order: list[Task] | None = None  # topological, memoised

    def add_task(self, task: Task) -> Task:
        """Add *task*; names must be unique within the application."""
        if task.name in self.graph:
            raise ValidationError(
                f"application {self.name}: duplicate task {task.name!r}"
            )
        self.graph[task.name] = {}
        self._tasks[task.name] = task
        self._preds[task.name] = []
        self._order = None
        return task

    def connect(self, src: str, dst: str, bytes_transferred: int = 0) -> None:
        """Add a dependency edge from *src* to *dst*."""
        for endpoint in (src, dst):
            if endpoint not in self.graph:
                raise ValidationError(
                    f"application {self.name}: unknown task {endpoint!r}"
                )
        if src in reachable(self.graph, dst):
            raise ValidationError(
                f"application {self.name}: edge {src}->{dst} creates a cycle"
            )
        if dst not in self.graph[src]:
            self._preds[dst].append(src)
        self.graph[src][dst] = bytes_transferred
        self._order = None

    @property
    def tasks(self) -> list[Task]:
        """All tasks in topological order."""
        if self._order is None:
            self._order = [self._tasks[name]
                           for name in topological_sort(self.graph)]
        return list(self._order)

    def task(self, name: str) -> Task:
        """Look up a task by name."""
        if name not in self._tasks:
            raise ValidationError(
                f"application {self.name}: unknown task {name!r}"
            )
        return self._tasks[name]

    def predecessors(self, name: str) -> list[str]:
        """Names of tasks that must finish before *name* starts."""
        return list(self._preds[name])

    def successors(self, name: str) -> list[str]:
        """Names of tasks unlocked by *name* finishing."""
        return list(self.graph[name])

    def edge_bytes(self, src: str, dst: str) -> int:
        """Bytes transferred on the src->dst edge."""
        return self.graph[src][dst]

    def total_megaops(self) -> float:
        """Sum of compute demand over all tasks."""
        return sum(t.megaops for t in self.tasks)

    def critical_path_megaops(self) -> float:
        """Compute demand along the heaviest dependency chain."""
        best: dict[str, float] = {}
        for task in self.tasks:
            base = max((best[p] for p in self._preds[task.name]),
                       default=0.0)
            best[task.name] = base + task.megaops
        return max(best.values(), default=0.0)

    def __len__(self) -> int:
        return len(self.graph)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        edges = sum(len(successors) for successors in self.graph.values())
        return f"Application({self.name!r}, tasks={len(self)}, edges={edges})"


@dataclass
class ArrivalEvent:
    """One application instance arriving at a given simulated time."""

    time_s: float
    application: Application
    source_component: str | None = None


class PoissonArrivals:
    """Generates application arrivals with exponential inter-arrival times."""

    def __init__(self, application: Application, rate_per_s: float, rng,
                 source_component: str | None = None):
        if rate_per_s <= 0:
            raise ValidationError("arrival rate must be positive")
        self.application = application
        self.rate_per_s = rate_per_s
        self.rng = rng
        self.source_component = source_component
        self._counter = itertools.count()

    def until(self, horizon_s: float) -> Iterator[ArrivalEvent]:
        """Yield arrival events with times strictly below *horizon_s*."""
        t = 0.0
        while True:
            t += self.rng.expovariate(self.rate_per_s)
            if t >= horizon_s:
                return
            instance = _instantiate(self.application, next(self._counter))
            yield ArrivalEvent(t, instance, self.source_component)


def _instantiate(app: Application, index: int) -> Application:
    """Clone *app* under an instance-specific name.

    A shallow copy: the task DAG is immutable per run, so every clone
    shares it, and the topological order once it is known.
    """
    clone = copy.copy(app)
    clone.name = f"{app.name}#{index}"
    return clone
