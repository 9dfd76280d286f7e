"""Kubernetes-style API objects for the low-level orchestrator.

The paper uses Kubernetes as the low-level orchestrator on every layer
(Table I, Resource management row). This module defines the minimal
object model the reproduction needs: nodes with capacities/labels/taints
and pods with resource requests, selectors and security requirements.
Quantities use integer millicores and bytes, like real Kubernetes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.core.errors import ValidationError
from repro.core.levels import SECURITY_RANK


class PodPhase(str, Enum):
    PENDING = "Pending"
    SCHEDULED = "Scheduled"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"


@dataclass(frozen=True)
class ResourceRequest:
    """CPU (millicores) and memory (bytes) a pod asks for."""

    cpu_millicores: int
    memory_bytes: int

    def __post_init__(self):
        if self.cpu_millicores < 0 or self.memory_bytes < 0:
            raise ValidationError("resource requests must be non-negative")

    def __add__(self, other: "ResourceRequest") -> "ResourceRequest":
        return ResourceRequest(self.cpu_millicores + other.cpu_millicores,
                               self.memory_bytes + other.memory_bytes)

    def fits_within(self, capacity: "ResourceRequest") -> bool:
        return (self.cpu_millicores <= capacity.cpu_millicores
                and self.memory_bytes <= capacity.memory_bytes)


@dataclass(frozen=True)
class Taint:
    """Repels pods lacking a matching toleration."""

    key: str
    value: str
    effect: str = "NoSchedule"


@dataclass
class Node:
    """A schedulable member of a cluster (physical or LIQO-virtual)."""

    name: str
    capacity: ResourceRequest
    labels: dict[str, str] = field(default_factory=dict)
    taints: list[Taint] = field(default_factory=list)
    ready: bool = True
    virtual: bool = False  # True for LIQO-reflected remote clusters
    remote_cluster: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("node name must be non-empty")


@dataclass
class PodSpec:
    """Desired state of a pod."""

    name: str
    request: ResourceRequest
    labels: dict[str, str] = field(default_factory=dict)
    node_selector: dict[str, str] = field(default_factory=dict)
    tolerations: list[Taint] = field(default_factory=list)
    min_security_level: str = "low"
    duration_s: float | None = None  # None = long-running service

    def tolerates(self, taint: Taint) -> bool:
        return any(t.key == taint.key and t.value == taint.value
                   for t in self.tolerations)


@dataclass
class Pod:
    """Observed state of a pod instance."""

    spec: PodSpec
    uid: str
    phase: PodPhase = PodPhase.PENDING
    node_name: str | None = None
    restarts: int = 0
    messages: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.spec.name

    def record(self, message: str) -> None:
        self.messages.append(message)


@dataclass
class Deployment:
    """Keeps *replicas* copies of a pod template alive."""

    name: str
    template: PodSpec
    replicas: int
    _counter: itertools.count = field(default_factory=itertools.count)

    def __post_init__(self):
        if self.replicas < 0:
            raise ValidationError("replica count must be non-negative")

    def next_pod_name(self) -> str:
        return f"{self.name}-{next(self._counter)}"


def security_rank(level: str) -> int:
    """Rank of a node or pod security label; unknown labels rank as
    ``low``."""
    return SECURITY_RANK.get(level, 0)
