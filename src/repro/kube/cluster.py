"""The cluster control plane: API objects, scheduling, reconciliation.

A :class:`KubeCluster` is one Kubernetes-like control plane — the paper
runs one per layer/site ("all layers support Kubernetes as low-level
orchestrator"). It stores nodes and pods, schedules pending pods with
the filter-and-score :class:`~repro.kube.scheduler.Scheduler`, runs a
deployment controller that maintains replica counts, and evicts pods
from failed nodes. LIQO peering (:mod:`repro.kube.liqo`) reflects other
clusters into this one as virtual nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.errors import (
    ConfigurationError,
    NotFoundError,
    OrchestrationError,
    ValidationError,
)
from repro.core.ids import IdGenerator
from repro.runtime import RuntimeContext
from repro.kube.objects import (
    Deployment,
    Node,
    Pod,
    PodPhase,
    PodSpec,
    ResourceRequest,
)
from repro.kube.scheduler import Scheduler


@dataclass
class ClusterEvent:
    """A control-plane event (scheduling decision, eviction, ...)."""

    kind: str
    object_name: str
    message: str
    time_s: float = 0.0


class KubeCluster:
    """One Kubernetes-style cluster.

    Inject a :class:`~repro.runtime.RuntimeContext` so pod/bind/evict
    events land on the same timeline as device faults and MAPE
    decisions; without one, a private context is created (cluster
    events then live on their own timeline).
    """

    def __init__(self, name: str, scheduler: Scheduler | None = None, *,
                 ctx: RuntimeContext | None = None):
        self.name = name
        self.scheduler = scheduler or Scheduler()
        self.ctx = ctx or RuntimeContext()
        # Per-node circuit breakers on the bind path; armed by
        # enable_bind_breakers().
        self._bind_breakers: dict | None = None
        self._breaker_params: tuple[int, float] | None = None
        self.nodes: dict[str, Node] = {}
        self.pods: dict[str, Pod] = {}
        self.deployments: dict[str, Deployment] = {}
        self.events: list[ClusterEvent] = []
        self._ids = IdGenerator()
        # Hook LIQO uses to forward pods bound to virtual nodes.
        self.offload_hooks: list[Callable[[Pod, Node], None]] = []
        metrics = self.ctx.metrics
        self._reconciles = metrics.counter(
            "kube.cluster.reconciles", "control-loop passes",
            label_key="cluster")
        self._pods_scheduled = metrics.counter(
            "kube.cluster.pods_scheduled", "pods bound to nodes",
            label_key="cluster")
        self._pod_evictions = metrics.counter(
            "kube.cluster.evictions", "pods evicted", label_key="cluster")

    def _span(self, name: str, **attrs):
        """A kube-layer span."""
        return self.ctx.tracer.start_span(
            name, layer="kube", cluster=self.name, **attrs)

    # -- node lifecycle -----------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValidationError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        self._emit("NodeAdded", node.name, f"capacity "
                   f"{node.capacity.cpu_millicores}m")
        return node

    def remove_node(self, name: str) -> None:
        """Remove a node, evicting everything scheduled on it."""
        if name not in self.nodes:
            raise NotFoundError(f"unknown node {name!r}")
        del self.nodes[name]
        for pod in self.pods.values():
            if pod.node_name == name and pod.phase in (
                    PodPhase.SCHEDULED, PodPhase.RUNNING):
                self._evict(pod, f"node {name} removed")

    def set_node_ready(self, name: str, ready: bool) -> None:
        """Mark a node (un)ready; unready nodes get their pods evicted."""
        node = self.node(name)
        node.ready = ready
        if not ready:
            for pod in self.pods.values():
                if pod.node_name == name and pod.phase in (
                        PodPhase.SCHEDULED, PodPhase.RUNNING):
                    self._evict(pod, f"node {name} not ready")

    def node(self, name: str) -> Node:
        if name not in self.nodes:
            raise NotFoundError(f"unknown node {name!r}")
        return self.nodes[name]

    def node_free(self, node: Node) -> ResourceRequest:
        """Capacity minus requests of pods placed on the node."""
        used = ResourceRequest(0, 0)
        for pod in self.pods.values():
            if pod.node_name == node.name and pod.phase in (
                    PodPhase.SCHEDULED, PodPhase.RUNNING):
                used = used + pod.spec.request
        return ResourceRequest(
            node.capacity.cpu_millicores - used.cpu_millicores,
            node.capacity.memory_bytes - used.memory_bytes,
        )

    # -- pod lifecycle --------------------------------------------------------------

    def create_pod(self, spec: PodSpec) -> Pod:
        """Submit a pod; it stays Pending until the next reconcile."""
        pod = Pod(spec=spec, uid=self._ids.next("pod"))
        if any(p.spec.name == spec.name and p.phase in (
                PodPhase.PENDING, PodPhase.SCHEDULED, PodPhase.RUNNING)
               for p in self.pods.values()):
            raise ValidationError(f"active pod named {spec.name!r} exists")
        self.pods[pod.uid] = pod
        self._emit("PodCreated", spec.name, "queued for scheduling")
        return pod

    def delete_pod(self, uid: str) -> None:
        if uid not in self.pods:
            raise NotFoundError(f"unknown pod uid {uid!r}")
        pod = self.pods.pop(uid)
        self._emit("PodDeleted", pod.name, f"was {pod.phase.value}")

    def pod_by_name(self, name: str) -> Pod:
        """Most recent active pod with the given spec name."""
        candidates = [p for p in self.pods.values() if p.spec.name == name]
        if not candidates:
            raise NotFoundError(f"no pod named {name!r}")
        return candidates[-1]

    def mark_running(self, uid: str) -> None:
        """Kubelet acknowledgement: scheduled pod started its containers."""
        pod = self.pods[uid]
        if pod.phase is not PodPhase.SCHEDULED:
            raise OrchestrationError(
                f"pod {pod.name} cannot run from phase {pod.phase.value}")
        pod.phase = PodPhase.RUNNING
        if self._bind_breakers is not None and pod.node_name is not None:
            breaker = self._bind_breakers.get(pod.node_name)
            if breaker is not None:
                breaker.record_success()

    def mark_finished(self, uid: str, succeeded: bool = True) -> None:
        """Terminal transition for batch pods."""
        pod = self.pods[uid]
        pod.phase = PodPhase.SUCCEEDED if succeeded else PodPhase.FAILED

    # -- bind-path circuit breakers -----------------------------------------------

    def enable_bind_breakers(self, failure_threshold: int = 3,
                             recovery_time_s: float = 30.0) -> None:
        """Arm per-node circuit breakers on the bind/evict path.

        Every eviction records a failure against the pod's node; a node
        whose breaker trips is excluded from scheduling until the
        recovery window elapses, then probed half-open — the first pod
        that reaches RUNNING on it closes the breaker again.
        """
        self._bind_breakers = {}
        self._breaker_params = (failure_threshold, recovery_time_s)

    def bind_breaker(self, node_name: str):
        """The (lazily created) circuit breaker guarding *node_name*."""
        if self._bind_breakers is None:
            raise ConfigurationError(
                "bind breakers not enabled; call enable_bind_breakers()")
        breaker = self._bind_breakers.get(node_name)
        if breaker is None:
            # Imported here: repro.chaos builds on kube, not vice versa.
            from repro.chaos.policies import CircuitBreaker
            threshold, recovery = self._breaker_params
            breaker = CircuitBreaker(
                ctx=self.ctx, failure_threshold=threshold,
                recovery_time_s=recovery,
                name=f"kube.{self.name}.{node_name}")
            self._bind_breakers[node_name] = breaker
        return breaker

    def _breaker_allows(self, node_name: str) -> bool:
        if self._bind_breakers is None:
            return True
        breaker = self._bind_breakers.get(node_name)
        return breaker is None or breaker.allow()

    def _evict(self, pod: Pod, reason: str) -> None:
        if self._bind_breakers is not None and pod.node_name is not None:
            self.bind_breaker(pod.node_name).record_failure()
        with self._span("kube.evict", pod=pod.spec.name, reason=reason):
            pod.phase = PodPhase.PENDING
            pod.node_name = None
            pod.restarts += 1
            pod.record(f"evicted: {reason}")
            self._emit("PodEvicted", pod.name, reason)
        self._pod_evictions.inc(label=self.name)

    # -- deployments -------------------------------------------------------------------

    def create_deployment(self, deployment: Deployment) -> Deployment:
        if deployment.name in self.deployments:
            raise ValidationError(
                f"duplicate deployment {deployment.name!r}")
        self.deployments[deployment.name] = deployment
        return deployment

    def scale_deployment(self, name: str, replicas: int) -> None:
        if name not in self.deployments:
            raise NotFoundError(f"unknown deployment {name!r}")
        if replicas < 0:
            raise ValidationError("replica count must be non-negative")
        self.deployments[name].replicas = replicas

    def _deployment_pods(self, name: str) -> list[Pod]:
        return [p for p in self.pods.values()
                if p.spec.labels.get("deployment") == name
                and p.phase in (PodPhase.PENDING, PodPhase.SCHEDULED,
                                PodPhase.RUNNING)]

    def _reconcile_deployments(self) -> None:
        for deployment in self.deployments.values():
            alive = self._deployment_pods(deployment.name)
            missing = deployment.replicas - len(alive)
            for _ in range(missing):
                spec = PodSpec(
                    name=deployment.next_pod_name(),
                    request=deployment.template.request,
                    labels={**deployment.template.labels,
                            "deployment": deployment.name},
                    node_selector=dict(deployment.template.node_selector),
                    tolerations=list(deployment.template.tolerations),
                    min_security_level=deployment.template
                    .min_security_level,
                )
                self.create_pod(spec)
            for pod in alive[deployment.replicas:] if missing < 0 else []:
                self.delete_pod(pod.uid)

    # -- reconciliation loop ------------------------------------------------------------

    def reconcile(self) -> int:
        """One control-loop pass; returns the number of pods scheduled."""
        with self._span("kube.reconcile"):
            self._reconcile_deployments()
            scheduled = 0
            for pod in list(self.pods.values()):
                if pod.phase is not PodPhase.PENDING:
                    continue
                with self._span("kube.schedule", pod=pod.spec.name):
                    candidates = list(self.nodes.values())
                    if self._bind_breakers:
                        candidates = [n for n in candidates
                                      if self._breaker_allows(n.name)]
                    node, result = self.scheduler.select(
                        pod.spec, candidates, self.node_free)
                    if node is None:
                        pod.record(f"unschedulable: {result.rejections}")
                        self._emit(
                            "FailedScheduling", pod.name,
                            "; ".join(f"{k}: {v}" for k, v in
                                      sorted(result.rejections.items())))
                        continue
                    with self._span("kube.bind", pod=pod.spec.name,
                                    node=node.name):
                        pod.node_name = node.name
                        pod.phase = PodPhase.SCHEDULED
                        pod.record(f"bound to {node.name}")
                        self._emit("Scheduled", pod.name,
                                   f"bound to {node.name}")
                    scheduled += 1
                    if node.virtual:
                        for hook in self.offload_hooks:
                            hook(pod, node)
        self._reconciles.inc(label=self.name)
        if scheduled:
            self._pods_scheduled.inc(scheduled, label=self.name)
        return scheduled

    # -- introspection -------------------------------------------------------------------

    def pods_in_phase(self, phase: PodPhase) -> list[Pod]:
        return [p for p in self.pods.values() if p.phase is phase]

    def utilization(self) -> dict[str, float]:
        """CPU allocation fraction per node."""
        out = {}
        for node in self.nodes.values():
            free = self.node_free(node)
            cap = max(1, node.capacity.cpu_millicores)
            out[node.name] = 1.0 - free.cpu_millicores / cap
        return out

    def watch_device_faults(self) -> None:
        """React to continuum fault events on the shared bus.

        A failed device whose name matches one of this cluster's nodes
        is marked unready (evicting its pods); a repair marks it ready
        again. This is the cross-layer glue that puts kube evictions on
        the same causal trace as the fault that caused them.
        """
        def _on_fault(topic: str, payload) -> None:
            device = (payload or {}).get("device")
            if device in self.nodes:
                self.set_node_ready(device, topic.endswith(".repair"))

        self.ctx.subscribe("continuum.fault.*", _on_fault)

    def _emit(self, kind: str, obj: str, message: str) -> None:
        event = ClusterEvent(kind=kind, object_name=obj, message=message,
                             time_s=self.ctx.now)
        self.events.append(event)
        self.ctx.bus.publish(f"kube.{self.name}.{kind}", event)
