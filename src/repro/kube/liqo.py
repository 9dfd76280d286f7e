"""LIQO-style multi-cluster peering and transparent offloading.

The paper's continuum life-cycle control is "based on LIQO ... allows for
clustering and resource virtualization ... the interface among MIRTO
agents and Kubernetes-based orchestration achieving seamless
virtualization of the underlying infrastructure" (Sec. IV). This module
reproduces the LIQO abstraction MIRTO relies on: a peering reflects a
remote cluster into the local one as a single *virtual node* whose
capacity mirrors the remote free capacity; pods bound to the virtual
node are transparently re-created in the remote cluster, and their
status reflects back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import OrchestrationError, ValidationError
from repro.kube.cluster import KubeCluster
from repro.kube.objects import (
    Node,
    Pod,
    PodPhase,
    PodSpec,
    ResourceRequest,
    security_rank,
)


@dataclass
class OffloadedPod:
    """Bookkeeping for one pod forwarded across a peering."""

    local_uid: str
    remote_uid: str
    peering_name: str


class Peering:
    """A unidirectional LIQO peering: *consumer* offloads to *provider*."""

    def __init__(self, consumer: KubeCluster, provider: KubeCluster,
                 name: str | None = None):
        if consumer is provider:
            raise ValidationError("a cluster cannot peer with itself")
        self.consumer = consumer
        self.provider = provider
        self.name = name or f"liqo-{provider.name}"
        self.virtual_node_name = self.name
        self.offloaded: list[OffloadedPod] = []
        self._install()

    def _install(self) -> None:
        if self.virtual_node_name in self.consumer.nodes:
            raise ValidationError(
                f"peering {self.name!r} already installed")
        virtual = Node(
            name=self.virtual_node_name,
            capacity=self._remote_free_capacity(),
            labels={"liqo.io/type": "virtual-node",
                    "security-level": self._remote_security_floor()},
            virtual=True,
            remote_cluster=self.provider.name,
        )
        self.consumer.add_node(virtual)
        self.consumer.offload_hooks.append(self._on_bind)

    def _remote_free_capacity(self) -> ResourceRequest:
        """Aggregate free capacity of all ready remote physical nodes."""
        cpu = 0
        mem = 0
        for node in self.provider.nodes.values():
            if node.ready and not node.virtual:
                free = self.provider.node_free(node)
                cpu += free.cpu_millicores
                mem += free.memory_bytes
        return ResourceRequest(cpu, mem)

    def _remote_security_floor(self) -> str:
        """The virtual node advertises the weakest remote security level,
        so a pod scheduled on it is safe on any remote node the provider
        may pick."""
        levels = [node.labels.get("security-level", "low")
                  for node in self.provider.nodes.values()
                  if node.ready and not node.virtual]
        if not levels:
            return "low"
        return min(levels, key=security_rank)

    def refresh(self) -> None:
        """Re-advertise the remote free capacity on the virtual node."""
        node = self.consumer.node(self.virtual_node_name)
        node.capacity = self._remote_free_capacity()
        node.labels["security-level"] = self._remote_security_floor()

    # -- offloading -----------------------------------------------------------------

    def _on_bind(self, pod: Pod, node: Node) -> None:
        if node.name != self.virtual_node_name:
            return
        remote_spec = PodSpec(
            name=f"{self.consumer.name}-{pod.spec.name}",
            request=pod.spec.request,
            labels={**pod.spec.labels,
                    "liqo.io/origin": self.consumer.name},
            node_selector=dict(pod.spec.node_selector),
            tolerations=list(pod.spec.tolerations),
            min_security_level=pod.spec.min_security_level,
        )
        remote_pod = self.provider.create_pod(remote_spec)
        self.offloaded.append(OffloadedPod(
            local_uid=pod.uid,
            remote_uid=remote_pod.uid,
            peering_name=self.name,
        ))
        pod.record(f"offloaded to cluster {self.provider.name}")

    def reflect_status(self) -> None:
        """Propagate remote pod phases back to the local shadow pods."""
        for entry in list(self.offloaded):
            local = self.consumer.pods.get(entry.local_uid)
            remote = self.provider.pods.get(entry.remote_uid)
            if local is None:
                # Local pod deleted: clean up the remote copy.
                if remote is not None:
                    self.provider.delete_pod(remote.uid)
                self.offloaded.remove(entry)
                continue
            if remote is None:
                continue
            if remote.phase in (PodPhase.RUNNING, PodPhase.SUCCEEDED,
                                PodPhase.FAILED):
                local.phase = remote.phase

    def teardown(self) -> None:
        """Remove the peering: virtual node goes away, offloads return."""
        for entry in self.offloaded:
            remote = self.provider.pods.get(entry.remote_uid)
            if remote is not None:
                self.provider.delete_pod(remote.uid)
        self.offloaded.clear()
        if self.virtual_node_name in self.consumer.nodes:
            self.consumer.remove_node(self.virtual_node_name)
        if self._on_bind in self.consumer.offload_hooks:
            self.consumer.offload_hooks.remove(self._on_bind)


class ContinuumFederation:
    """All clusters of a MYRTUS deployment plus their peerings.

    Provides the "composable layered continuum": one cluster per
    layer/site, edge clusters peer upwards to fog, fog peers to cloud,
    yielding the vertical offload paths of Fig. 2.
    """

    def __init__(self):
        self.clusters: dict[str, KubeCluster] = {}
        self.peerings: list[Peering] = []

    def add_cluster(self, cluster: KubeCluster) -> KubeCluster:
        if cluster.name in self.clusters:
            raise ValidationError(f"duplicate cluster {cluster.name!r}")
        self.clusters[cluster.name] = cluster
        return cluster

    def peer(self, consumer: str, provider: str) -> Peering:
        """Create a peering between two registered clusters."""
        for name in (consumer, provider):
            if name not in self.clusters:
                raise OrchestrationError(f"unknown cluster {name!r}")
        peering = Peering(self.clusters[consumer], self.clusters[provider])
        self.peerings.append(peering)
        return peering

    def reconcile_all(self, rounds: int = 3) -> None:
        """Refresh peerings and reconcile every cluster a few times so
        offloaded pods get scheduled remotely and statuses reflect back."""
        for _ in range(rounds):
            for peering in self.peerings:
                peering.refresh()
            for cluster in self.clusters.values():
                cluster.reconcile()
            for peering in self.peerings:
                peering.reflect_status()
