"""MIRTO proxies: interface points to the KB and to deployment (Fig. 3).

The **KB proxy** gives the agent a namespaced window onto the shared
knowledge base. The **deployment proxy** "embodies the MYRTUS continuum
life-cycle controlling strategy based on LIQO": it translates a placed
TOSCA service into pods on the kube federation, reconciles until
everything runs (possibly offloaded through LIQO virtual nodes), and
rolls the whole service back if any piece cannot be placed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import NotFoundError, OrchestrationError
from repro.kb.store import KnowledgeBase, Watch
from repro.kube.liqo import ContinuumFederation
from repro.kube.objects import PodPhase, PodSpec, ResourceRequest
from repro.tosca.model import ServiceTemplate


class KbProxy:
    """Namespaced KB access for one agent."""

    def __init__(self, kb: KnowledgeBase, namespace: str):
        if not namespace or "/" in namespace:
            raise OrchestrationError(
                f"bad KB namespace {namespace!r}")
        self.kb = kb
        self.namespace = namespace

    def _key(self, key: str) -> str:
        return f"{self.namespace}/{key}"

    def put(self, key: str, value: Any) -> None:
        self.kb.put(self._key(key), value)

    def get(self, key: str) -> Any:
        return self.kb.get(self._key(key))

    def delete(self, key: str) -> None:
        self.kb.delete(self._key(key))

    def range(self, prefix: str = "") -> dict[str, Any]:
        full = self.kb.range(self._key(prefix))
        trim = len(self.namespace) + 1
        return {key[trim:]: value for key, value in full.items()}

    def watch(self, prefix: str, handler) -> Watch:
        return self.kb.watch(self._key(prefix), handler)


@dataclass
class DeployedService:
    """Bookkeeping for one service the proxy pushed to kube."""

    service_name: str
    cluster: str
    pod_uids: list[str] = field(default_factory=list)


def container_to_pod_spec(service: ServiceTemplate,
                          template_name: str) -> PodSpec:
    """TOSCA container template -> kube pod spec."""
    template = service.node_templates[template_name]
    props = template.properties
    return PodSpec(
        name=f"{service.name}-{template_name}",
        request=ResourceRequest(
            cpu_millicores=int(props.get("cpu_millicores", 100)),
            memory_bytes=int(props.get("memory_bytes", 64 * 1024**2)),
        ),
        labels={"app": service.name, "component": template_name},
        min_security_level=service.security_floor(template_name),
    )


class DeploymentProxy:
    """LIQO-backed execution of deployment decisions, with rollback."""

    def __init__(self, federation: ContinuumFederation,
                 entry_cluster: str):
        if entry_cluster not in federation.clusters:
            raise NotFoundError(f"unknown cluster {entry_cluster!r}")
        self.federation = federation
        self.entry_cluster = entry_cluster
        self.deployed: dict[str, DeployedService] = {}

    def deploy_service(self, service: ServiceTemplate,
                       reconcile_rounds: int = 4) -> DeployedService:
        """Create pods for every container; all-or-nothing semantics."""
        if service.name in self.deployed:
            raise OrchestrationError(
                f"service {service.name!r} already deployed")
        cluster = self.federation.clusters[self.entry_cluster]
        record = DeployedService(service_name=service.name,
                                 cluster=self.entry_cluster)
        try:
            for template in service.containers():
                pod = cluster.create_pod(
                    container_to_pod_spec(service, template.name))
                record.pod_uids.append(pod.uid)
            self.federation.reconcile_all(rounds=reconcile_rounds)
            pending = [
                cluster.pods[uid].name for uid in record.pod_uids
                if cluster.pods[uid].phase is PodPhase.PENDING
            ]
            if pending:
                raise OrchestrationError(
                    f"unplaceable components: {pending}")
        except OrchestrationError:
            self._rollback(record)
            raise
        self.deployed[service.name] = record
        return record

    def _rollback(self, record: DeployedService) -> None:
        cluster = self.federation.clusters[record.cluster]
        for uid in record.pod_uids:
            if uid in cluster.pods:
                cluster.delete_pod(uid)
        for peering in self.federation.peerings:
            peering.reflect_status()

    def undeploy_service(self, service_name: str) -> None:
        """Remove a deployed service's pods (local and offloaded)."""
        if service_name not in self.deployed:
            raise NotFoundError(f"service {service_name!r} not deployed")
        record = self.deployed.pop(service_name)
        self._rollback(record)

    def service_phases(self, service_name: str) -> dict[str, str]:
        """Phase per component pod."""
        if service_name not in self.deployed:
            raise NotFoundError(f"service {service_name!r} not deployed")
        record = self.deployed[service_name]
        cluster = self.federation.clusters[record.cluster]
        return {
            cluster.pods[uid].name: cluster.pods[uid].phase.value
            for uid in record.pod_uids if uid in cluster.pods
        }
