"""The MIRTO Cognitive Engine facade: everything of Fig. 3 wired up.

Builds the full runtime stack over a continuum infrastructure — shared
KB (Raft), Resource Registry, per-layer MIRTO agents with peering, the
MAPE-K loop — and exposes the two entry points the benchmarks and
examples use: :meth:`CognitiveEngine.deploy` (full API path: token,
TOSCA validation, manager, execution) and :meth:`CognitiveEngine.mape_iterate`.
"""

from __future__ import annotations

from repro.continuum.devices import Layer
from repro.continuum.infrastructure import (
    Infrastructure,
    build_reference_infrastructure,
)
from repro.kb.registry import ComponentRecord, ResourceRegistry
from repro.runtime import RuntimeContext
from repro.kb.store import KnowledgeBase
from repro.mirto.agent import ApiRequest, ApiResponse, MirtoAgent
from repro.mirto.manager import MirtoManager
from repro.mirto.mape import MapeLoop
from repro.tosca.parser import dump_service_template
from repro.tosca.model import ServiceTemplate


class CognitiveEngine:
    """One fully wired MIRTO deployment over a simulated continuum.

    The engine runs on the infrastructure's
    :class:`~repro.runtime.RuntimeContext` (without an infrastructure
    it builds the reference continuum on a fresh context seeded from
    *seed*), so MAPE transitions, placement decisions and KB consensus
    all share one clock, one bus and one seed tree with the rest of
    the system.
    """

    def __init__(self, seed: int = 0,
                 infrastructure: Infrastructure | None = None):
        if infrastructure is None:
            infrastructure = build_reference_infrastructure(
                RuntimeContext(seed=seed))
        self.infrastructure = infrastructure
        self.ctx = infrastructure.ctx
        self.sim = self.ctx.sim
        self.kb = KnowledgeBase(seed=seed, ctx=self.ctx)
        self.registry = ResourceRegistry(self.kb)
        self._register_components()
        self.manager = MirtoManager(self.infrastructure, self.registry,
                                    seed=seed)
        # One agent per layer, all peered (the Fig. 2 agent mesh).
        self.agents: dict[str, MirtoAgent] = {}
        for layer in Layer:
            agent = MirtoAgent(f"mirto-{layer.value}", layer.value,
                               self.manager)
            agent.auth.register_user("operator", ["operator"])
            self.agents[layer.value] = agent
        agents = list(self.agents.values())
        for i, a in enumerate(agents):
            for b in agents[i + 1:]:
                a.peer_with(b)
        self.mape = MapeLoop(self.infrastructure, self.registry,
                             self.manager)

    def _register_components(self) -> None:
        for device in self.infrastructure.devices.values():
            self.registry.register(ComponentRecord(
                name=device.name,
                kind=device.spec.kind.value,
                layer=device.spec.layer.value,
                max_security_level=device.spec.max_security_level,
                capabilities={
                    "cores": device.spec.cores,
                    "gops": device.spec.gops,
                    "kernels": sorted(k.value for k in
                                      device.spec.accel_kernels),
                },
            ))

    # -- API entry points ----------------------------------------------------------

    def agent(self, layer: str = "edge") -> MirtoAgent:
        return self.agents[layer]

    def operator_token(self, layer: str = "edge") -> bytes:
        return self.agents[layer].auth.issue_token("operator",
                                                   ttl_s=10_000.0)

    def deploy(self, service: ServiceTemplate, strategy: str | None = None,
               layer: str = "edge") -> ApiResponse:
        """Full Fig. 3 path: API daemon -> auth -> validation -> manager."""
        agent = self.agents[layer]
        request = ApiRequest(
            method="POST",
            path="/deployments",
            token=self.operator_token(layer),
            body={"tosca": dump_service_template(service),
                  "strategy": strategy},
        )
        return agent.handle(request)

    def mape_iterate(self, count: int = 1):
        """Run MAPE-K cycles; returns the records."""
        return [self.mape.iterate() for _ in range(count)]
