"""The MIRTO Agent: API daemon, auth, TOSCA validation, negotiation.

Reproduces Fig. 3: a MIRTO agent is a (web-)service whose REST-like API
accepts orchestration requests carrying a TOSCA object model. Requests
pass the Authentication Module, then the TOSCA Validation Processor,
then reach the MIRTO Manager. Agents at different layers/components
"communicate with each other to negotiate the usage of resources":
an agent that cannot place a request locally forwards it to a peer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import (
    OrchestrationError,
    SecurityError,
    ValidationError,
)
from repro.mirto.manager import DeploymentOutcome, MirtoManager
from repro.mirto.placement import STRATEGY_NAMES
from repro.security.auth import AuthModule
from repro.tosca.csar import CsarArchive
from repro.tosca.parser import parse_service_template
from repro.tosca.validator import ToscaValidator


@dataclass
class ApiRequest:
    """One call into the agent's REST-like API."""

    method: str  # "GET" | "POST"
    path: str  # e.g. "/deployments"
    token: bytes = b""
    body: Any = None


@dataclass
class ApiResponse:
    """The daemon's answer."""

    status: int
    body: Any = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclass
class NegotiationRecord:
    """One agent-to-agent resource negotiation."""

    service: str
    from_agent: str
    to_agent: str
    accepted: bool
    reason: str = ""


class MirtoAgent:
    """One agent instance, owning a layer/component scope."""

    def __init__(self, name: str, layer: str, manager: MirtoManager,
                 auth_secret: bytes = b"mirto-agent-secret-key"):
        self.name = name
        self.layer = layer
        self.manager = manager
        self.auth = AuthModule(
            auth_secret,
            now_fn=lambda: manager.infrastructure.sim.now)
        self.validator = ToscaValidator()
        self.peers: list["MirtoAgent"] = []
        self.negotiations: list[NegotiationRecord] = []
        self.requests_served = 0

    # -- peering --------------------------------------------------------------

    def peer_with(self, other: "MirtoAgent") -> None:
        """Symmetric peering for resource negotiation."""
        if other is self:
            raise OrchestrationError("an agent cannot peer with itself")
        if other not in self.peers:
            self.peers.append(other)
        if self not in other.peers:
            other.peers.append(self)

    # -- the API daemon ------------------------------------------------------------

    def handle(self, request: ApiRequest) -> ApiResponse:
        """Route one API request through auth -> validation -> manager."""
        self.requests_served += 1
        try:
            user = self.auth.authenticate(request.token)
        except SecurityError as exc:
            return ApiResponse(401, {"error": str(exc)})
        method = request.method
        route = (method.upper() if isinstance(method, str) else method,
                 request.path)
        try:
            if route == ("POST", "/deployments"):
                self.auth.authorize(user, "deploy")
                return self._post_deployment(request.body)
            if route == ("GET", "/status"):
                self.auth.authorize(user, "observe")
                return ApiResponse(200, self.status())
            if route == ("GET", "/deployments"):
                self.auth.authorize(user, "observe")
                return ApiResponse(200, [
                    {"service": d.service_name,
                     "strategy": d.placement.strategy,
                     "makespan_s": d.report.makespan_s,
                     "deadline_met": d.deadline_met}
                    for d in self.manager.workload.deployments
                ])
            return ApiResponse(404, {"error": f"no route {route}"})
        except SecurityError as exc:
            return ApiResponse(403, {"error": str(exc)})
        except ValidationError as exc:
            return ApiResponse(422, {"error": str(exc),
                                     "problems": exc.problems})
        except OrchestrationError as exc:
            return ApiResponse(409, {"error": str(exc)})

    def _post_deployment(self, body: Any) -> ApiResponse:
        if isinstance(body, dict) and "csar" in body:
            service = CsarArchive.from_bytes(body["csar"]).service
        elif isinstance(body, dict) and "tosca" in body:
            service = parse_service_template(body["tosca"])
        else:
            raise ValidationError(
                "deployment body needs a 'tosca' document or 'csar' bytes")
        strategy = body.get("strategy")
        if strategy is not None and strategy not in STRATEGY_NAMES:
            raise ValidationError(
                f"unknown placement strategy {strategy!r}",
                [f"strategy must be one of {STRATEGY_NAMES}"])
        self.validator.validate(service)
        outcome = self.deploy_or_negotiate(service, strategy)
        return ApiResponse(201, {
            "service": outcome.service_name,
            "placement": outcome.placement.assignment,
            "strategy": outcome.placement.strategy,
            "makespan_s": outcome.report.makespan_s,
            "energy_j": outcome.report.energy_j,
            "security_level": outcome.security_level,
            "deadline_met": outcome.deadline_met,
        })

    # -- negotiation -------------------------------------------------------------

    def deploy_or_negotiate(self, service, strategy=None
                            ) -> DeploymentOutcome:
        """Try locally; on placement failure, negotiate with peers."""
        try:
            return self.manager.deploy(service, strategy)
        except OrchestrationError as local_error:
            for peer in self.peers:
                try:
                    outcome = peer.manager.deploy(service, strategy)
                except OrchestrationError as peer_error:
                    self.negotiations.append(NegotiationRecord(
                        service.name, self.name, peer.name,
                        accepted=False, reason=str(peer_error)))
                    continue
                self.negotiations.append(NegotiationRecord(
                    service.name, self.name, peer.name, accepted=True))
                return outcome
            raise OrchestrationError(
                f"agent {self.name}: no local or peer capacity for "
                f"{service.name!r}: {local_error}") from local_error

    # -- introspection -----------------------------------------------------------

    def status(self) -> dict:
        infra = self.manager.infrastructure
        return {
            "agent": self.name,
            "layer": self.layer,
            "devices": len(infra.devices),
            "deployments": len(self.manager.workload.deployments),
            "negotiations": len(self.negotiations),
            "peers": [p.name for p in self.peers],
        }
