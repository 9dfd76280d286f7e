"""MIRTO Cognitive Engine (MYRTUS technical pillar 2).

High-level continuum orchestration: the MAPE-K loop
(:mod:`repro.mirto.mape`), the MIRTO Manager with its four drivers
(:mod:`repro.mirto.manager`), cognitive strategies — swarm placement
(:mod:`repro.mirto.swarm`, :mod:`repro.mirto.placement`), federated and
reinforcement learning (:mod:`repro.mirto.learning`) — the agent with
its API daemon (:mod:`repro.mirto.agent`), KB/deployment proxies
(:mod:`repro.mirto.proxies`) and the wired-up engine facade
(:mod:`repro.mirto.engine`).
"""

from repro.mirto.swarm import (
    AntColonyOptimizer,
    FireflyOptimizer,
    OptimizationTrace,
    ParticleSwarmOptimizer,
)
from repro.mirto.distributed import (
    DistributedLoadBalancer,
    GossipConsensus,
)
from repro.mirto.placement import (
    ExecutionReport,
    FireflyPlacement,
    GreedyPlacement,
    Placement,
    PlacementConstraints,
    PlacementRequest,
    PlacementResult,
    PlacementStrategy,
    PsoPlacement,
    AcoPlacement,
    RandomPlacement,
    RoundRobinPlacement,
    SolveBudget,
    SolveSession,
    SolveStats,
    eligible_devices,
    estimate_placement_kpis,
    execute_placement,
    make_strategy,
    placement_cost,
)
from repro.mirto.exact import ExactPlacement
from repro.mirto.portfolio import PortfolioPlacement
from repro.mirto.learning import (
    FederatedClient,
    FederatedTrainer,
    LinearModel,
    QLearningAgent,
    make_operating_point_dataset,
)
from repro.mirto.manager import (
    DeploymentOutcome,
    MirtoManager,
    NetworkManager,
    NodeManager,
    PrivacySecurityManager,
    WorkloadManager,
    service_to_application,
)
from repro.mirto.mape import LoopRecord, MapeLoop, PlannedAction, Trigger
from repro.mirto.agent import (
    ApiRequest,
    ApiResponse,
    MirtoAgent,
    NegotiationRecord,
)
from repro.mirto.proxies import (
    DeploymentProxy,
    KbProxy,
    container_to_pod_spec,
)
from repro.mirto.engine import CognitiveEngine
from repro.mirto.continuous import (
    ContinuousDeployment,
    MigrationPolicy,
    PeriodRecord,
    run_with_interference,
)
from repro.mirto.swarm_rules import (
    DEFAULT_RULE,
    RuleBasedPlacement,
    evolve_placement_rule,
)

__all__ = [
    "AntColonyOptimizer", "FireflyOptimizer", "OptimizationTrace",
    "ParticleSwarmOptimizer", "DistributedLoadBalancer",
    "GossipConsensus",
    "ExecutionReport", "FireflyPlacement", "GreedyPlacement",
    "Placement", "PlacementConstraints", "PlacementRequest",
    "PlacementResult", "PlacementStrategy", "PsoPlacement",
    "AcoPlacement", "RandomPlacement", "RoundRobinPlacement",
    "SolveBudget", "SolveSession", "SolveStats", "eligible_devices",
    "estimate_placement_kpis", "execute_placement", "make_strategy",
    "placement_cost", "ExactPlacement", "PortfolioPlacement",
    "FederatedClient", "FederatedTrainer", "LinearModel",
    "QLearningAgent", "make_operating_point_dataset",
    "DeploymentOutcome", "MirtoManager", "NetworkManager", "NodeManager",
    "PrivacySecurityManager", "WorkloadManager", "service_to_application",
    "LoopRecord", "MapeLoop", "PlannedAction", "Trigger",
    "ApiRequest", "ApiResponse", "MirtoAgent", "NegotiationRecord",
    "DeploymentProxy", "KbProxy", "container_to_pod_spec",
    "CognitiveEngine",
    "ContinuousDeployment", "MigrationPolicy", "PeriodRecord",
    "run_with_interference", "DEFAULT_RULE", "RuleBasedPlacement",
    "evolve_placement_rule",
]
