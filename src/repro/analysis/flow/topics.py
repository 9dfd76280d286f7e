"""The topic schema registry: per-topic payload contracts.

Every topic the runtime spine publishes is declared here — the static
counterpart of the bus. A :class:`TopicContract` names the topic (or a
pattern with ``*`` for dynamic segments such as gateway or cluster
names), the payload shape, and how the topic is consumed:

- ``consumed="bus"`` — at least one in-process subscription must match
  (the topic exists to trigger reactions; losing its last subscriber
  is a dead topic).
- ``consumed="trace"`` — telemetry consumed from the recorded trace by
  tests, scorecards and the ``repro-obs``/``repro-chaos`` CLIs; zero
  in-process subscribers is the expected state.

``payload`` is one of ``"dict"`` (literal payload dicts are checked
key-for-key against ``required``/``optional``; handlers may only access
those keys), ``"open-dict"`` (``required`` keys checked, extras allowed
— used where payloads splat per-action detail), ``"opaque"`` (a typed
object such as an Alert or ClusterEvent; key checks skipped) or
``"none"`` (the topic is a pure signal).

A publish whose topic matches no contract is ``flow-undeclared-topic``:
adding a topic to the spine *means* declaring its contract here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.flow.patterns import TopicPattern, patterns_intersect


@dataclass(frozen=True)
class TopicContract:
    """Contract for one topic (or one dynamic-segment topic family)."""

    pattern: str
    payload: str = "dict"  # dict | open-dict | opaque | none
    required: frozenset[str] = frozenset()
    optional: frozenset[str] = frozenset()
    consumed: str = "trace"  # bus | trace
    description: str = ""

    @property
    def namespace(self) -> str:
        return self.pattern.split(".", 1)[0]

    def intersects(self, pattern: TopicPattern | str) -> bool:
        text = pattern.text if isinstance(pattern, TopicPattern) \
            else pattern
        return patterns_intersect(self.pattern, text)


def _c(pattern: str, payload: str = "dict", *, required: str = "",
       optional: str = "", consumed: str = "trace",
       description: str = "") -> TopicContract:
    split = (lambda s: frozenset(k for k in s.split() if k))
    return TopicContract(pattern=pattern, payload=payload,
                         required=split(required),
                         optional=split(optional), consumed=consumed,
                         description=description)


#: The whole-program topic vocabulary, one contract per topic family.
TOPIC_CONTRACTS: tuple[TopicContract, ...] = (
    # -- continuum: faults, infrastructure, gateways ------------------------
    _c("continuum.fault.fail", required="device time_s interrupted",
       consumed="bus",
       description="device failure; kube/MAPE/monitors react"),
    _c("continuum.fault.repair", required="device time_s",
       consumed="bus",
       description="device repair; readiness and series recover"),
    _c("continuum.infra.device-added",
       required="device kind layer",
       description="infrastructure grew by one device"),
    _c("continuum.gateway.*.delivered", payload="opaque",
       description="one hub-mediated delivery (DeliveryRecord)"),
    _c("continuum.gateway.*.dropped", required="dst topic",
       optional="reason",
       description="delivery lost: full buffer or brownout"),
    # -- kube control plane -------------------------------------------------
    _c("kube.*.*", payload="opaque",
       description="cluster events (ClusterEvent) keyed "
                   "kube.<cluster>.<kind>"),
    # -- MIRTO MAPE + orchestration ----------------------------------------
    _c("mirto.mape.sense", required="iteration components",
       description="Monitor phase completed"),
    _c("mirto.mape.analyze", required="iteration triggers",
       description="Analyze phase: trigger list"),
    _c("mirto.mape.plan", required="iteration actions",
       description="Plan phase: action list"),
    _c("mirto.mape.execute", required="iteration executed",
       description="Execute phase: actions applied"),
    _c("mirto.deploy.placed",
       required="service strategy assignment makespan_s energy_j "
                "deadline_met",
       description="a service was placed and deployed"),
    _c("mirto.continuous.migrated",
       required="application period assignment predicted_gain",
       description="continuous orchestration migrated a task set"),
    _c("mirto.placement.solve",
       required="service strategy cost optimal lower_bound provenance "
                "evaluations",
       description="anytime placement solve finished (deploy or Plan)"),
    _c("mirto.placement.incumbent", required="backend cost",
       description="a portfolio lane improved the shared incumbent"),
    # -- chaos campaigns + resilience policies ------------------------------
    _c("chaos.campaign.begin", required="campaign actions time_s",
       consumed="bus",
       description="campaign started; MAPE arms degradation"),
    _c("chaos.campaign.end", required="campaign status time_s",
       consumed="bus",
       description="campaign finished; MAPE may restore"),
    _c("chaos.action.*", payload="open-dict",
       required="campaign action index phase time_s",
       description="one campaign action phase (plus per-action "
                   "detail)"),
    _c("chaos.zone.fail", required="zone devices time_s",
       description="correlated zone outage injected"),
    _c("chaos.zone.repair", required="zone devices time_s",
       description="zone outage repaired"),
    _c("chaos.net.partition", required="cut time_s",
       description="network partition: links cut"),
    _c("chaos.net.heal", required="links time_s",
       description="partition healed"),
    _c("chaos.policy.retry", required="policy attempt delay_s error",
       description="retry policy backing off"),
    _c("chaos.policy.timeout", required="policy limit_s time_s",
       description="call abandoned at its time limit"),
    _c("chaos.policy.hedge", required="policy delay_s time_s",
       description="hedge launched a backup attempt"),
    _c("chaos.breaker.state", required="breaker state time_s",
       description="circuit breaker transition"),
    # -- zone-sharded simulation --------------------------------------------
    # Emitted identically by both ShardedContext executors (in process
    # and worker processes) — the merged-trace digest is byte-identical
    # across them, so the contracts below are executor-agnostic.
    _c("shard.partition.assign",
       required="zone rank epoch_s lookahead_s time_s",
       description="zone joined the sharded run (rank order; shard/"
                   "worker binding deliberately absent — see DESIGN.md)"),
    _c("shard.epoch.barrier", required="epoch zone time_s",
       description="conservative epoch barrier reached (sampled per "
                   "barrier_record_every)"),
    _c("shard.relay.deliver", required="epoch zone count spans time_s",
       description="cross-shard messages injected into this zone at a "
                   "barrier (pipe-routed when zones live in worker "
                   "processes); spans counts the deliveries that "
                   "carried a propagated span context"),
    _c("shard.fleet.telemetry.*",
       required="zone time_s up utilization energy_j failures repairs",
       consumed="bus",
       description="per-zone vectorized fleet aggregate, keyed "
                   "shard.fleet.telemetry.<zone>"),
    # -- observability snapshots --------------------------------------------
    # Not bus-published: spans are recorded straight into the trace at
    # close, metric/profile snapshots at observability-export time, and
    # all are consumed from the file by ``repro-obs``. Declared so the
    # topic vocabulary of a merged sharded export is complete.
    _c("obs.span", payload="open-dict",
       required="name layer trace_id span_id parent_id start_s end_s "
                "status",
       description="one closed causal span (crosses zones/workers via "
                   "the relay's span propagation + resume)"),
    _c("obs.metrics", payload="opaque",
       description="metrics registry snapshot; in sharded exports the "
                   "deterministic (epoch, zone rank)-ordered aggregate"),
    _c("obs.profile", payload="opaque",
       description="DES profiler snapshot (wall times: "
                   "nondeterministic, excluded from digests)"),
    _c("obs.shard_profile", payload="opaque",
       description="sharded-run barrier/straggler profile "
                   "(runtime.shard.epoch.* histogram source; wall "
                   "times nondeterministic, excluded from digests)"),
    # -- monitoring ---------------------------------------------------------
    _c("monitor.metrics.*.*.*", required="time_s value",
       description="one sample, keyed "
                   "monitor.metrics.<kind>.<monitor>.<metric>"),
    _c("monitor.alerts.*.*", payload="opaque",
       description="threshold alert (Alert), keyed "
                   "monitor.alerts.<kind>.<monitor>"),
    # -- network substrate --------------------------------------------------
    _c("net.link.state",
       required="a b up latency_factor bandwidth_factor",
       description="link state/degradation change"),
)


#: Layer namespaces: the only legal first segments for published topics.
NAMESPACES: frozenset[str] = frozenset(
    c.namespace for c in TOPIC_CONTRACTS)


def contracts_for(pattern: TopicPattern | str) -> list[TopicContract]:
    """Every contract whose topic family overlaps *pattern*."""
    return [c for c in TOPIC_CONTRACTS if c.intersects(pattern)]


def _check_registry() -> None:
    """Registry invariants, enforced at import time.

    Exact contracts must not shadow each other, and every pattern must
    be well-formed (the naming rule the registry itself anchors).
    """
    from repro.analysis.flow.patterns import segment_violations
    seen: set[str] = set()
    for contract in TOPIC_CONTRACTS:
        if contract.pattern in seen:
            raise ValueError(
                f"duplicate topic contract {contract.pattern!r}")
        seen.add(contract.pattern)
        problems = segment_violations(
            TopicPattern(contract.pattern), allow_wildcards=True)
        if problems:
            raise ValueError(
                f"bad registry pattern {contract.pattern!r}: "
                f"{problems}")
        if contract.payload not in ("dict", "open-dict", "opaque",
                                    "none"):
            raise ValueError(
                f"{contract.pattern!r}: unknown payload kind "
                f"{contract.payload!r}")
        if contract.consumed not in ("bus", "trace"):
            raise ValueError(
                f"{contract.pattern!r}: unknown consumption "
                f"{contract.consumed!r}")


_check_registry()
