"""Chaos scorecards: one campaign, N seeds, deterministic JSON.

The harness wires the full stack — reference infrastructure, MIRTO
cognitive engine, a kube cluster mirroring the edge devices, a gateway
with a policy-protected sensor — runs a named campaign against it and
scores the outcome: availability, MTTR, tasks lost vs. recovered, SLO
violations, graceful-degradation time. Everything derives from the
context seed tree, so ``run --seed 7`` twice emits byte-identical JSON;
CI diffs the report against a committed baseline.
"""

from __future__ import annotations

import json
from typing import Any

from repro.chaos.actions import (
    DeviceFlap,
    GatewayBrownout,
    LatencyInflation,
    LinkDegradation,
    NetworkPartition,
    ZoneOutage,
)
from repro.chaos.campaign import ChaosCampaign
from repro.chaos.controller import ChaosController
from repro.chaos.policies import RetryPolicy, Timeout
from repro.continuum.endpoints import SensorProcess
from repro.continuum.gateway import GatewayHub
from repro.continuum.infrastructure import build_reference_infrastructure
from repro.continuum.workload import KernelClass
from repro.core.errors import NotFoundError
from repro.dpe import ComponentModel, ScenarioModel
from repro.kube import (
    Deployment,
    KubeCluster,
    Node,
    PodPhase,
    PodSpec,
    ResourceRequest,
)
from repro.mirto import CognitiveEngine
from repro.runtime import RuntimeContext


def build_campaign(name: str) -> ChaosCampaign:
    """The named campaign catalogue the CLI and CI run from."""
    if name == "smoke":
        return ChaosCampaign("smoke", [
            ZoneOutage(zone="mc-00", at_s=5.0, duration_s=6.0),
            LinkDegradation(a="gw-00-0", b="fmdc-00", at_s=8.0,
                            duration_s=8.0, latency_factor=20.0,
                            bandwidth_factor=0.05),
        ])
    if name == "full":
        return ChaosCampaign("full", [
            ZoneOutage(zone="mc-00", at_s=5.0, duration_s=6.0),
            LinkDegradation(a="gw-00-0", b="fmdc-00", at_s=8.0,
                            duration_s=8.0, latency_factor=20.0,
                            bandwidth_factor=0.05),
            NetworkPartition(group_a=("fmdc-00",),
                             group_b=("cloud-00", "cloud-01"),
                             at_s=12.0, duration_s=5.0),
            GatewayBrownout(gateway="gw-00-0", at_s=18.0,
                            duration_s=7.0, peak_drop_rate=0.8,
                            ramp_steps=4),
            DeviceFlap(device="fpga-01-0", at_s=22.0, duration_s=6.0,
                       cycles=3),
            LatencyInflation(factor=5.0, at_s=28.0, duration_s=4.0),
        ])
    raise NotFoundError(f"unknown campaign {name!r} "
                        f"(known: smoke, full)")


def _scenario() -> ScenarioModel:
    scenario = ScenarioModel("chaos-pipeline", latency_budget_s=0.5)
    scenario.add_component(ComponentModel(
        "decode", megaops=100, input_bytes=100_000))
    scenario.add_component(ComponentModel(
        "detect", megaops=1200, kernel=KernelClass.DSP,
        accelerable=True))
    scenario.connect("decode", "detect", 100_000)
    return scenario


def run_scenario(seed: int, campaign_name: str = "smoke",
                 horizon_s: float = 40.0,
                 mape_period_s: float = 4.0) -> dict[str, Any]:
    """One seeded campaign run over the full stack; returns the raw
    scored metrics plus the context (for trace inspection)."""
    ctx = RuntimeContext(seed=seed)
    infra = build_reference_infrastructure(ctx)
    engine = CognitiveEngine(seed=seed, infrastructure=infra)

    cluster = KubeCluster("edge", ctx=ctx)
    for node_name in ("mc-00-0", "fpga-00-0", "mc-01-0", "fpga-01-0"):
        cluster.add_node(Node(name=node_name,
                              capacity=ResourceRequest(4000, 8 * 2**30)))
    cluster.watch_device_faults()
    cluster.enable_bind_breakers(failure_threshold=1,
                                 recovery_time_s=6.0)
    cluster.create_deployment(Deployment(
        name="svc",
        template=PodSpec(name="svc", request=ResourceRequest(500, 2**20)),
        replicas=2))
    cluster.reconcile()
    for pod in cluster.pods_in_phase(PodPhase.SCHEDULED):
        cluster.mark_running(pod.uid)

    response = engine.deploy(_scenario().to_service_template(),
                             strategy="greedy")
    if not response.ok:  # pragma: no cover - deploy is deterministic
        raise RuntimeError(f"initial deploy failed: {response.body}")

    hub = GatewayHub(infra.network, "gw-00-0", ctx=ctx)
    hub.register("mc-00-0", ["mqtt"])
    hub.register("cloud-00", ["http"])
    sensor = SensorProcess(
        hub, "mc-00-0", "cloud-00", "telemetry",
        lambda seq: {"reading": seq}, period_s=0.5, ctx=ctx,
        policy=RetryPolicy(
            ctx=ctx, max_attempts=3, base_delay_s=0.1,
            name=f"sensor.{seed}",
            inner=Timeout(ctx=ctx, limit_s=2.0)))

    controller = ChaosController(infra)
    controller.register_gateway(hub)
    campaign = build_campaign(campaign_name)
    runner = controller.run_campaign(campaign)

    def mape_driver():
        while True:
            yield ctx.sim.timeout(mape_period_s)
            record = engine.mape.iterate()
            fault_seen = any(t.kind == "fault" for t in record.triggers)
            if fault_seen or cluster.pods_in_phase(PodPhase.PENDING):
                # Remediate inside the cycle's causal scope so the
                # re-binds land in the fault's span tree.
                with ctx.tracer.resume(record.span_context):
                    cluster.reconcile()
                    for pod in cluster.pods_in_phase(PodPhase.SCHEDULED):
                        cluster.mark_running(pod.uid)

    ctx.sim.process(mape_driver(), name="mape-driver")
    ctx.run(until=horizon_s)
    sensor.stop()

    return {
        "ctx": ctx,
        "engine": engine,
        "cluster": cluster,
        "hub": hub,
        "sensor": sensor,
        "controller": controller,
        "runner": runner,
        "horizon_s": horizon_s,
    }


def _mttr(events) -> float:
    """Mean time-to-repair over completed fail→repair pairs."""
    down_since: dict[str, float] = {}
    repairs: list[float] = []
    for event in events:
        if event.kind == "fail":
            down_since.setdefault(event.device, event.time_s)
        elif event.kind == "repair" and event.device in down_since:
            repairs.append(event.time_s - down_since.pop(event.device))
    if not repairs:
        return 0.0
    return sum(repairs) / len(repairs)


def score_run(run: dict[str, Any]) -> dict[str, Any]:
    """Reduce one run to the scorecard metrics (plain JSON types)."""
    ctx = run["ctx"]
    engine = run["engine"]
    cluster = run["cluster"]
    hub = run["hub"]
    sensor = run["sensor"]
    tracker = run["controller"].tracker
    horizon = run["horizon_s"]

    devices = sorted(engine.infrastructure.devices)
    availability = sum(tracker.availability(d, horizon)
                      for d in devices) / len(devices)
    delivered = sum(1 for r in hub.deliveries if r.wire_bytes > 0)
    evictions = sum(1 for e in cluster.events if e.kind == "PodEvicted")
    recovered = sum(1 for p in cluster.pods.values()
                    if p.restarts > 0 and p.phase in
                    (PodPhase.SCHEDULED, PodPhase.RUNNING))
    outcomes = engine.manager.workload.deployments
    breakers = {
        name: [state for _, state in breaker.transitions]
        for name, breaker in sorted(
            (cluster._bind_breakers or {}).items())
    }
    return {
        "availability": availability,
        "mttr_s": _mttr(tracker.events),
        "tasks_lost": hub.dropped + sensor.lost,
        "tasks_recovered": recovered,
        "pods_evicted": evictions,
        "slo_violations": sum(1 for o in outcomes if not o.deadline_met),
        "deployments": len(outcomes),
        "degradation_time_s": engine.mape.degradation_time_s,
        "deliveries": delivered,
        "messages_dropped": hub.dropped,
        "sensor_lost": sensor.lost,
        "mape_iterations": len(engine.mape.records),
        "fault_events": len(tracker.events),
        "mutations_executed": len(run["runner"].executed),
        "breaker_states": breakers,
        "trace_records": len(ctx.trace),
    }


def _round(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round(v) for v in value]
    return value


def scorecard(campaign_name: str, seeds: list[int],
              horizon_s: float = 40.0) -> dict[str, Any]:
    """Run *campaign_name* across *seeds*; aggregate + per-seed report."""
    per_seed: dict[str, Any] = {}
    for seed in seeds:
        run = run_scenario(seed, campaign_name, horizon_s=horizon_s)
        per_seed[str(seed)] = score_run(run)
    numeric = [k for k, v in next(iter(per_seed.values())).items()
               if isinstance(v, (int, float))]
    aggregate = {
        key: sum(card[key] for card in per_seed.values()) / len(per_seed)
        for key in numeric
    }
    return _round({
        "campaign": build_campaign(campaign_name).describe(),
        "horizon_s": horizon_s,
        "seeds": list(seeds),
        "aggregate": aggregate,
        "per_seed": per_seed,
    })


def render_report(report: dict[str, Any]) -> str:
    """Canonical JSON form (sorted keys — byte-stable per seed)."""
    return json.dumps(report, sort_keys=True, indent=2)
