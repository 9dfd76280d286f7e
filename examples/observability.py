#!/usr/bin/env python3
"""Observability: one fault, one causal span tree across every layer.

Runs the cross-layer scenario (continuum infrastructure + MIRTO engine +
kube cluster + monitor on one RuntimeContext), injects a device fault
mid-run, lets the MAPE loop react, then remediates inside the fault's
causal scope. The exported trace carries the full span tree — fault
inject (continuum) -> kube evict -> MAPE cycle and phases (mirto) ->
repair -> redeploy with placement solve/execute -> kube bind — under a
single trace id, plus a metrics snapshot and a DES profiler report.

Run:  python examples/observability.py [--out obs-trace.jsonl]

Then inspect it:

    repro-obs tree obs-trace.jsonl
    repro-obs timeline obs-trace.jsonl --by layer
    repro-obs metrics obs-trace.jsonl
    repro-obs profile obs-trace.jsonl
"""

import argparse

from repro.continuum import build_reference_infrastructure
from repro.continuum.faults import FaultInjector
from repro.continuum.workload import KernelClass
from repro.dpe import ComponentModel, ScenarioModel
from repro.kube import KubeCluster, Node, PodSpec, ResourceRequest
from repro.mirto import CognitiveEngine
from repro.monitoring import InfrastructureMonitor
from repro.obs import DesProfiler
from repro.runtime import RuntimeContext

FAULT_AT_S = 5.0


def _scenario(name: str) -> ScenarioModel:
    scenario = ScenarioModel(name, latency_budget_s=0.5)
    scenario.add_component(ComponentModel(
        "decode", megaops=100, input_bytes=100_000))
    scenario.add_component(ComponentModel(
        "detect", megaops=1200, kernel=KernelClass.DSP, accelerable=True))
    scenario.connect("decode", "detect", 100_000)
    return scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cross-layer observability demo (spans + metrics + "
                    "DES profile)")
    parser.add_argument("--out", default="obs-trace.jsonl",
                        help="trace JSONL output path "
                             "(default: obs-trace.jsonl)")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    # One shared runtime spine; the profiler attributes every executed
    # DES event to its owning process before anything is scheduled.
    ctx = RuntimeContext(seed=args.seed)
    profiler = DesProfiler().install(ctx.sim)

    infrastructure = build_reference_infrastructure(ctx)
    engine = CognitiveEngine(seed=args.seed, infrastructure=infrastructure)
    target = "mc-00-0"
    cluster = KubeCluster("edge", ctx=ctx)
    cluster.add_node(Node(name=target,
                          capacity=ResourceRequest(4000, 8 * 2**30)))
    cluster.watch_device_faults()
    cluster.create_pod(PodSpec(name="svc",
                               request=ResourceRequest(500, 2**20)))
    cluster.reconcile()
    monitor = InfrastructureMonitor("site", ctx=ctx)
    monitor.watch_device_faults()

    response = engine.deploy(_scenario("pipeline").to_service_template(),
                             strategy="greedy")
    assert response.ok, response.body

    # Fail the deployed device mid-run. The inject span is the causal
    # root: the kube eviction and monitor sample nest inside it.
    injector = FaultInjector(engine.infrastructure)

    def fault_process():
        yield ctx.sim.timeout(FAULT_AT_S)
        injector.inject_now(target)

    ctx.sim.process(fault_process())
    ctx.run()

    # The MAPE loop reacts on its next cycle; its span attaches to the
    # fault it is reacting to, not to whatever else is running.
    record = engine.mape_iterate(1)[0]

    # Remediation continues the same trace: resume() re-enters the MAPE
    # cycle's span scope, so the repair, the redeploy (placement solve +
    # execute) and the kube reschedule/bind all share the fault's
    # trace id.
    with ctx.tracer.resume(record.span_context):
        injector.repair_now(target)
        retry = engine.deploy(_scenario("pipeline-retry")
                              .to_service_template(), strategy="greedy")
        assert retry.ok, retry.body
        cluster.create_pod(PodSpec(name="svc-retry",
                                   request=ResourceRequest(500, 2**20)))
        cluster.reconcile()

    # Append the metrics + profiler snapshots and export everything.
    ctx.snapshot_observability()
    n = ctx.trace.export_jsonl(args.out)

    print(f"trace: {n} records -> {args.out}")
    print(f"spans recorded: {ctx.tracer.spans_recorded}")
    print(f"metrics registered: {len(ctx.metrics)}")
    print(f"DES events profiled: {profiler.events_profiled}")
    print(f"inspect with: repro-obs tree {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
