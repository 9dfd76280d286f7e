"""Cross-layer acceptance test for the shared runtime spine.

One RuntimeContext wires the continuum infrastructure, the MIRTO
cognitive engine (MAPE loop), a kube control plane and an infrastructure
monitor. A fault injected mid-run on a deployed device must be observed
by all three consumers at the same simulated instant, land on one
causally ordered trace, and the whole scenario must replay
byte-identically from the same seed.
"""

from repro.continuum import build_reference_infrastructure
from repro.continuum.faults import FaultInjector
from repro.continuum.workload import KernelClass
from repro.dpe import ComponentModel, ScenarioModel
from repro.kube import KubeCluster, Node, PodSpec, ResourceRequest
from repro.mirto import CognitiveEngine
from repro.monitoring import InfrastructureMonitor
from repro.runtime import RuntimeContext

FAULT_AT_S = 5.0


def _scenario():
    scenario = ScenarioModel("pipeline", latency_budget_s=0.5)
    scenario.add_component(ComponentModel(
        "decode", megaops=100, input_bytes=100_000))
    scenario.add_component(ComponentModel(
        "detect", megaops=1200, kernel=KernelClass.DSP, accelerable=True))
    scenario.connect("decode", "detect", 100_000)
    return scenario


def _run_scenario(seed: int):
    ctx = RuntimeContext(seed=seed)
    infrastructure = build_reference_infrastructure(ctx)
    engine = CognitiveEngine(seed=seed, infrastructure=infrastructure)
    # A kube cluster whose nodes mirror continuum devices, watching the
    # shared bus for device faults.
    target = "mc-00-0"
    cluster = KubeCluster("edge", ctx=ctx)
    cluster.add_node(Node(name=target,
                          capacity=ResourceRequest(4000, 8 * 2**30)))
    cluster.watch_device_faults()
    cluster.create_pod(PodSpec(name="svc",
                               request=ResourceRequest(500, 2**20)))
    assert cluster.reconcile() == 1
    # An independent monitor on the same context.
    monitor = InfrastructureMonitor("site", ctx=ctx)
    monitor.watch_device_faults()

    # Deploy through the full MIRTO path (publishes mirto.deploy.placed).
    response = engine.deploy(_scenario().to_service_template(),
                             strategy="greedy")
    assert response.ok, response.body

    # Fail the device mid-run, at an exact simulated instant.
    injector = FaultInjector(engine.infrastructure)
    start = ctx.now

    def fault_process():
        yield ctx.sim.timeout(FAULT_AT_S)
        injector.inject_now(target)

    ctx.sim.process(fault_process())
    ctx.run()
    fault_time = start + FAULT_AT_S

    # The next MAPE cycle reacts to the externally observed fault.
    record = engine.mape_iterate(1)[0]
    return {
        "ctx": ctx,
        "engine": engine,
        "cluster": cluster,
        "monitor": monitor,
        "injector": injector,
        "target": target,
        "fault_time": fault_time,
        "mape_record": record,
    }


def _remediate(run):
    """Repair and redeploy inside the MAPE cycle's causal scope.

    resume() makes the repair, the placement re-solve and the kube
    reschedule/bind all attach under the fault's trace id.
    """
    ctx = run["ctx"]
    with ctx.tracer.resume(run["mape_record"].span_context):
        run["injector"].repair_now(run["target"])
        retry = run["engine"].deploy(_scenario().to_service_template(),
                                     strategy="greedy")
        assert retry.ok, retry.body
        run["cluster"].create_pod(
            PodSpec(name="svc-retry",
                    request=ResourceRequest(500, 2**20)))
        # Both the evicted original pod and the retry pod land.
        assert run["cluster"].reconcile() == 2
    return run


class TestCrossLayerFaultVisibility:
    def setup_method(self):
        self.run = _run_scenario(seed=42)

    def test_kube_evicts_at_fault_time(self):
        cluster = self.run["cluster"]
        assert not cluster.node(self.run["target"]).ready
        evictions = [e for e in cluster.events if e.kind == "PodEvicted"]
        assert len(evictions) == 1
        assert evictions[0].time_s == self.run["fault_time"]

    def test_monitor_records_at_fault_time(self):
        series = self.run["monitor"].series[
            f"{self.run['target']}.failed"]
        assert series.samples[-1] == (self.run["fault_time"], 1.0)

    def test_mape_observes_and_reacts(self):
        engine = self.run["engine"]
        assert (self.run["fault_time"], self.run["target"], "fail") in \
            engine.mape.fault_observations
        record = self.run["mape_record"]
        fault_triggers = [t for t in record.triggers if t.kind == "fault"]
        assert [t.component for t in fault_triggers] == \
            [self.run["target"]]
        assert any(a.kind == "flag-reallocation"
                   and a.component == self.run["target"]
                   for a in record.actions)

    def test_single_causally_ordered_trace(self):
        trace = self.run["ctx"].trace
        at_fault = {r.topic for r in trace.at_time(self.run["fault_time"])}
        assert "continuum.fault.fail" in at_fault
        assert "kube.edge.PodEvicted" in at_fault
        # The full scenario is on one trace: infrastructure build,
        # placement decision, fault, and MAPE phases.
        topics = {r.topic for r in trace}
        assert "continuum.infra.device-added" in topics
        assert "mirto.deploy.placed" in topics
        assert {"mirto.mape.sense", "mirto.mape.analyze",
                "mirto.mape.plan", "mirto.mape.execute"} <= topics
        # seq strictly increasing, time non-decreasing.
        records = list(trace)
        assert [r.seq for r in records] == \
            sorted(r.seq for r in records)
        assert all(a.time_s <= b.time_s
                   for a, b in zip(records, records[1:]))


class TestCausalSpanTree:
    """One injected fault must yield one span tree across all layers."""

    def setup_method(self):
        self.run = _remediate(_run_scenario(seed=42))
        spans = [r.payload for r in self.run["ctx"].trace
                 if r.topic == "obs.span"]
        roots = [s for s in spans
                 if s["name"] == "continuum.fault.inject"]
        assert len(roots) == 1
        self.root = roots[0]
        self.spans = [s for s in spans
                      if s["trace_id"] == self.root["trace_id"]]

    def test_fault_trace_spans_all_layers(self):
        names = {s["name"] for s in self.spans}
        # continuum fault -> kube evict -> MAPE phases -> repair ->
        # placement -> kube bind, all under one trace id.
        assert {"continuum.fault.inject", "kube.evict",
                "mirto.mape.cycle", "mirto.mape.sense",
                "mirto.mape.analyze", "mirto.mape.plan",
                "mirto.mape.execute", "continuum.fault.repair",
                "mirto.placement.solve", "mirto.placement.execute",
                "kube.schedule", "kube.bind"} <= names
        assert {"continuum", "mirto", "kube"} <= \
            {s["layer"] for s in self.spans}

    def test_every_span_descends_from_the_fault(self):
        by_id = {s["span_id"]: s for s in self.spans}

        def ancestor_root(span):
            while span["parent_id"] is not None:
                span = by_id[span["parent_id"]]
            return span

        assert self.root["parent_id"] is None
        for span in self.spans:
            assert ancestor_root(span) is self.root

    def test_mape_cycle_is_child_of_the_inject(self):
        cycle = [s for s in self.spans
                 if s["name"] == "mirto.mape.cycle"][0]
        assert cycle["parent_id"] == self.root["span_id"]
        phases = [s for s in self.spans
                  if s["name"].startswith("mirto.mape.")
                  and s["name"] != "mirto.mape.cycle"]
        assert {p["parent_id"] for p in phases} == {cycle["span_id"]}

    def test_eviction_is_inside_the_inject(self):
        evict = [s for s in self.spans if s["name"] == "kube.evict"][0]
        assert evict["parent_id"] == self.root["span_id"]

    def test_deploy_spans_are_outside_the_fault_trace(self):
        # The initial deploy (before the fault) must NOT share the
        # fault's trace id — only remediation work attaches to it.
        trace = self.run["ctx"].trace
        deploys = [r.payload for r in trace
                   if r.topic == "obs.span"
                   and r.payload["name"] == "mirto.deploy"]
        assert len(deploys) == 2  # initial + remediation redeploy
        trace_ids = {d["trace_id"] for d in deploys}
        assert self.root["trace_id"] in trace_ids
        assert len(trace_ids) == 2

    def test_publishes_carry_the_fault_envelope(self):
        trace = self.run["ctx"].trace
        fault_records = [r for r in trace
                         if r.topic == "continuum.fault.fail"]
        assert fault_records[0].span is not None
        assert fault_records[0].span["trace_id"] == \
            self.root["trace_id"]


class TestDeterministicReplay:
    def test_same_seed_byte_identical_trace(self):
        first = _run_scenario(seed=42)["ctx"].trace.to_jsonl()
        second = _run_scenario(seed=42)["ctx"].trace.to_jsonl()
        assert first == second

    def test_same_seed_byte_identical_spans_and_metrics(self):
        def observed_run():
            run = _remediate(_run_scenario(seed=42))
            ctx = run["ctx"]
            ctx.snapshot_observability()
            spans = "\n".join(
                r.to_json() for r in ctx.trace if r.topic == "obs.span")
            return spans, ctx.metrics.render(), ctx.trace.to_jsonl()

        first = observed_run()
        second = observed_run()
        assert first[0] == second[0]  # span dump, ids included
        assert first[1] == second[1]  # metrics exposition
        assert first[2] == second[2]  # whole trace
