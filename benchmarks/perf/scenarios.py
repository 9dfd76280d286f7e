"""The measured workloads: deterministic batches over the hot paths.

Every scenario seeds its own RNGs and uses fixed op counts, so two runs
on the same commit execute byte-for-byte the same work. Scenario names
are stable identifiers — the committed baseline and CI regression gate
key on them.
"""

from __future__ import annotations

import random

from repro.core.events import EventBus
from repro.continuum.simulator import Simulator
from repro.continuum.workload import Application, Task
from repro.runtime import RuntimeContext
from repro.runtime.trace import TraceRecorder

from benchmarks.perf.harness import scenario

# -- event bus dispatch -----------------------------------------------------

# Published topics cycle over a bounded set: real traffic concentrates on
# a small topic vocabulary (fault/mape/deploy/metric channels), which is
# what makes dispatch caching representative rather than flattering.
_TOPIC_CYCLE = 32


def _count_handler(counter):
    def handler(topic, payload):
        counter[0] += 1
    return handler


def _bus_scenario(n_subs: int, kind: str, n_ops: int):
    bus = EventBus()
    counter = [0]
    for i in range(n_subs):
        if kind == "exact":
            pattern = f"bench.exact.t{i % _TOPIC_CYCLE:04d}"
        elif kind == "star":
            pattern = f"bench.star.s{i % _TOPIC_CYCLE:04d}.*"
        else:  # mid-pattern ** glob
            pattern = f"bench.glob.**.g{i % 16}"
        bus.subscribe(pattern, _count_handler(counter))
    if kind == "exact":
        topics = [f"bench.exact.t{j % _TOPIC_CYCLE:04d}"
                  for j in range(_TOPIC_CYCLE)]
    elif kind == "star":
        topics = [f"bench.star.s{j % _TOPIC_CYCLE:04d}.x"
                  for j in range(_TOPIC_CYCLE)]
    else:
        topics = [f"bench.glob.a.b.g{j % 16}" for j in range(_TOPIC_CYCLE)]

    def run():
        publish = bus.publish
        for j in range(n_ops):
            publish(topics[j % _TOPIC_CYCLE], j)
    return n_ops, run


def _register_bus(kind: str, n_subs: int, full_ops: int):
    name = f"bus.publish.{kind}.{n_subs}"

    @scenario(name)
    def make(quick: bool, _kind=kind, _n=n_subs, _ops=full_ops):
        return _bus_scenario(_n, _kind, _ops // 10 if quick else _ops)


for _kind in ("exact", "star", "midglob"):
    _register_bus(_kind, 10, 20_000)
    _register_bus(_kind, 100, 5_000)
    _register_bus(_kind, 1000, 500)


# -- DES kernel -------------------------------------------------------------

@scenario("sim.timeout_storm")
def _timeout_storm(quick: bool):
    n_ops = 5_000 if quick else 50_000
    sim = Simulator()
    rng = random.Random(42)
    delays = [rng.random() * 100.0 for _ in range(n_ops)]

    def run():
        timeout = sim.timeout
        for delay in delays:
            timeout(delay)
        sim.run()
    return n_ops, run


@scenario("sim.process_churn")
def _process_churn(quick: bool):
    n_ops = 2_000 if quick else 20_000
    sim = Simulator()

    def worker(s):
        yield s.timeout(0)
        yield s.timeout(0)

    def run():
        process = sim.process
        for _ in range(n_ops):
            process(worker(sim))
        sim.run()
    return n_ops, run


# -- trace recording --------------------------------------------------------

@scenario("trace.record.flat")
def _trace_record(quick: bool):
    n_ops = 10_000 if quick else 100_000
    recorder = TraceRecorder(capacity=1 << 16)

    def run():
        record = recorder.record
        for i in range(n_ops):
            record(float(i), "bench.metric.sample",
                   {"device": "mc-00-0", "value": 0.5, "seq": i,
                    "ok": True})
    return n_ops, run


@scenario("trace.export_jsonl")
def _trace_export(quick: bool):
    n_records = 2_000 if quick else 20_000
    recorder = TraceRecorder(capacity=1 << 16)
    for i in range(n_records):
        recorder.record(float(i), "bench.metric.sample",
                        {"device": "fpga-01-0", "value": i * 0.25,
                         "nested": {"a": 1, "b": [1, 2, 3]}})

    def run():
        recorder.to_jsonl()
    return n_records, run


# -- observability span overhead --------------------------------------------

def _span_publish_scenario(enabled: bool, n_ops: int):
    """Traced-bus publish with the causal tracer on vs off.

    The pair shares one construction path so the only difference is the
    span machinery: ``enabled`` publishes inside an active span (every
    record carries an envelope), ``disabled`` publishes with the tracer
    off. The --check gate holds enabled/disabled at <= 1.3x.
    """
    ctx = RuntimeContext(seed=11)
    topics = [f"bench.obs.t{j % _TOPIC_CYCLE:04d}"
              for j in range(_TOPIC_CYCLE)]
    if not enabled:
        ctx.tracer.disable()

    def run():
        publish = ctx.bus.publish
        if enabled:
            with ctx.tracer.start_span("bench.obs.batch", layer="bench"):
                for j in range(n_ops):
                    publish(topics[j % _TOPIC_CYCLE], j)
        else:
            for j in range(n_ops):
                publish(topics[j % _TOPIC_CYCLE], j)
    return n_ops, run


@scenario("obs.span.publish.enabled")
def _span_publish_enabled(quick: bool):
    return _span_publish_scenario(True, 2_000 if quick else 20_000)


@scenario("obs.span.publish.disabled")
def _span_publish_disabled(quick: bool):
    return _span_publish_scenario(False, 2_000 if quick else 20_000)


# -- MAPE loop --------------------------------------------------------------

@scenario("mape.tick")
def _mape_tick(quick: bool):
    from repro.mirto import CognitiveEngine

    n_ops = 3 if quick else 15
    engine = CognitiveEngine(seed=1)

    def run():
        engine.mape_iterate(n_ops)
    return n_ops, run


@scenario("chaos.campaign.tick")
def _chaos_campaign_tick(quick: bool):
    """One full chaos campaign driven through the DES per op.

    Measures the campaign runner's mutation dispatch plus the fault /
    link / breaker machinery it drives — the chaos-path equivalent of
    ``mape.tick``.
    """
    from repro.chaos import ChaosCampaign, ChaosController, DeviceFlap, \
        LinkDegradation, ZoneOutage
    from repro.continuum import build_reference_infrastructure

    n_ops = 2 if quick else 10

    def run():
        for i in range(n_ops):
            ctx = RuntimeContext(seed=100 + i)
            infra = build_reference_infrastructure(ctx)
            controller = ChaosController(infra)
            campaign = ChaosCampaign(f"bench-{i}", [
                ZoneOutage(zone="mc-00", at_s=1.0, duration_s=2.0),
                LinkDegradation(a="gw-00-0", b="fmdc-00", at_s=2.0,
                                duration_s=3.0),
                DeviceFlap(device="fpga-01-0", at_s=1.5, duration_s=4.0,
                           cycles=4),
            ])
            controller.run_campaign(campaign)
            ctx.run(until=8.0)
    return n_ops, run


# -- swarm placement --------------------------------------------------------

def _bench_application() -> Application:
    app = Application("bench-dag")
    for i in range(8):
        app.add_task(Task(name=f"t{i}", megaops=200.0 + 150.0 * i,
                          input_bytes=100_000, output_bytes=50_000,
                          memory_bytes=16 * 2**20))
    app.connect("t0", "t1", 80_000)
    app.connect("t0", "t2", 60_000)
    app.connect("t0", "t3", 40_000)
    app.connect("t1", "t4", 70_000)
    app.connect("t2", "t4", 50_000)
    app.connect("t3", "t5", 30_000)
    app.connect("t4", "t6", 90_000)
    app.connect("t5", "t6", 20_000)
    app.connect("t6", "t7", 110_000)
    return app


def _placement_scenario(strategy: str, n_ops: int):
    from repro.continuum import build_reference_infrastructure
    from repro.mirto.placement import (
        AcoPlacement,
        PlacementConstraints,
        PlacementRequest,
        PsoPlacement,
    )

    ctx = RuntimeContext(seed=9)
    infra = build_reference_infrastructure(ctx)
    app = _bench_application()
    constraints = PlacementConstraints(source_device="mc-00-0")
    rng = random.Random(7)
    cls = {"pso": PsoPlacement, "aco": AcoPlacement}[strategy]
    placer = cls(rng, iterations=12)

    def run():
        for _ in range(n_ops):
            placer.solve(PlacementRequest(
                application=app, infrastructure=infra,
                constraints=constraints))
    return n_ops, run


@scenario("placement.pso.place")
def _pso(quick: bool):
    return _placement_scenario("pso", 2 if quick else 6)


@scenario("placement.aco.place")
def _aco(quick: bool):
    return _placement_scenario("aco", 2 if quick else 6)


@scenario("placement.kpi_estimate")
def _kpi_estimate(quick: bool):
    from repro.continuum import build_reference_infrastructure
    from repro.mirto.placement import (
        GreedyPlacement,
        PlacementConstraints,
        estimate_placement_kpis,
    )

    n_ops = 300 if quick else 2_000
    ctx = RuntimeContext(seed=9)
    infra = build_reference_infrastructure(ctx)
    app = _bench_application()
    constraints = PlacementConstraints(source_device="mc-00-0")
    from repro.mirto.placement import PlacementRequest
    placement = GreedyPlacement().solve(PlacementRequest(
        application=app, infrastructure=infra,
        constraints=constraints)).placement

    def run():
        for _ in range(n_ops):
            estimate_placement_kpis(app, placement, infra,
                                    source_device="mc-00-0")
    return n_ops, run


@scenario("placement.exact.small")
def _exact_small(quick: bool):
    """Branch-and-bound proving optimality on a 5-task instance.

    One op = one full exact solve (tree exhausted, optimal proven);
    ns/op tracks bounding + incremental-schedule cost.
    """
    from repro.continuum import build_reference_infrastructure
    from repro.mirto.exact import ExactPlacement
    from repro.mirto.placement import (
        PlacementConstraints,
        PlacementRequest,
    )

    n_ops = 2 if quick else 6
    ctx = RuntimeContext(seed=9)
    infra = build_reference_infrastructure(ctx)
    app = Application("bench-exact")
    for i in range(5):
        app.add_task(Task(name=f"t{i}", megaops=200.0 + 150.0 * i,
                          input_bytes=100_000, output_bytes=50_000,
                          memory_bytes=16 * 2**20))
    app.connect("t0", "t1", 80_000)
    app.connect("t0", "t2", 60_000)
    app.connect("t1", "t3", 70_000)
    app.connect("t2", "t3", 50_000)
    app.connect("t3", "t4", 90_000)
    constraints = PlacementConstraints(source_device="mc-00-0")
    placer = ExactPlacement()

    def run():
        for _ in range(n_ops):
            result = placer.solve(PlacementRequest(
                application=app, infrastructure=infra,
                constraints=constraints))
            assert result.optimal
    return n_ops, run


@scenario("placement.portfolio.deadline")
def _portfolio_deadline(quick: bool):
    """Deadline-raced portfolio on the 8-task DAG under a 50ms budget.

    One op = one raced solve across all four lanes; ns/op tracks the
    cooperative-stepping overhead on top of the individual backends.
    """
    from repro.continuum import build_reference_infrastructure
    from repro.mirto.placement import (
        PlacementConstraints,
        PlacementRequest,
        SolveBudget,
    )
    from repro.mirto.portfolio import PortfolioPlacement

    n_ops = 1 if quick else 3
    ctx = RuntimeContext(seed=9)
    infra = build_reference_infrastructure(ctx)
    app = _bench_application()
    constraints = PlacementConstraints(source_device="mc-00-0")
    placer = PortfolioPlacement(seed=7, iterations=8)

    def run():
        for _ in range(n_ops):
            placer.solve(PlacementRequest(
                application=app, infrastructure=infra,
                constraints=constraints,
                budget=SolveBudget(deadline_s=0.050)))
    return n_ops, run


# -- static analysis --------------------------------------------------------


@scenario("analysis.flow.full")
def _analysis_flow_full(quick: bool):
    """Whole-program topic-flow + DES-contract analysis of src/repro.

    One op = one analyzed file (parse, symbol table, call graph and
    every flow rule), so ns/op tracks per-file analyzer cost as the
    codebase grows. Quick mode restricts the program to two packages.
    """
    from pathlib import Path

    from repro.analysis.config import AnalysisConfig
    from repro.analysis.flow import run_flow

    root = Path(__file__).resolve().parents[2]
    paths = ["src/repro/chaos", "src/repro/continuum"] if quick \
        else ["src/repro"]
    config = AnalysisConfig(root=root, flow_paths=paths)
    n_files = sum(1 for p in paths
                  for _ in (root / p).rglob("*.py"))

    def run():
        run_flow(config)  # fresh ParseCache per batch: cold analysis
    return n_files, run


# -- zone-sharded simulation ------------------------------------------------

@scenario("sim.sharded.10k")
def _sharded_scale(quick: bool):
    """The continuum-scale scenario end to end: vectorized fleets on
    zone shards behind epoch barriers, zone-0 aggregation, one outage.
    ``n_ops`` counts device-steps, the unit the vectorization amortizes.
    """
    from repro.continuum.scale import ScaleConfig, run_scale_scenario

    devices = 1_000 if quick else 10_000
    horizon_s = 100.0 if quick else 500.0
    config = ScaleConfig(devices=devices, zones=8, shards=8,
                         horizon_s=horizon_s, barrier_record_every=100)
    n_ops = devices * int(horizon_s / config.telemetry_period_s)

    def run():
        run_scale_scenario(config)
    return n_ops, run


@scenario("sim.sharded.parallel.10k")
def _sharded_scale_parallel(quick: bool):
    """The same continuum-scale scenario on the multiprocess backend:
    two worker processes, cross-worker relay routed through the
    coordinator, trace batches streamed back per epoch. Wall-clock
    gains require >= 2 physical cores; the digest contract holds
    everywhere. ``n_ops`` counts device-steps, like ``sim.sharded.10k``.
    """
    from repro.continuum.scale import ScaleConfig, run_scale_scenario

    devices = 5_000 if quick else 10_000
    horizon_s = 200.0 if quick else 500.0
    # Quick mode widens the lookahead so barrier IPC and worker spawn
    # amortize the way the full run does — otherwise the CI-sized run
    # measures pipe round-trips, not the backend.
    latency = 5.0 if quick else 0.5
    config = ScaleConfig(devices=devices, zones=8, shards=8,
                         horizon_s=horizon_s, link_latency_s=latency,
                         barrier_record_every=100)
    n_ops = devices * int(horizon_s / config.telemetry_period_s)

    def run():
        run_scale_scenario(config, workers=2)
    return n_ops, run


@scenario("fleet.step.100k")
def _fleet_step_100k(quick: bool):
    """Vectorized fleet stepping at the 100k-preset zone size: one
    DeviceFleet holding a full zone's population, stepped with the
    batched draw pair. ``n_ops`` counts device-steps — per-fleet memory
    stays flat (six arrays), whatever the population."""
    from repro.continuum.fleet import DeviceFleet
    from repro.runtime.context import RuntimeContext

    size = 10_000 if quick else 100_000
    steps = 5 if quick else 10
    fleet = DeviceFleet("bench-100k", size, ctx=RuntimeContext(seed=3),
                        fail_rate_per_s=2e-4, repair_rate_per_s=5e-2)

    def run():
        for _ in range(steps):
            fleet.step(10.0)
    return size * steps, run


@scenario("bus.publish.crossshard")
def _crossshard_relay(quick: bool):
    """Cross-shard relay throughput: two zones on two shards, every
    publish tapped, buffered at the epoch barrier and re-injected into
    the destination shard at its arrival time. Payloads mirror the
    continuum fleet's telemetry shape — the message that actually
    crosses zones in the scale scenarios."""
    from repro.runtime.shard import ShardedContext

    n_ops = 2_000 if quick else 20_000

    def run():
        sharded = ShardedContext(seed=0, zones=("a", "b"), n_shards=2,
                                 link_latency_s=0.5,
                                 trace_capacity=4096)
        ctx_a, ctx_b = sharded.zone("a"), sharded.zone("b")
        counter = [0]

        def on_msg(topic, payload):
            counter[0] += 1

        ctx_b.subscribe("bench.relay.*", on_msg)

        def sender():
            timeout = ctx_a.sim.timeout
            publish = ctx_a.publish
            for i in range(n_ops):
                yield timeout(0.01)
                publish(f"bench.relay.m{i % _TOPIC_CYCLE}",
                        {"zone": "a", "time_s": i * 0.01, "up": 990,
                         "utilization": 0.42, "energy_j": 1.5e3,
                         "failures": i, "repairs": 0})

        ctx_a.sim.process(sender())
        sharded.run(until=n_ops * 0.01 + 2.0)
    return n_ops, run


@scenario("obs.span.crossshard")
def _crossshard_span_relay(quick: bool):
    """Cross-shard relay with span propagation: same two-zone workload
    as ``bus.publish.crossshard``, but the sender publishes inside an
    active span (the ``obs.span.publish.enabled`` idiom) — each tapped
    message ships its ``(trace_id, span_id)`` and each barrier delivery
    resumes it in the destination zone under a ``shard.relay.deliver``
    child span. The --check gate holds the pair at <= 1.3x: span
    propagation must stay a thin layer on the relay itself."""
    from repro.runtime.shard import ShardedContext

    n_ops = 2_000 if quick else 20_000

    def run():
        sharded = ShardedContext(seed=0, zones=("a", "b"), n_shards=2,
                                 link_latency_s=0.5,
                                 trace_capacity=4096)
        ctx_a, ctx_b = sharded.zone("a"), sharded.zone("b")
        counter = [0]

        def on_msg(topic, payload):
            counter[0] += 1

        ctx_b.subscribe("bench.relay.*", on_msg)

        def sender():
            timeout = ctx_a.sim.timeout
            publish = ctx_a.publish
            with ctx_a.tracer.start_span("bench.relay.batch",
                                         layer="bench"):
                for i in range(n_ops):
                    yield timeout(0.01)
                    publish(f"bench.relay.m{i % _TOPIC_CYCLE}",
                            {"zone": "a", "time_s": i * 0.01, "up": 990,
                             "utilization": 0.42, "energy_j": 1.5e3,
                             "failures": i, "repairs": 0})

        ctx_a.sim.process(sender())
        sharded.run(until=n_ops * 0.01 + 2.0)
    return n_ops, run


@scenario("shard.metrics.merge")
def _shard_metrics_merge(quick: bool):
    """Deterministic metrics aggregation: fold realistic per-zone
    payloads (labelled counters, gauges, histograms) into a fresh
    global registry — the exact coordinator-side operation behind every
    ``aggregate_metrics()`` call on either sharded backend."""
    from repro.obs.metrics import MetricsRegistry

    n_ops = 200 if quick else 2_000
    source = MetricsRegistry()
    for i in range(8):
        counter = source.counter(f"bench.fleet.c{i}", label_key="zone")
        counter.value = 100 + i
        counter.labels.update(
            {f"zone-{z:02d}": 10 + z for z in range(8)})
        source.gauge(f"bench.fleet.g{i}").set(float(i))
        histogram = source.histogram(f"bench.fleet.h{i}")
        for value in (0.001, 0.1, 5.0):
            histogram.observe(value)
    payload = source.to_payload()

    def run():
        for _ in range(n_ops):
            registry = MetricsRegistry()
            for _zone in range(8):
                registry.merge_payload(payload)
            registry.to_payload()
    return n_ops, run
