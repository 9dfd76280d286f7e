"""The four end-to-end workloads and the layer boundaries they trace.

Every workload is a closed loop: one op starts when the previous one
ends, on the benchmark's own thread (plus at most two shard worker
processes for ``scale-100k-x2``). A *block* is the workload's fixed unit
of work — one 100-epoch continuum run, or a fixed list of consecutive
seeds — and a run repeats blocks until its time is up, so every block
does the same work and is checked against the first one (or against
the pinned digests).

The program is imported lazily, inside the workload constructors, so
``run.py`` can time the imports as part of set-up and fail cleanly when
the program's sources are missing.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import math
import time
import traceback
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from tracing import SpanRecorder, Target

HERE = Path(__file__).resolve().parent

#: The default seed, whose 100k digests the README quotes;
#: ``digests.json`` pins seeds 0-31 so most seeds check against a
#: reference.
DEFAULT_SEED = 0

#: Modules each workload imports — timed in-process and, for the
#: set-up median, in fresh interpreters.
MODULES = {
    "scale-100k": ("repro.continuum.scale", "repro.runtime.shard",
                   "repro.continuum.simulator", "repro.continuum.fleet"),
    "scale-100k-x2": ("repro.continuum.scale", "repro.runtime.parallel",
                      "repro.runtime.shard"),
    "recovery": ("repro.chaos.scorecard", "repro.kube", "repro.mirto",
                 "repro.kb", "repro.net", "repro.security"),
    "dpe-deploy": ("repro.dpe", "repro.tosca", "repro.usecases",
                   "repro.kube", "repro.mirto.proxies", "repro.security"),
}


def now() -> float:
    return time.perf_counter()


class _Item:
    __slots__ = ("key", "rank", "value")

    def __init__(self, key: str, rank: int, value: tuple):
        self.key, self.rank, self.value = key, rank, value


def reference_ms() -> float:
    """Time a fixed pure-Python mix (objects, dicts, strings, a keyed
    sort, a JSON round trip) that runs none of the program's code.

    The shared host this benchmark runs on changes speed by up to ~1.6x
    over seconds to minutes, and the program's ops slow with it; the
    ratio of an op's time to this reference, timed just before it,
    stays within a few percent. See ``report.REFERENCE_MS``.
    """
    t = now()
    table: dict = {}
    items = []
    for i in range(2000):
        key = f"k{i % 211}:{i}"
        table[key] = (i, key, [i, i + 1])
        items.append(_Item(key, (i * 7919) % 1009, table[key]))
    items.sort(key=lambda item: item.rank)
    text = json.dumps([[item.rank, item.key] for item in items[:700]])
    if len(json.loads(text)) + sum(len(v[2]) for v in table.values()) \
            != 4700:
        raise AssertionError("reference mix computed a wrong result")
    return (now() - t) * 1e3


@dataclass
class Block:
    """One block's measurements and output-check results."""

    traced: bool
    setup_s: float
    op_ms: list = field(default_factory=list)
    #: ``reference_ms()`` timed just before each op in ``op_ms``.
    ref_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float | None = None
    #: Counters read from the program after the block (summed).
    facts: dict = field(default_factory=dict)
    #: Per-op fingerprints compared across blocks (determinism check).
    fingerprints: list = field(default_factory=list)
    #: Simulated/modelled outcomes (repeat exactly across blocks).
    outcomes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)


def _metric(payload: dict, name: str) -> float:
    """Value of an exported counter/gauge in a metrics payload (0 when
    the program did not register it in this run)."""
    data = payload.get(name)
    return data["value"] if data else 0


def _add(facts: dict, key: str, value: float) -> None:
    facts[key] = facts.get(key, 0) + value


def _settle() -> None:
    """Collect the previous op's garbage before timing the next op.

    Without this, a full collection triggered by garbage the earlier
    ops left behind lands on whichever op happens to cross the
    threshold, and its ~2x time decides a tail percentile by chance.
    Each op still pays for the collections its own allocations cause.
    """
    gc.collect()


def _where(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (f"{type(exc).__name__}: {exc} "
            f"({Path(frame.filename).name}:{frame.lineno})")


# -- scale-100k / scale-100k-x2 ---------------------------------------------

class ScaleWorkload:
    """``ScaleConfig.metro_100k()`` driven one barrier epoch per
    ``run(until=...)`` call; op = one epoch, block = the whole horizon.

    ``workers=0`` runs the in-process ``ShardedContext``; ``workers>=1``
    the ``ParallelShardedContext`` with that many worker processes.
    """

    def __init__(self, seed: int, workers: int = 0, tiny: bool = False):
        from repro.continuum.scale import ScaleConfig
        self.name = "scale-100k-x2" if workers else "scale-100k"
        self.workers = workers
        self.tiny = tiny
        if tiny:
            self.config = ScaleConfig(
                devices=800, zones=4, shards=4, horizon_s=100.0,
                seed=seed, telemetry_period_s=2.0, link_latency_s=10.0,
                barrier_record_every=10)
        else:
            self.config = ScaleConfig.metro_100k(seed=seed)
        self.epochs = math.ceil(self.config.horizon_s
                                / self.config.link_latency_s)
        pinned = {} if tiny else json.loads(
            (HERE / "digests.json").read_text())["metro_100k"]
        self.pinned = pinned.get(str(seed))

    def warmup(self) -> None:
        """No warm-up: a block is a whole 100k run; the median over
        blocks absorbs the first one's cold caches."""

    def targets(self) -> list[Target]:
        from repro.continuum.fleet import DeviceFleet
        from repro.continuum.simulator import Simulator
        from repro.runtime import shard
        from repro.runtime.parallel import ParallelShardedContext
        if self.workers:
            # Zones run in worker processes; their time comes from the
            # ShardProfiler rows, so only coordinator calls are wrapped.
            return [
                Target(ParallelShardedContext, "run", "runtime.epoch",
                       "runtime"),
                Target(ParallelShardedContext, "digest",
                       "runtime.trace.digest", "runtime"),
            ]
        return [
            Target(shard.ShardedContext, "run", "runtime.epoch", "runtime"),
            Target(shard.ShardedContext, "digest", "runtime.trace.digest",
                   "runtime"),
            Target(shard, "flush_zone_inbox", "runtime.relay.flush",
                   "runtime"),
            Target(shard, "relay_deliver", "obs.relay_deliver", "obs"),
            Target(Simulator, "run", "continuum.sim.run", "continuum"),
            Target(DeviceFleet, "step", "continuum.fleet.step",
                   "continuum"),
        ]

    def _build(self, profile: bool):
        from repro.continuum.scale import (build_scale_zone,
                                           finalize_scale_zone)
        config = replace(self.config, profile=profile)
        names = config.zone_names()
        if self.workers:
            from repro.runtime.parallel import ParallelShardedContext
            return ParallelShardedContext(
                seed=config.seed, zones=names, workers=self.workers,
                link_latency_s=config.link_latency_s,
                barrier_record_every=config.barrier_record_every,
                trace_capacity=config.trace_capacity,
                zone_builder=build_scale_zone, zone_args=config,
                zone_finalizer=finalize_scale_zone, profile=profile)
        from repro.runtime.shard import ShardedContext
        sharded = ShardedContext(
            seed=config.seed, zones=names, n_shards=config.shards,
            link_latency_s=config.link_latency_s,
            barrier_record_every=config.barrier_record_every,
            trace_capacity=config.trace_capacity, profile=profile)
        for name in names:
            build_scale_zone(sharded.zone(name), name, config)
        return sharded

    def run_block(self, recorder: SpanRecorder | None = None) -> Block:
        block = Block(traced=recorder is not None, setup_s=0.0,
                      attempted=self.epochs)
        horizon = self.config.horizon_s
        sharded = None
        try:
            t0 = now()
            sharded = self._build(profile=block.traced)
            block.setup_s = now() - t0
            k = 0
            while sharded.now < horizon:
                k += 1
                ref = reference_ms()
                t = now()
                sharded.run(until=min(k * sharded.epoch_s, horizon))
                block.op_ms.append((now() - t) * 1e3)
                block.ref_ms.append(ref)
            block.wall_s = sum(block.op_ms) / 1e3
            if self.workers:
                sharded.finalize()
        except Exception as exc:  # a failed op is counted, not raised
            block.fail(self.epochs - len(block.op_ms), _where(exc))
            return block
        finally:
            if self.workers and sharded is not None:
                sharded.close()
        digest = sharded.digest()
        payload = sharded.snapshot_observability()["metrics"]
        metrics_digest = hashlib.sha256(json.dumps(
            payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        block.fingerprints = [(digest, metrics_digest,
                               sharded.events_executed, sharded.epoch)]
        facts = block.facts
        coordinator = sharded.metrics.to_payload()
        facts["epochs"] = sharded.epoch
        facts["events"] = sharded.events_executed
        facts["relay_messages"] = _metric(coordinator,
                                          "runtime.shard.relay.messages")
        facts["relay_routed"] = _metric(coordinator,
                                        "runtime.shard.relay.routed")
        facts["trace_batches"] = _metric(coordinator,
                                         "runtime.shard.trace.batches")
        facts["fleet_steps"] = _metric(payload, "continuum.fleet.steps")
        facts["bus_publishes"] = _metric(payload, "runtime.bus.publishes")
        facts["obs_spans"] = _metric(payload, "runtime.tracer.spans")
        if sharded.profiler is not None:
            facts["advance_ns"] = sum(sharded.profiler.advance_ns)
            facts["wait_ns"] = sum(sharded.profiler.wait_ns)
            facts["workers"] = [
                {"advance_ns": a, "wait_ns": w, "relay": r}
                for a, w, r in zip(sharded.profiler.advance_ns,
                                   sharded.profiler.wait_ns,
                                   sharded.profiler.relay)]
        return block

    def reference(self) -> tuple | None:
        """Expected ``(trace, metrics, events, epochs)``: the pinned
        digests, or — for an unpinned seed on the worker backend — the
        in-process twin (run untimed, after the measurement)."""
        if self.pinned is not None:
            return (self.pinned["trace"], self.pinned["metrics"],
                    self.pinned["events"], self.epochs)
        if self.workers:
            twin = ScaleWorkload(self.config.seed, 0, self.tiny)
            block = twin.run_block()
            return block.fingerprints[0] if block.fingerprints else None
        return None

    def verify(self, blocks: list[Block]) -> None:
        expected = self.reference()
        for block in blocks:
            if not block.fingerprints:
                continue
            got = block.fingerprints[0]
            if expected is None:
                expected = got  # unpinned seed: blocks must agree
            if got != expected:
                block.fail(block.attempted - block.failed,
                           f"digest mismatch: got {got[0][:16]}/"
                           f"{got[1][:16]} events={got[2]} epochs={got[3]},"
                           f" expected {expected[0][:16]}/"
                           f"{expected[1][:16]} events={expected[2]} "
                           f"epochs={expected[3]}")


# -- recovery -----------------------------------------------------------------

def _scorecard_module():
    # ``repro.chaos`` re-exports a *function* named ``scorecard`` that
    # shadows the submodule attribute, so fetch the module itself.
    return importlib.import_module("repro.chaos.scorecard")


class RecoveryWorkload:
    """op = ``run_scenario(seed, "full", horizon_s=40)`` + ``score_run``;
    block = a fixed list of consecutive seeds."""

    name = "recovery"

    #: Campaigns (consecutive seeds) per block: ~0.7 s of work.
    per_block = 10

    def __init__(self, seed: int, tiny: bool = False):
        from repro.chaos.scorecard import build_campaign
        self.seeds = [seed + i for i in range(2 if tiny else self.per_block)]
        campaign = build_campaign("full")
        self.expected_mutations = {
            (action.kind, phase) for action in campaign.actions
            for phase in ("begin", "end")}

    def targets(self) -> list[Target]:
        from repro.continuum import infrastructure
        from repro.continuum.simulator import Simulator
        from repro.kb.store import KnowledgeBase
        from repro.kube.cluster import KubeCluster
        from repro.mirto.engine import CognitiveEngine
        from repro.mirto.manager import WorkloadManager
        from repro.mirto.mape import MapeLoop
        from repro.mirto.placement import PlacementStrategy
        from repro.net.topology import Network
        from repro.security.primitives import sha2
        scorecard = _scorecard_module()

        def on_solve(args, kwargs, result, recorder):
            request = args[1] if len(args) > 1 else kwargs["request"]
            recorder.count("placement_nodes",
                           sum(s.nodes for s in result.stats))
            recorder.count("placement_optimal", 1 if result.optimal else 0)
            recorder.count("placement_warm",
                           0 if request.warm_start is None else 1)

        return [
            Target(infrastructure, "build_reference_infrastructure",
                   "continuum.infra.build", "continuum"),
            Target(CognitiveEngine, "__init__", "mirto.engine.build",
                   "mirto"),
            Target(Simulator, "run", "continuum.sim.run", "continuum"),
            Target(MapeLoop, "iterate", "mirto.mape.iterate", "mirto"),
            Target(MapeLoop, "sense", "mirto.mape.sense", "mirto"),
            Target(MapeLoop, "analyze", "mirto.mape.analyze", "mirto"),
            Target(MapeLoop, "plan", "mirto.mape.plan", "mirto"),
            Target(MapeLoop, "execute", "mirto.mape.execute", "mirto"),
            Target(WorkloadManager, "deploy", "mirto.deploy", "mirto"),
            Target(PlacementStrategy, "solve", "mirto.placement.solve",
                   "mirto", on_solve),
            Target(KnowledgeBase, "put", "kb.put", "kb"),
            Target(KubeCluster, "reconcile", "kube.reconcile", "kube"),
            Target(Network, "path", "net.path", "net"),
            Target(sha2, "sha256", "security.sha256", "security"),
            Target(sha2, "hmac", "security.hmac", "security"),
            Target(scorecard, "score_run", "chaos.score", "chaos"),
        ]

    def warmup(self) -> None:
        from repro.chaos.scorecard import run_scenario, score_run
        score_run(run_scenario(self.seeds[0], "full", horizon_s=40.0))

    def run_block(self, recorder: SpanRecorder | None = None) -> Block:
        scorecard = _scorecard_module()
        block = Block(traced=recorder is not None, setup_s=0.0,
                      attempted=len(self.seeds))
        scores = []
        for seed in self.seeds:
            _settle()
            ref = reference_ms()
            t = now()
            span = recorder.open("bench.op", "bench") if recorder else None
            try:
                # Module attributes, so a traced block's wrappers apply.
                run = scorecard.run_scenario(seed, "full", horizon_s=40.0)
                score = scorecard.score_run(run)
            except Exception as exc:
                block.fail(1, f"seed {seed}: {_where(exc)}")
                block.fingerprints.append(None)
                continue
            finally:
                if span is not None:
                    recorder.close(span)
            block.op_ms.append((now() - t) * 1e3)
            block.ref_ms.append(ref)
            block.fingerprints.append(json.dumps(score, sort_keys=True))
            problems = self.check(run, score)
            if problems:
                block.fail(1, f"seed {seed}: " + "; ".join(problems))
            scores.append(score)
            self.collect(block.facts, run, score)
        block.wall_s = sum(block.op_ms) / 1e3
        if scores:
            n = len(scores)
            block.outcomes = {
                "mttr_sim_s": sum(s["mttr_s"] for s in scores) / n,
                "availability": sum(s["availability"] for s in scores) / n,
                "tasks_lost": sum(s["tasks_lost"] for s in scores) / n,
                "slo_violations": sum(s["slo_violations"] for s in scores),
            }
        return block

    def check(self, run: dict, score: dict) -> list[str]:
        from repro.kube import PodPhase
        problems = []
        deployments = run["engine"].manager.workload.deployments
        if score["deployments"] != 1 or len(deployments) != 1:
            problems.append(f"{score['deployments']} deployments, want 1")
        placed = (PodPhase.SCHEDULED, PodPhase.RUNNING)
        stray = sorted(pod.name for pod in run["cluster"].pods.values()
                       if pod.phase not in placed)
        if stray:
            problems.append(f"pods not Scheduled/Running: {stray}")
        executed = {(kind, phase)
                    for _, kind, phase in run["runner"].executed}
        missing = self.expected_mutations - executed
        if missing:
            problems.append(f"campaign mutations missing: {sorted(missing)}")
        return problems

    @staticmethod
    def collect(facts: dict, run: dict, score: dict) -> None:
        payload = run["ctx"].metrics.to_payload()
        raft = run["engine"].kb.cluster
        for key, name in (
                ("events", "continuum.sim.events_executed"),
                ("bus_publishes", "runtime.bus.publishes"),
                ("obs_spans", "runtime.tracer.spans"),
                ("gateway_deliveries", "continuum.gateway.deliveries"),
                ("gateway_dropped", "continuum.gateway.dropped"),
                ("mape_iterations", "mirto.mape.iterations"),
                ("cache_hits", "mirto.placement.cache_hits"),
                ("cache_misses", "mirto.placement.cache_misses"),
                ("kube_reconciles", "kube.cluster.reconciles"),
                ("kube_binds", "kube.cluster.pods_scheduled"),
                ("kube_evictions", "kube.cluster.evictions")):
            _add(facts, key, _metric(payload, name))
        _add(facts, "raft_messages", raft.messages_sent)
        _add(facts, "raft_dropped", raft.messages_dropped)
        _add(facts, "mutations", score["mutations_executed"])

    def verify(self, blocks: list[Block]) -> None:
        _verify_fingerprints(blocks, self.seeds)


# -- dpe-deploy ---------------------------------------------------------------

class DpeDeployWorkload:
    """op = ``DesignFlow(seed).run`` (mobility / telerehab by seed
    parity, ADT, budget 8.0) → ``CsarArchive.from_bytes`` →
    ``ToscaValidator.validate`` → ``DeploymentProxy.deploy_service`` onto
    an fpga-edge + cloud federation; block = fixed consecutive seeds."""

    name = "dpe-deploy"

    #: Flows (consecutive seeds, both use cases) per block: ~0.9 s.
    per_block = 20

    def __init__(self, seed: int, tiny: bool = False):
        self.seeds = [seed + i for i in range(2 if tiny else self.per_block)]

    def targets(self) -> list[Target]:
        from repro.dpe import adt, dse, hls, modeling
        from repro.dpe.mlir import passes
        from repro.kube.cluster import KubeCluster
        from repro.mirto.proxies import DeploymentProxy
        from repro.security.primitives import sha2
        from repro.tosca.csar import CsarArchive
        from repro.tosca.validator import ToscaValidator

        def on_explore(args, kwargs, result, recorder):
            recorder.count("dse_evaluations", len(result))

        return [
            Target(modeling.DesignFlow, "run", "dpe.flow", "dpe"),
            Target(modeling, "estimate_kpis", "dpe.kpi", "dpe"),
            Target(adt, "synthesize_countermeasures", "dpe.adt", "dpe"),
            Target(dse.GeneticExplorer, "explore", "dpe.dse.explore", "dpe",
                   on_explore),
            Target(dse, "pareto_front", "dpe.dse.pareto", "dpe"),
            Target(hls, "synthesize", "dpe.hls", "dpe"),
            Target(passes, "quantize_to_base2", "dpe.quantize", "dpe"),
            Target(CsarArchive, "to_bytes", "tosca.csar_write", "tosca"),
            Target(CsarArchive, "from_bytes", "tosca.csar_read", "tosca"),
            Target(ToscaValidator, "validate", "tosca.validate", "tosca"),
            Target(DeploymentProxy, "deploy_service", "kube.deploy_service",
                   "kube"),
            Target(KubeCluster, "reconcile", "kube.reconcile", "kube"),
            Target(sha2, "sha256", "security.sha256", "security"),
        ]

    def _inputs(self) -> list:
        from repro.usecases import mobility, telerehab
        inputs = []
        for seed in self.seeds:
            case = mobility if seed % 2 == 0 else telerehab
            inputs.append((seed, case.build_scenario(), case.build_adt()))
        return inputs

    def warmup(self) -> None:
        seed, scenario, adt_tree = self._inputs()[0]
        self.op(seed, scenario, adt_tree)

    @staticmethod
    def _federation():
        from repro.kube import (ContinuumFederation, KubeCluster, Node,
                                ResourceRequest)
        federation = ContinuumFederation()
        edge = KubeCluster("edge")
        edge.add_node(Node("fpga", ResourceRequest(4000, 8 * 1024**3),
                           labels={"security-level": "high"}))
        cloud = KubeCluster("cloud")
        cloud.add_node(Node("srv", ResourceRequest(64000, 256 * 1024**3),
                            labels={"security-level": "high"}))
        federation.add_cluster(edge)
        federation.add_cluster(cloud)
        federation.peer("edge", "cloud")
        return federation

    def op(self, seed: int, scenario, adt_tree) -> tuple:
        from repro.dpe import DesignFlow
        from repro.mirto.proxies import DeploymentProxy
        from repro.tosca import CsarArchive, ToscaValidator
        spec = DesignFlow(seed=seed).run(scenario, adt_tree,
                                         defence_budget=8.0)
        archive = CsarArchive.from_bytes(spec.csar_bytes)
        ToscaValidator().validate(archive.service)
        federation = self._federation()
        proxy = DeploymentProxy(federation, "edge")
        proxy.deploy_service(archive.service)
        phases = proxy.service_phases(archive.service.name)
        return spec, archive, federation, phases

    def run_block(self, recorder: SpanRecorder | None = None) -> Block:
        t0 = now()
        inputs = self._inputs()
        block = Block(traced=recorder is not None, setup_s=now() - t0,
                      attempted=len(inputs))
        edps = []
        for seed, scenario, adt_tree in inputs:
            _settle()
            ref = reference_ms()
            t = now()
            span = recorder.open("bench.op", "bench") if recorder else None
            try:
                spec, archive, federation, phases = self.op(
                    seed, scenario, adt_tree)
            except Exception as exc:
                block.fail(1, f"seed {seed}: {_where(exc)}")
                block.fingerprints.append(None)
                continue
            finally:
                if span is not None:
                    recorder.close(span)
            block.op_ms.append((now() - t) * 1e3)
            block.ref_ms.append(ref)
            block.fingerprints.append(_csar_fingerprint(spec.csar_bytes))
            problems = self.check(spec, archive, phases)
            if problems:
                block.fail(1, f"seed {seed}: " + "; ".join(problems))
            if spec.operating_points:
                edps.append(min(p["latency_s"] * p["energy_j"]
                                for p in spec.operating_points))
            self.collect(block.facts, spec, federation)
        block.wall_s = sum(block.op_ms) / 1e3
        if edps:
            block.outcomes = {"dse_best_edp": sum(edps) / len(edps)}
        return block

    @staticmethod
    def check(spec, archive, phases: dict) -> list[str]:
        problems = []
        if archive.service.name != spec.service.name or \
                sorted(archive.service.node_templates) != \
                sorted(spec.service.node_templates):
            problems.append("CSAR service template did not round-trip")
        if archive.artifact_inventory() != spec.artifact_inventory:
            problems.append("CSAR artifacts did not round-trip")
        points = archive.artifacts.get("meta/operating-points.json")
        if not spec.operating_points or points is None or \
                json.loads(points) != spec.operating_points:
            problems.append("operating points missing or altered")
        if not any(path.startswith("bitstreams/")
                   for path in archive.artifacts):
            problems.append("no bitstream artifact")
        containers = len(spec.service.containers())
        placed = [p for p in phases.values()
                  if p in ("Scheduled", "Running")]
        if len(phases) != containers or len(placed) != containers:
            problems.append(f"{len(placed)}/{containers} component pods "
                            f"placed ({sorted(set(phases.values()))})")
        return problems

    @staticmethod
    def collect(facts: dict, spec, federation) -> None:
        _add(facts, "flows", 1)
        _add(facts, "csar_bytes", len(spec.csar_bytes))
        for cluster in federation.clusters.values():
            payload = cluster.ctx.metrics.to_payload()
            for key, name in (
                    ("bus_publishes", "runtime.bus.publishes"),
                    ("obs_spans", "runtime.tracer.spans"),
                    ("kube_reconciles", "kube.cluster.reconciles"),
                    ("kube_binds", "kube.cluster.pods_scheduled"),
                    ("kube_evictions", "kube.cluster.evictions")):
                _add(facts, key, _metric(payload, name))

    def verify(self, blocks: list[Block]) -> None:
        _verify_fingerprints(blocks, self.seeds)


def _csar_fingerprint(data: bytes) -> str:
    """SHA-256 over a CSAR's entry names and contents. The zip bytes
    themselves carry write-time timestamps, so they differ run to run
    even when every entry is identical."""
    digest = hashlib.sha256()
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        for name in sorted(archive.namelist()):
            digest.update(name.encode() + b"\0" + archive.read(name))
    return digest.hexdigest()


def _verify_fingerprints(blocks: list[Block], seeds: list[int]) -> None:
    """Every block runs the same seeds: op *i* of each block must
    reproduce op *i* of the first block that completed it."""
    reference: dict[int, str] = {}
    for block in blocks:
        for i, fingerprint in enumerate(block.fingerprints):
            if fingerprint is None:
                continue
            expected = reference.setdefault(i, fingerprint)
            if fingerprint != expected:
                block.fail(1, f"seed {seeds[i]}: output differs from an "
                              f"earlier block (nondeterministic)")


def make(name: str, seed: int, tiny: bool = False):
    """The workload object for *name*."""
    if name == "scale-100k":
        return ScaleWorkload(seed, workers=0, tiny=tiny)
    if name == "scale-100k-x2":
        return ScaleWorkload(seed, workers=2, tiny=tiny)
    if name == "recovery":
        return RecoveryWorkload(seed, tiny=tiny)
    if name == "dpe-deploy":
        return DpeDeployWorkload(seed, tiny=tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = tuple(MODULES)
