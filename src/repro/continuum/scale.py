"""Continuum-scale scenario: a sharded city fabric of vectorized fleets.

This is the 10k-device / 8-zone proof scenario behind
``examples/continuum_scale.py`` and the ``sim.sharded.10k`` benchmark,
and — via :meth:`ScaleConfig.metro_100k` — the 100k-device / 16-zone
flagship the worker executor targets. Each zone hosts one
:class:`~repro.continuum.fleet.DeviceFleet` (vectorized churn +
telemetry), zone 0 aggregates every zone's fleet telemetry across shard
boundaries, and one zone suffers a correlated outage mid-run — so a
single scenario exercises the epoch relay, the chaos accounting and the
merged-trace determinism contract at scale.

``run_scale_scenario(config, n_shards=1)`` is the single-shard twin of
``run_scale_scenario(config)``; their merged traces must be
byte-identical (``ScaleResult.digest``) and their scorecards equal —
tests and the CI ``scale-smoke`` job pin both. ``run_scale_scenario(
config, workers=N)`` runs the same scenario in N worker processes; the
digest contract extends across the process boundary (workers ==
in-process == single-shard, byte for byte).

The zone build steps live in module-level functions
(:func:`build_scale_zone` / :func:`finalize_scale_zone`) because worker
processes re-run them per zone; the in-process executor calls the very
same functions in zone-rank order, so both construct zones through one
code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.continuum.fleet import DeviceFleet
from repro.runtime.shard import ShardedContext


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs of the scale scenario; defaults are the flagship 10k run."""

    devices: int = 10_000
    zones: int = 8
    shards: int = 8
    #: Worker processes for ``run_scale_scenario``: 0 runs every shard
    #: in process, N >= 1 runs N worker processes.
    workers: int = 0
    horizon_s: float = 1000.0
    seed: int = 0
    telemetry_period_s: float = 10.0
    #: Publish fleet telemetry every Nth step (draws still happen every
    #: step — the RNG stream position is part of the replay contract).
    telemetry_every: int = 1
    #: Minimum cross-zone link latency — the epoch lookahead. A metro
    #: backbone hop between zone aggregation points.
    link_latency_s: float = 0.5
    fail_rate_per_s: float = 2e-4
    repair_rate_per_s: float = 5e-2
    #: Zone index to knock dark mid-run (-1 disables the outage).
    outage_zone: int = 1
    outage_at_s: float = 300.0
    outage_duration_s: float = 60.0
    #: Sample shard.epoch.barrier records every N epochs so barrier
    #: bookkeeping does not drown the trace at fine lookaheads.
    barrier_record_every: int = 50
    trace_capacity: int = 65536
    #: Enable the opt-in :class:`~repro.obs.profiler.ShardProfiler`
    #: (per-epoch advance/wait wall times — nondeterministic, never part
    #: of the digest; see ``repro-obs shards``).
    profile: bool = False

    def zone_names(self) -> list[str]:
        return [f"zone-{i:02d}" for i in range(self.zones)]

    @classmethod
    def metro_100k(cls, **overrides: Any) -> "ScaleConfig":
        """The 100k-device / 16-zone flagship: a metro region of 16
        aggregation zones over a 10 ms backbone. The fat lookahead
        gives 100 epochs over the kilosecond horizon — enough barriers
        to exercise the relay, few enough that coordination cost stays
        a rounding error next to 800k vectorized fleet steps."""
        config = cls(devices=100_000, zones=16, shards=16, workers=4,
                     horizon_s=1000.0, telemetry_period_s=2.0,
                     link_latency_s=10.0, barrier_record_every=10)
        return replace(config, **overrides) if overrides else config


def build_scale_zone(ctx, zone: str, config: ScaleConfig) -> dict:
    """Construct one zone: its fleet, its outage, and — on zone 0 —
    the cross-zone telemetry aggregator. Called per zone in rank order,
    inside the zone's worker process when there are workers.
    """
    names = config.zone_names()
    index = names.index(zone)
    state: dict = {}
    if index == 0:
        # Zone 0 aggregates fleet telemetry from every zone; samples
        # from other zones cross shard boundaries through the epoch
        # relay.
        aggregate: dict = {"samples": 0, "zones": {}}

        def on_telemetry(topic: str, payload: dict) -> None:
            aggregate["samples"] += 1
            aggregate["zones"][payload["zone"]] = payload["up"]

        ctx.subscribe("shard.fleet.telemetry.*", on_telemetry)
        state["aggregate"] = aggregate

        # Zone 0 also watches chaos events continuum-wide. The handler
        # opens a span, so a fault injected in another zone produces a
        # cross-zone causal tree: ``continuum.fault.inject`` (origin
        # zone) → ``shard.relay.deliver`` → ``scale.outage.watch``
        # (zone 0) — one trace id across zones and worker processes.
        def on_chaos(topic: str, payload: dict) -> None:
            with ctx.tracer.start_span("scale.outage.watch",
                                       layer="continuum", zone=zone,
                                       origin=payload["zone"]):
                aggregate["outages"] = aggregate.get("outages", 0) + 1

        ctx.subscribe("chaos.zone.*", on_chaos)
    base, rem = divmod(config.devices, config.zones)
    fleet = DeviceFleet(
        zone, base + (1 if index < rem else 0), ctx=ctx,
        fail_rate_per_s=config.fail_rate_per_s,
        repair_rate_per_s=config.repair_rate_per_s)
    if index == config.outage_zone:
        fleet.schedule_outage(config.outage_at_s, config.outage_duration_s)
    fleet.start(config.telemetry_period_s, every=config.telemetry_every)
    state["fleet"] = fleet
    return state


def finalize_scale_zone(state: dict, zone: str,
                        config: ScaleConfig) -> dict:
    """Reduce one zone's build state to a picklable result."""
    result = {"scorecard": state["fleet"].scorecard()}
    if "aggregate" in state:
        result["aggregate"] = state["aggregate"]
    return result


@dataclass
class ScaleResult:
    """A finished scale run: the sharded context, the per-zone
    scorecards and the zone-0 aggregate."""

    sharded: ShardedContext
    aggregate: dict
    zone_scorecards: list[dict]

    def digest(self) -> str:
        """SHA-256 of the merged trace (shard- and worker-count-
        invariant)."""
        return self.sharded.digest()

    def scorecard(self) -> dict:
        """Deterministic run summary: per-zone resilience + aggregation.

        Equal — key for key, float for float — between a sharded run,
        its single-shard twin and a multiprocess run.
        """
        return {
            "devices": sum(z["devices"] for z in self.zone_scorecards),
            "epochs": self.sharded.epoch,
            "zones": self.zone_scorecards,
            "aggregator": self.aggregate,
        }


def run_scale_scenario(config: ScaleConfig = ScaleConfig(),
                       n_shards: int | None = None,
                       workers: int | None = None) -> ScaleResult:
    """Build and run the scenario.

    *n_shards* overrides ``config.shards`` (pass 1 for the determinism
    twin); *workers* overrides ``config.workers`` — 0 runs in process,
    N >= 1 in that many worker processes.
    """
    names = config.zone_names()
    with ShardedContext(
            seed=config.seed, zones=names,
            n_shards=config.shards if n_shards is None else n_shards,
            workers=config.workers if workers is None else workers,
            link_latency_s=config.link_latency_s,
            barrier_record_every=config.barrier_record_every,
            trace_capacity=config.trace_capacity,
            zone_builder=build_scale_zone, zone_args=config,
            zone_finalizer=finalize_scale_zone,
            profile=config.profile) as sharded:
        sharded.run(until=config.horizon_s)
        by_zone = sharded.finalize()
    return ScaleResult(
        sharded=sharded, aggregate=by_zone[names[0]]["aggregate"],
        zone_scorecards=[by_zone[name]["scorecard"] for name in names])
