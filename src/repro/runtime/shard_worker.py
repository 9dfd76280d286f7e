"""Worker-process side of the multiprocess shard backend.

One worker process hosts one shard: a single
:class:`~repro.continuum.simulator.Simulator` heap shared by a
contiguous rank-block of zones, each with its own
:class:`~repro.runtime.context.RuntimeContext` — exactly the layout a
sequential :class:`~repro.runtime.shard.ShardedContext` gives a shard.
The worker speaks a small message protocol over a duplex pipe with the
coordinator (:class:`~repro.runtime.parallel.ParallelShardedContext`):

``("advance", t_next, taps)``
    install coordinator-directed relay taps (derived from the previous
    barrier's post-flush pattern reports — the sequential backend also
    refreshes taps after the flush, and nothing publishes between a
    flush and the next epoch, so the capture set is identical), run the
    heap to the epoch boundary, reply ``("barrier", remote_outboxes,
    trace_batches, stats)``. Outboxes destined for zones on *other*
    workers are shipped as value snapshots; locally-destined buffers
    stay in place for the flush.
``("flush", epoch, t_barrier, remote_in, record_barrier)``
    barrier injection for the worker's local zones — source batches
    merged from local buffers and coordinator-routed remote batches in
    *global* rank order, messages in send order — then reply
    ``("flushed", pattern_report, metrics_report, stats)`` so
    subscriptions added during the epoch *or* by flush-time record
    handlers reach the coordinator's relay model before the next epoch
    runs, and per-zone metric deltas keep the coordinator's replica
    payloads current (deterministic aggregation — see
    ``ShardedContext.aggregate_metrics``).
``("sync",)`` / ``("finalize",)`` / ``("close",)``
    drain remaining trace records (plus stats and metric deltas); run
    the zone finalizers and return their results; exit.

Determinism: the worker reuses the *same* tap/delivery/injection
primitives as the sequential backend (``add_relay_tap``,
``flush_zone_inbox`` — single implementation, see
:mod:`repro.runtime.shard`), the zone seed subtree hangs off the zone
name, and tap installation order only perturbs bus bookkeeping, never
delivery order. Any exception is wrapped as ``("error", traceback)`` so
the coordinator raises instead of deadlocking on a silent barrier.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.rng import derive_seed
from repro.obs.metrics import payload_delta
from repro.obs.profiler import ShardProfiler
from repro.runtime.context import RuntimeContext
from repro.runtime.shard import (
    PARTITION_TOPIC,
    ZoneRuntime,
    add_relay_tap,
    flush_zone_inbox,
)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild its shard of the scenario.

    ``builder``/``finalizer`` must be module-level callables (picklable
    under the ``spawn`` start method; under ``fork`` any callable
    works). ``zones`` lists *all* zone names in rank order so the worker
    can iterate sources in global rank order at flush time;
    ``local_ranks`` selects the contiguous block this worker hosts.
    """

    worker_id: int
    seed: int
    zones: tuple[str, ...]
    local_ranks: tuple[int, ...]
    start_time: float
    trace_capacity: int
    link_latency_s: float | None
    epoch_payload: float | None
    lookahead_payload: float | None
    builder: Callable[[RuntimeContext, str, Any], Any] | None
    builder_args: Any
    finalizer: Callable[[Any, str, Any], Any] | None


class ShardWorkerHost:
    """In-process shard host: builds the zones, owns the relay state.

    Also used directly (no subprocess) by ``workers=1`` parallel runs
    under test — the protocol handlers are plain methods.
    """

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        # runtime/ is the allowlisted home for direct Simulator
        # construction (continuum-lint).
        from repro.continuum.simulator import Simulator
        self.sim = Simulator(spec.start_time)
        self.zones: list[ZoneRuntime] = []
        self.by_rank: dict[int, ZoneRuntime] = {}
        self._local = set(spec.local_ranks)
        for rank in spec.local_ranks:
            name = spec.zones[rank]
            ctx = RuntimeContext(
                seed=derive_seed(spec.seed, f"shard.zone.{name}"),
                start_time=spec.start_time,
                trace_capacity=spec.trace_capacity, sim=self.sim)
            zone = ZoneRuntime(name, rank, spec.worker_id, ctx)
            self.zones.append(zone)
            self.by_rank[rank] = zone
            zone.ctx.publish(PARTITION_TOPIC, {
                "zone": name, "rank": rank,
                "epoch_s": spec.epoch_payload,
                "lookahead_s": spec.lookahead_payload,
                "time_s": spec.start_time})
        self.state: dict[int, Any] = {}
        if spec.builder is not None:
            for zone in self.zones:
                self.state[zone.rank] = spec.builder(
                    zone.ctx, zone.name, spec.builder_args)
        # Relay plumbing, same shape as the sequential backend: one
        # outbox/mark per (src, dest) pair, fan-out taps per refresh
        # round. Organic pattern reports skip tap subscriptions (the
        # coordinator models tap-pattern propagation itself).
        self._outbox: dict[tuple[int, int], list] = {}
        self._marks: dict[tuple[int, int], list[int]] = {}
        self._order_reported: dict[int, int] = \
            {z.rank: -1 for z in self.zones}
        self._injected = 0
        # Metrics piggybacking: the last payload snapshot shipped per
        # zone, so each reply carries only the entries that changed.
        self._metrics_sent: dict[int, dict] = \
            {z.rank: {} for z in self.zones}
        self._advance_ns = 0

    # -- protocol handlers -------------------------------------------------

    def pattern_report(self) -> dict[int, list[str]]:
        """Organic (non-tap) subscription patterns per local zone, for
        zones whose bus gained subscriptions since the last report.
        Mirrors the sequential backend's subscription watermark."""
        report: dict[int, list[str]] = {}
        for zone in self.zones:
            order = zone.ctx.bus._order
            if order == self._order_reported[zone.rank]:
                continue
            self._order_reported[zone.rank] = order
            patterns: list[str] = []
            seen: set[str] = set()
            for sub in zone.ctx.bus._subs:
                if sub.active and not sub.tap \
                        and sub.pattern not in seen:
                    seen.add(sub.pattern)
                    patterns.append(sub.pattern)
            report[zone.rank] = patterns
        return report

    def install_taps(self, directives: list[tuple[int, int, str]]) -> None:
        """Subscribe coordinator-directed relay taps on local source
        zones. One call is one refresh round: one fan-out tap per
        (src, pattern), exactly the grouping the sequential refresh
        gives a round."""
        round_taps: dict[tuple[int, str], list] = {}
        for src_rank, dest_rank, pattern in directives:
            src = self.by_rank[src_rank]
            pair = (src_rank, dest_rank)
            if pair not in self._outbox:
                self._outbox[pair] = []
                self._marks[pair] = [-1]
            add_relay_tap(round_taps, src, pattern, self._outbox[pair],
                          self._marks[pair])
            # Installing a tap bumps the bus order; that must not
            # masquerade as an organic subscription next barrier.
            self._order_reported[src_rank] = src.ctx.bus._order

    def metrics_report(self) -> dict[int, dict]:
        """Per-zone metric deltas since the last report (rank-keyed).

        Rides every reply that closes an epoch (flushed/sync/final) so
        the coordinator's per-zone replica payloads stay current; deltas
        are per-metric snapshots, so applying them is a dict update and
        ordering across zones cannot matter — the coordinator still
        applies them in (epoch, zone rank) order by construction."""
        report: dict[int, dict] = {}
        for zone in self.zones:
            current = zone.ctx.metrics.to_payload()
            delta = payload_delta(self._metrics_sent[zone.rank], current)
            if delta:
                report[zone.rank] = delta
                self._metrics_sent[zone.rank] = current
        return report

    def advance(self, t_next: float) -> None:
        t0 = ShardProfiler.clock()
        self.sim.run(until=t_next)
        self._advance_ns = ShardProfiler.clock() - t0

    def collect_remote(self) -> dict[tuple[int, int], list]:
        """Snapshot-and-clear outboxes destined for other workers. The
        buffer object itself stays in place — tap closures hold it."""
        remote: dict[tuple[int, int], list] = {}
        for (src_rank, dest_rank), batch in self._outbox.items():
            if dest_rank not in self._local and batch:
                remote[(src_rank, dest_rank)] = list(batch)
                batch.clear()
        return remote

    def flush(self, epoch: int, t_barrier: float,
              remote_in: dict[tuple[int, int], list],
              record_barrier: bool) -> None:
        """Barrier injection for local destination zones: source batches
        in global rank order (local buffers and coordinator-routed
        remote snapshots interleaved by source rank)."""
        latency = self.spec.link_latency_s or 0.0
        n = len(self.spec.zones)
        for dest in self.zones:
            batches = []
            for src_rank in range(n):
                if src_rank == dest.rank:
                    continue
                if src_rank in self._local:
                    batch = self._outbox.get((src_rank, dest.rank))
                else:
                    batch = remote_in.get((src_rank, dest.rank))
                if batch:
                    batches.append(batch)
            count = flush_zone_inbox(dest, batches, latency, epoch,
                                     t_barrier, record_barrier)
            for batch in batches:
                batch.clear()
            self._injected += count

    def drain_trace(self) -> list[tuple[int, list[tuple]]]:
        """Stream out each local zone's retained records (rank order)
        and clear the rings — sequence counters keep counting, so the
        coordinator's replica rings evict exactly like local ones."""
        batches = []
        for zone in self.zones:
            records = [(rec.seq, rec.time_s, rec.topic, rec.payload,
                        rec.span) for rec in zone.ctx.trace]
            if records:
                batches.append((zone.rank, records))
            zone.ctx.trace.clear()
        return batches

    def stats(self) -> dict[str, int]:
        return {"events": self.sim.processed_events,
                "injected": self._injected,
                "advance_ns": self._advance_ns}

    def finalize(self) -> dict[str, Any]:
        results: dict[str, Any] = {}
        if self.spec.finalizer is not None:
            for zone in self.zones:
                results[zone.name] = self.spec.finalizer(
                    self.state.get(zone.rank), zone.name,
                    self.spec.builder_args)
        return results


def worker_main(conn, spec: WorkerSpec) -> None:
    """Subprocess entry point: serve protocol messages until close.

    Every exception — build errors included — is reported as
    ``("error", traceback)`` before exit so the coordinator's barrier
    receive raises instead of hanging.
    """
    try:
        host = ShardWorkerHost(spec)
        conn.send(("ready", host.pattern_report(),
                   host.metrics_report()))
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "advance":
                _, t_next, taps = msg
                if taps:
                    host.install_taps(taps)
                host.advance(t_next)
                conn.send(("barrier", host.collect_remote(),
                           host.drain_trace(), host.stats()))
            elif cmd == "flush":
                _, epoch, t_barrier, remote_in, record = msg
                host.flush(epoch, t_barrier, remote_in, record)
                conn.send(("flushed", host.pattern_report(),
                           host.metrics_report(), host.stats()))
            elif cmd == "sync":
                conn.send(("trace", host.drain_trace(), host.stats(),
                           host.metrics_report()))
            elif cmd == "finalize":
                conn.send(("final", host.finalize(), host.drain_trace(),
                           host.stats(), host.metrics_report()))
            elif cmd == "close":
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown shard command {cmd!r}")
    except EOFError:  # coordinator went away; nothing left to report
        return
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()
