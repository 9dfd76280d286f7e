"""Zone-sharded simulation: conservative epoch barriers over zone runtimes.

City-scale scenarios (10k+ devices) cannot run through one monolithic
:class:`~repro.continuum.simulator.Simulator` heap and one global bus.
A :class:`ShardedContext` partitions the continuum *by zone*: every zone
gets its own logical runtime view (a :class:`~repro.runtime.context.
RuntimeContext` with its own RNG seed subtree, trace recorder and traced
bus), and zones are grouped onto physical shards — one ``Simulator``
heap per shard. Shards advance independently inside an epoch and
synchronize at conservative barriers.

One coordinator, two executors: a :class:`ShardHost` builds and runs a
block of zones, and the coordinator drives it through :func:`serve`
(``advance`` to the barrier, ``flush`` the relay, ``finalize``). In
process, one host holds every zone on ``n_shards`` heaps and a command
is a plain call; with ``workers=N`` each worker process
(:mod:`repro.runtime.parallel`) runs one host with one heap and the same
commands cross its pipe. Relay buffering, delivery and barrier injection
are therefore one implementation whichever executor runs them.

Determinism argument (the invariant everything here serves): the *zone*,
not the shard, is the unit of determinism. A zone's seed subtree is
derived from the root seed and the zone *name* (never the shard id), its
trace records carry zone-local sequence numbers, and zones interact only
through the epoch relay, whose buffering and delivery order is a pure
function of (epoch, zone rank, per-pair sequence). Regrouping zones onto
a different shard or worker count therefore cannot change any zone's
record stream, and the merged trace — sorted by ``(time_s, zone rank,
zone seq)`` — is byte-identical between a single-shard, an N-shard and
an N-worker run of the same scenario and seed. ``tests/test_sharded.py``
and ``tests/test_parallel_shard.py`` pin this with hypothesis properties
over random partitions and seeds.

Epoch-barrier protocol: the epoch length is bounded by the *lookahead*,
the minimum cross-zone link latency. Any message published in epoch k
(send time t) physically arrives no earlier than ``t + lookahead >=
barrier(k)``, so shards can drain epoch k without seeing each other's
traffic; at the barrier each buffered message is injected into its
destination shard at its true arrival time ``t + link_latency``.
Injection iterates destination zones in rank order, source zones in
rank order and messages in send order, and each message takes the next
NORMAL heap key in that order — the deterministic ``(epoch, zone_rank,
seq)`` delivery order. A zone's messages from one barrier ride one
:class:`~repro.continuum.simulator.TimeoutRun`, a single heap entry
that walks them in ``(time, key)`` order and delivers same-instant
arrivals back to back while they precede the heap top: the order one
timeout per message would give, without one heap step per message.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.errors import ConfigurationError, NotFoundError
from repro.core.events import _DISPATCH_CACHE_MAX, topic_matches
from repro.core.rng import derive_seed
from repro.obs.metrics import METRICS_TOPIC, MetricsRegistry, payload_delta
from repro.obs.profiler import SHARD_PROFILE_TOPIC, ShardProfiler
from repro.obs.spans import SPAN_TOPIC, _RelayScope
from repro.runtime.context import RuntimeContext
from repro.runtime.trace import TraceRecord, row_json

_INF = float("inf")

#: Topics the epoch machinery itself publishes (declared as contracts in
#: :mod:`repro.analysis.flow.topics`).
PARTITION_TOPIC = "shard.partition.assign"
BARRIER_TOPIC = "shard.epoch.barrier"
RELAY_TOPIC = "shard.relay.deliver"

#: Metric names excluded from cross-zone aggregation: they read
#: execution-detail state (the *shared* shard heap, the live ring
#: occupancy of a trace that workers drain per epoch), so their values
#: depend on the shard/worker count even though every zone-deterministic
#: fact does not. ``aggregate_metrics`` re-derives the one that has a
#: backend-invariant meaning (total events executed) from coordinator
#: state instead.
SHARD_SCOPED_METRICS = frozenset({
    "continuum.sim.events_executed",
    "runtime.trace.records",
    "runtime.trace.dropped",
})

#: Buckets for the ``runtime.shard.epoch.*`` wall-time histograms:
#: microseconds (trivial shards) up to seconds (100k-device heaps).
EPOCH_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


class ZoneRuntime:
    """One zone's logical runtime view inside a :class:`ShardedContext`.

    Owns the zone's :class:`RuntimeContext` (seed subtree, trace, bus —
    the ``Simulator`` underneath is the *shard's* heap, shared with the
    other zones grouped on that shard). Scenario code builds a zone's
    devices, fleets and subscriptions against :attr:`ctx` exactly as it
    would against a standalone context.
    """

    __slots__ = ("name", "rank", "shard", "ctx", "relay_scope")

    def __init__(self, name: str, rank: int, shard: int,
                 ctx: RuntimeContext):
        self.name = name
        self.rank = rank
        self.shard = shard
        self.ctx = ctx
        #: Reusable ambient-stack entry for :func:`relay_deliver`.
        #: Deliveries on one zone never nest (they are DES callbacks,
        #: and further relays cross a barrier first) and nothing
        #: retains the scope between deliveries — only its envelope
        #: dict, which IS rebuilt per delivery — so one object serves
        #: every delivery without a per-message allocation.
        self.relay_scope = _RelayScope({})


# -- relay primitives: relay buffering, relay delivery, barrier injection --
#
# ShardHost runs these in process and inside every worker process alike.
# Byte-identity between the executors rests on there being ONE
# implementation of them — do not fork copies.

class _ZoneRelay:
    """One source zone's relay: the hook its bus calls once a publish's
    handlers have run (:attr:`~repro.runtime.context.TracedEventBus.
    relay`). It maps each tapped pattern to the outboxes of the (src,
    dest) pairs the pattern feeds, and caches per topic the *distinct*
    outboxes its matching patterns feed, so a publish lands once in
    each outbox it reaches, whatever its handlers publish meanwhile.

    The buffered message is ``(send_s, topic, payload, span,
    recorded)``, one tuple shared by every outbox. *recorded* is the
    normalized copy (:func:`~repro.runtime.trace.jsonify`) the origin
    zone's trace record holds, so every destination zone's record
    shares it, equal to the origin record even when a handler or the
    publisher later mutates *payload*; handlers still receive
    *payload*. *span* is the envelope of the publisher's span, ambient
    again once the handlers have returned: the ``{"trace_id",
    "span_id", "parent_id"}`` dict the span already holds for its own
    publishes, shipped by reference (with workers, buffers cross pipes)
    and resumed in the destination zone by :func:`relay_deliver`: that
    is how one fault's causal tree crosses zones and worker processes.
    """

    __slots__ = ("_sim", "_stack", "_outboxes", "_cache")

    def __init__(self, ctx: RuntimeContext):
        self._sim = ctx.sim
        self._stack = ctx.tracer._stack
        #: pattern -> outboxes of the pairs it feeds.
        self._outboxes: dict[str, list[list]] = {}
        #: topic -> distinct outboxes it feeds (bounded).
        self._cache: dict[str, tuple[list, ...]] = {}

    def add(self, pattern: str, outbox: list) -> None:
        """Buffer publishes matching *pattern* into *outbox* too."""
        self._outboxes.setdefault(pattern, []).append(outbox)
        self._cache.clear()

    def __call__(self, topic: str, payload: Any,  # perf: hot
                 recorded: Any) -> None:
        outboxes = self._cache.get(topic)
        if outboxes is None:
            outboxes = self._resolve(topic)
        if not outboxes:
            return
        stack = self._stack
        msg = (self._sim.now, topic, payload,
               stack[-1].envelope if stack else None, recorded)
        for outbox in outboxes:
            outbox.append(msg)

    def _resolve(self, topic: str) -> tuple[list, ...]:
        """Resolve and cache the distinct outboxes *topic* feeds."""
        distinct: dict[int, list] = {}
        for pattern, targets in self._outboxes.items():
            if topic_matches(pattern, topic):
                for outbox in targets:
                    distinct.setdefault(id(outbox), outbox)
        if len(self._cache) >= _DISPATCH_CACHE_MAX:
            self._cache.clear()
        outboxes = self._cache[topic] = tuple(distinct.values())
        return outboxes


#: Prebuilt shape of the ``obs.span`` payload the relay fast path
#: records — copied and filled per delivery so the constant keys cost
#: one ``dict.copy`` instead of a literal rebuild.
_RELAY_SPAN_TEMPLATE = {
    "name": "shard.relay.deliver", "layer": "runtime",
    "trace_id": "", "span_id": "", "parent_id": None,
    "start_s": 0.0, "end_s": 0.0, "status": "ok", "attrs": None,
}


def relay_deliver(dest: ZoneRuntime, topic: str, payload: Any,
                  span: dict | None = None,
                  recorded: Any = None) -> None:
    """Publish a relayed message on *dest*'s bus without re-forwarding:
    the publish is traced, counted and delivered as usual but never
    reaches *dest*'s relay (:meth:`~repro.runtime.context.
    TracedEventBus.publish_relayed`). Publishes its handlers make are
    ordinary ones and relay on.

    Handlers receive *payload*; the trace records *recorded*, the copy
    the origin zone's trace record holds, as given — so the records of
    one publish in the origin zone and in every destination zone share
    one payload object. Without *recorded* (a direct call), *payload*
    is normalized here.

    When the buffered publish carried a span envelope (its ``trace_id``
    and ``span_id`` name the publisher's span), the delivery resumes it
    and opens a ``shard.relay.deliver`` child span around the publish —
    its id minted from the *destination* zone's ``obs.tracer``
    stream, so the span tree is a pure function of zone streams and
    stays byte-identical for any shard/worker count. Handlers react
    inside the relay span, nesting their own spans (and any further
    relayed publishes) under the original cause.
    """
    bus = dest.ctx.bus
    tracer = dest.ctx.tracer
    if span is None or not tracer.enabled:
        bus.publish_relayed(topic, payload, recorded)
        return
    # Hand-inlined equivalent of
    #     with tracer.resume(SpanContext(span["trace_id"],
    #                                    span["span_id"])):
    #         with tracer.start_span("shard.relay.deliver",
    #                                layer="runtime", topic=topic,
    #                                zone=dest.name):
    #             <relayed publish>
    # — same RNG draw, same stack visibility, byte-identical obs.span
    # record (pinned by a test). This runs once per relayed message;
    # the generic context managers would cost more than the relay, and
    # the perf gate holds span propagation at <= 1.3x the bare relay.
    trace_id = span["trace_id"]
    parent_id = span["span_id"]
    # Same RNG stream and rendering as Tracer._new_id, minus the call;
    # same clock as Tracer._clock (the context wires the tracer to
    # ``sim.now``), minus the lambda hop.
    span_id = "%016x" % tracer._id_rng.getrandbits(64)
    now = dest.ctx.sim.now
    stack = tracer._stack
    scope = dest.relay_scope
    scope.envelope = {"trace_id": trace_id, "span_id": span_id,
                      "parent_id": parent_id}
    stack.append(scope)
    status = "ok"
    try:
        bus.publish_relayed(topic, payload, recorded)
    except BaseException:
        status = "error"
        raise
    finally:
        stack.pop()
        tracer.spans_recorded += 1
        rec = _RELAY_SPAN_TEMPLATE.copy()
        rec["trace_id"] = trace_id
        rec["span_id"] = span_id
        rec["parent_id"] = parent_id
        rec["start_s"] = now
        rec["end_s"] = now
        rec["status"] = status
        rec["attrs"] = {"topic": topic, "zone": dest.name}
        # Already JSON-primitive, and `now` already a float.
        tracer._trace.record_normalized(now, SPAN_TOPIC, rec)


def flush_zone_inbox(dest: ZoneRuntime, batches: Iterable[list],
                     latency: float, epoch: int, t_barrier: float,
                     record_barrier: bool) -> int:
    """Barrier injection for one destination zone: schedule every
    buffered ``(send_s, topic, payload, span, recorded)`` message
    (batches already in source-rank order, messages in send order) at
    its true arrival time, then publish the relay/barrier bookkeeping
    records. The messages ride one
    :class:`~repro.continuum.simulator.TimeoutRun`: they take the heap
    keys one timeout each would have taken, in this order, and arrive
    in ``(time, key)`` order, same-instant arrivals back to back.
    Each arrival calls :func:`relay_deliver`, looked up when it
    arrives, with the origin record's normalized copy *recorded*, so
    every destination's record shares it. Returns messages injected."""
    sim = dest.ctx.sim
    now = sim.now
    messages: list[tuple] = []
    times: list[float] = []
    spans = 0
    for batch in batches:
        messages += batch
        for msg in batch:
            # Mathematically send + latency >= barrier; clamp the
            # one-ulp float shortfall when the sum rounds below
            # the epoch-grid boundary (same clamp on every shard
            # count — the grid is computed identically). The time is
            # the one ``timeout(delay)`` fires at, bit for bit.
            delay = msg[0] + latency - now
            times.append(now + delay if delay > 0.0 else now)
            if msg[3] is not None:
                spans += 1
    count = len(messages)
    if count:

        def deliver(msg: tuple) -> None:
            relay_deliver(dest, msg[1], msg[2], msg[3], msg[4])

        sim.timeout_run(times, messages, deliver)
        dest.ctx.publish(RELAY_TOPIC, {
            "epoch": epoch, "zone": dest.name, "count": count,
            "spans": spans, "time_s": t_barrier})
    if record_barrier:
        dest.ctx.publish(BARRIER_TOPIC, {
            "epoch": epoch, "zone": dest.name, "time_s": t_barrier})
    return count


class _RelayModel:
    """Which relay taps exist: the one tap-propagation rule.

    ``organic[rank]`` holds the patterns scenario code subscribed on a
    zone's bus (reported by its host); ``tap_patterns[rank]`` the
    patterns of relay taps installed *on* that zone's bus. A refresh
    pass walks destinations in rank order and, for every destination
    pattern not yet tapped on a (src, dest) pair, emits a directive and
    records the tap — which makes the pattern visible to *later*
    destinations in the same pass, so a tapped pattern spreads to every
    zone. A pass that emitted directives re-arms the next one (their
    taps are new patterns on the source buses). Only pattern
    *membership* is tracked, which suffices because tap behaviour is
    membership-pure: a zone's relay buffers a publish once per outbox
    however many of its patterns match (:class:`_ZoneRelay`).
    """

    def __init__(self, n_zones: int):
        self.organic: list[set[str]] = [set() for _ in range(n_zones)]
        self.tap_patterns: list[set[str]] = [set() for _ in range(n_zones)]
        self.tapped: set[tuple[int, int, str]] = set()
        self._dirty = True
        self._rerun = False

    def report(self, rank: int, patterns: Sequence[str]) -> None:
        self.organic[rank] |= set(patterns)
        self._dirty = True

    def refresh(self) -> list[tuple[int, int, str]]:
        """One propagation pass; returns new (src, dest, pattern) tap
        directives."""
        if not (self._dirty or self._rerun):
            return []
        self._dirty = False
        directives: list[tuple[int, int, str]] = []
        n = len(self.organic)
        for dest in range(n):
            # sorted() only fixes directive order (bus bookkeeping);
            # relay content is membership-pure.
            patterns = sorted(self.organic[dest]
                              | self.tap_patterns[dest])
            for src in range(n):
                if src == dest:
                    continue
                for pattern in patterns:
                    key = (src, dest, pattern)
                    if key in self.tapped:
                        continue
                    self.tapped.add(key)
                    self.tap_patterns[src].add(pattern)
                    directives.append(key)
        self._rerun = bool(directives)
        return directives


_by_source = itemgetter(0)
_time_s = itemgetter(1)


class ShardHost:
    """Builds and runs one block of zones: the executor side of
    :func:`serve`.

    The zones whose ``shard_of`` entry is in *shards* live here, one
    ``Simulator`` heap per hosted shard. Each zone gets its seed subtree
    (off the zone *name*), its ``shard.partition.assign`` record and,
    given a *builder*, ``builder(ctx, zone, args)`` in rank order — its
    return value is the zone state ``finalizer(state, zone, args)``
    reduces at :meth:`finalize`. A *streaming* host (the one in a worker
    process) ships its zones' records, metric deltas and event count
    with every flush reply; the coordinator reads an in-process host in
    place instead.
    """

    def __init__(self, seed: int, names: Sequence[str],
                 shard_of: Sequence[int], shards: Iterable[int], *,
                 link_latency_s: float | None, epoch_s: float,
                 trace_capacity: int, builder: Callable | None = None,
                 args: Any = None, finalizer: Callable | None = None,
                 streaming: bool = False):
        # runtime/ is the allowlisted home for direct Simulator
        # construction (continuum-lint).
        from repro.continuum.simulator import Simulator
        heaps = {shard: Simulator() for shard in shards}
        self.sims = list(heaps.values())
        self.zones: list[ZoneRuntime] = []
        self._by_rank: dict[int, ZoneRuntime] = {}
        for rank, name in enumerate(names):
            if shard_of[rank] not in heaps:
                continue
            ctx = RuntimeContext(
                seed=derive_seed(seed, f"shard.zone.{name}"),
                trace_capacity=trace_capacity, sim=heaps[shard_of[rank]])
            zone = ZoneRuntime(name, rank, shard_of[rank], ctx)
            self.zones.append(zone)
            self._by_rank[rank] = zone
            ctx.publish(PARTITION_TOPIC, {
                "zone": name, "rank": rank,
                "epoch_s": None if epoch_s == _INF else epoch_s,
                "lookahead_s": link_latency_s, "time_s": 0.0})
        self.state: dict[int, Any] = {}
        if builder is not None:
            for zone in self.zones:
                self.state[zone.rank] = builder(zone.ctx, zone.name, args)
        self._latency = link_latency_s or 0.0
        self._args = args
        self._finalizer = finalizer
        self._streaming = streaming
        # Relay plumbing: one outbox per (src, dest) pair, filled by the
        # relay of a local source. A local destination's outboxes are
        # listed per dest in source rank order; pairs whose destination
        # lives on another host ride the advance reply instead.
        self._outbox: dict[tuple[int, int], list] = {}
        self._sources: dict[int, list[tuple[int, list]]] = \
            {zone.rank: [] for zone in self.zones}
        self._remote: list[tuple[int, int]] = []
        self._reported = {zone.rank: -1 for zone in self.zones}
        self._metrics_sent: dict[int, dict] = \
            {zone.rank: {} for zone in self.zones}

    def pattern_report(self) -> dict[int, list[str]]:
        """Subscription patterns of each local zone whose bus gained a
        subscription since the last report."""
        report: dict[int, list[str]] = {}
        for zone in self.zones:
            bus = zone.ctx.bus
            if bus._order == self._reported[zone.rank]:
                continue
            self._reported[zone.rank] = bus._order
            report[zone.rank] = list(dict.fromkeys(
                sub.pattern for sub in bus._subs if sub.active))
        return report

    def advance(self, t_next: float, taps: list[tuple[int, int, str]]
                ) -> tuple[list[int], dict[tuple[int, int], list]]:
        """Add each of *taps* to its source zone's relay, run every heap
        to *t_next*, and reply ``(per-heap wall ns, buffered messages
        bound for other hosts)``. The heaps must run before the outboxes
        are collected, or remote messages would miss their barrier."""
        for src_rank, dest_rank, pattern in taps:
            pair = (src_rank, dest_rank)
            outbox = self._outbox.get(pair)
            if outbox is None:
                outbox = self._outbox[pair] = []
                if dest_rank in self._sources:
                    self._sources[dest_rank].append((src_rank, outbox))
                    self._sources[dest_rank].sort(key=_by_source)
                else:
                    self._remote.append(pair)
            ctx = self._by_rank[src_rank].ctx
            if ctx.bus.relay is None:
                ctx.bus.relay = _ZoneRelay(ctx)
            ctx.bus.relay.add(pattern, outbox)
        clock = ShardProfiler.clock
        heap_ns = []
        for sim in self.sims:
            t0 = clock()
            sim.run(until=t_next)
            heap_ns.append(clock() - t0)
        remote = {}
        for pair in self._remote:
            batch = self._outbox[pair]
            if batch:
                # A snapshot: the relay holds the buffer itself.
                remote[pair] = list(batch)
                batch.clear()
        return heap_ns, remote

    def flush(self, epoch: int, t_barrier: float,
              remote_in: dict[tuple[int, int], list],
              record_barrier: bool) -> tuple[dict[int, int], dict, Any]:
        """Barrier injection into every local zone, source batches in
        global rank order (local buffers and the coordinator-routed
        *remote_in* batches interleaved). Replies ``(messages injected
        per destination rank, pattern report, stream)``: the report
        follows the flush, so flush-time subscriptions reach the relay
        model before the next epoch runs."""
        routed: dict[int, list[tuple[int, list]]] = {}
        for (src_rank, dest_rank), batch in remote_in.items():
            routed.setdefault(dest_rank, []).append((src_rank, batch))
        injected: dict[int, int] = {}
        for dest in self.zones:
            sources = self._sources[dest.rank]
            if dest.rank in routed:
                sources = sorted(sources + routed[dest.rank],
                                 key=_by_source)
            batches = [batch for _, batch in sources if batch]
            count = flush_zone_inbox(dest, batches, self._latency, epoch,
                                     t_barrier, record_barrier)
            for batch in batches:
                batch.clear()
            if count:
                injected[dest.rank] = count
        return injected, self.pattern_report(), self.stream()

    def finalize(self) -> tuple[dict[str, Any], Any]:
        """Reply ``(finalizer result per zone name, stream)``."""
        results: dict[str, Any] = {}
        if self._finalizer is not None:
            for zone in self.zones:
                results[zone.name] = self._finalizer(
                    self.state.get(zone.rank), zone.name, self._args)
        return results, self.stream()

    def stream(self) -> tuple | None:
        """What a streaming host ships to the coordinator's replicas:
        each zone's trace rows since the last reply, as its ring holds
        them; per-zone metric deltas; and the executed-event count.
        None for an in-process host."""
        if not self._streaming:
            return None
        records = []
        deltas = {}
        for zone in self.zones:
            trace = zone.ctx.trace
            if len(trace):
                records.append((zone.rank, list(trace._records)))
                # The sequence counter keeps counting, so the replica
                # ring evicts exactly like this one would have.
                trace.clear()
            current = zone.ctx.metrics.to_payload()
            delta = payload_delta(self._metrics_sent[zone.rank], current)
            if delta:
                deltas[zone.rank] = delta
                self._metrics_sent[zone.rank] = current
        return records, deltas, sum(sim.processed_events
                                    for sim in self.sims)


def serve(host: ShardHost, msg: tuple) -> tuple:
    """Run one coordinator command on *host* and return its reply — the
    whole executor protocol. The in-process executor calls this
    directly; a worker process calls it for each message off its pipe.
    """
    if msg[0] not in ("advance", "flush", "finalize"):
        raise ValueError(f"unknown shard command {msg[0]!r}")
    return getattr(host, msg[0])(*msg[1:])


class ShardedContext:
    """Coordinates zone shards under conservative epoch barriers.

    ``zones`` fixes the zone names and their ranks (list order); zones
    are grouped onto ``n_shards`` simulator heaps in contiguous rank
    blocks. ``link_latency_s`` is the minimum cross-zone link latency —
    the lookahead that bounds the epoch length; ``epoch_s`` may shorten
    (never stretch) the epoch below the lookahead.

    ``workers=0`` runs every heap in this process, and scenario code may
    build zones on :meth:`zone`. ``workers=N`` runs N worker processes,
    one heap each (the workers *are* the shards; ``n_shards`` is
    ignored). Their zones exist only inside the workers, so they are
    built by a module-level ``zone_builder(ctx, zone, zone_args)`` and
    reduced by a ``zone_finalizer(state, zone, zone_args)`` whose
    picklable results :meth:`finalize` collects; the pair works on
    either executor. Use as a context manager (or call :meth:`close`)
    so worker processes are reaped.

    The executor is *invisible* to the scenario: the epoch grid, the
    relay order and every zone's record stream depend only on the zone
    list, the seed and the latency configuration — see the module
    docstring for the determinism argument.
    """

    def __init__(self, seed: int = 0, zones: Sequence[str] = ("zone-00",),
                 n_shards: int = 1, *, workers: int = 0,
                 link_latency_s: float | None = None,
                 epoch_s: float | None = None, trace_capacity: int = 65536,
                 barrier_record_every: int = 1,
                 zone_builder: Callable | None = None,
                 zone_args: Any = None,
                 zone_finalizer: Callable | None = None,
                 profile: bool = False):
        names = list(zones)
        if not names:
            raise ConfigurationError("at least one zone is required")
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate zone names in {names}")
        if link_latency_s is not None and link_latency_s <= 0:
            raise ConfigurationError("cross-zone link latency must be > 0")
        if epoch_s is not None and epoch_s <= 0:
            raise ConfigurationError("epoch_s must be > 0")
        if barrier_record_every < 1:
            raise ConfigurationError("barrier_record_every must be >= 1")
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        n = len(names)
        self.seed = int(seed)
        self.workers = min(int(workers), n)
        self.n_shards = max(1, min(int(self.workers or n_shards), n))
        self.link_latency_s = link_latency_s
        #: Conservative lookahead: how far a shard may run ahead without
        #: missing cross-zone traffic. Never smaller than the minimum
        #: cross-zone link latency (it *is* that latency).
        self.lookahead_s = link_latency_s if link_latency_s is not None \
            else _INF
        self.epoch_s = min(epoch_s, self.lookahead_s) \
            if epoch_s is not None else self.lookahead_s
        self._now = 0.0
        self._epoch = 0
        self._barrier_record_every = barrier_record_every
        self._names = names
        self._rank = {name: rank for rank, name in enumerate(names)}
        self._shard_of = [rank * self.n_shards // n for rank in range(n)]
        # Which executor hosts a rank: the one in-process host, or the
        # worker that is the rank's shard.
        self._executor_of = self._shard_of if self.workers else [0] * n
        self._model = _RelayModel(n)
        self._pending_taps: list[tuple[int, int, str]] = []
        self._closed = False
        self._final: dict[str, Any] | None = None

        #: Coordinator-side observability (runtime.shard.*): epoch
        #: progress and relay traffic. Lives on the coordinator, not any
        #: zone context, so reading it never perturbs a zone's trace.
        self.metrics = MetricsRegistry()
        self.metrics.gauge_callback(
            "runtime.shard.epochs", lambda: float(self._epoch),
            "completed epoch barriers")
        self._relay_messages = self.metrics.counter(
            "runtime.shard.relay.messages",
            "cross-zone messages injected at barriers", label_key="zone")
        self._relay_routed = self.metrics.counter(
            "runtime.shard.relay.routed",
            "cross-worker messages routed through the coordinator")
        self._trace_batches = self.metrics.counter(
            "runtime.shard.trace.batches",
            "per-epoch record batches streamed back by workers")

        #: Opt-in barrier/straggler profiling. Wall times live on the
        #: coordinator (profiler + runtime.shard.epoch.* histograms),
        #: never in a zone trace — profiling cannot move the digest.
        self.profiler = ShardProfiler(
            self.n_shards, "parallel" if self.workers else "sequential") \
            if profile else None
        if self.profiler is not None:
            self._h_advance = self.metrics.histogram(
                "runtime.shard.epoch.advance_seconds",
                "per-shard wall time advancing to each epoch barrier",
                buckets=EPOCH_BUCKETS)
            self._h_wait = self.metrics.histogram(
                "runtime.shard.epoch.wait_seconds",
                "per-shard idle wall time at each epoch barrier",
                buckets=EPOCH_BUCKETS)

        host_kwargs = dict(
            link_latency_s=link_latency_s, epoch_s=self.epoch_s,
            trace_capacity=trace_capacity, builder=zone_builder,
            args=zone_args, finalizer=zone_finalizer)
        self._host: ShardHost | None = None
        self._fleet = None
        if not self.workers:
            self._host = ShardHost(self.seed, names, self._shard_of,
                                   range(self.n_shards), **host_kwargs)
        else:
            # Worker replicas: per-zone trace rings (same capacity, same
            # eviction as the worker-side rings) and metrics payloads,
            # kept current by the stream on every flush reply.
            self._rings = [deque(maxlen=trace_capacity) for _ in names]
            self._zone_metrics: list[dict] = [{} for _ in names]
            self._events = [0] * self.workers
            from repro.runtime.parallel import WorkerFleet
            self._fleet = WorkerFleet([
                ((self.seed, names, self._shard_of, (shard,)),
                 dict(host_kwargs, streaming=True))
                for shard in range(self.workers)])
            # Each worker's start-up reply is flush-shaped: build-time
            # subscriptions, records and metrics.
            self._absorb_flush(self._fleet.exchange())

    @classmethod
    def for_partition(cls, partition: Any, *, seed: int = 0,
                      n_shards: int = 1, **kwargs: Any) -> "ShardedContext":
        """Build from a :meth:`~repro.continuum.infrastructure.
        Infrastructure.partition` result: zone ranks follow the
        partition's zone order and the lookahead is its minimum
        cross-zone link latency."""
        latency = partition.min_cross_latency_s
        if latency == _INF:
            latency = None
        return cls(seed=seed, zones=partition.zones, n_shards=n_shards,
                   link_latency_s=latency, **kwargs)

    # -- zone access -------------------------------------------------------

    @property
    def zones(self) -> list[str]:
        """Zone names in rank order."""
        return list(self._names)

    @property
    def zone_runtimes(self) -> list[ZoneRuntime]:
        return list(self._local().zones)

    def zone(self, name: str) -> RuntimeContext:
        """The :class:`RuntimeContext` scenario code builds zone *name* on
        (in-process executor only)."""
        rank = self._rank_of(name)
        return self._local()._by_rank[rank].ctx

    def shard_of(self, name: str) -> int:
        """Shard (heap, or worker process) a zone is grouped on —
        execution detail, never observable in the merged trace."""
        return self._shard_of[self._rank_of(name)]

    def _rank_of(self, name: str) -> int:
        try:
            return self._rank[name]
        except KeyError:
            raise NotFoundError(f"unknown zone {name!r}") from None

    def _local(self) -> ShardHost:
        if self._host is None:
            raise ConfigurationError(
                "zones live in worker processes; build them with "
                "zone_builder(ctx, zone, args) and collect results with "
                "zone_finalizer")
        return self._host

    @property
    def now(self) -> float:
        """Barrier-synchronized simulated time."""
        return self._now

    @property
    def epoch(self) -> int:
        """Completed epoch count."""
        return self._epoch

    # -- execution ---------------------------------------------------------

    def _exchange(self, messages: list[tuple]) -> list:
        """One command per executor; their replies, in executor order."""
        if self._host is not None:
            return [serve(self._host, messages[0])]
        return self._fleet.exchange(messages)

    def _refresh_taps(self) -> None:
        self._pending_taps += self._model.refresh()
        if self._model.tapped and self.lookahead_s == _INF:
            raise ConfigurationError(
                "zones subscribe to each other's topics but no "
                "cross-zone link latency is configured; pass "
                "link_latency_s= so the epoch barrier has a lookahead")

    def _absorb_flush(self, replies: list) -> list[int]:
        """Fold flush replies: relay counts, pattern reports into the
        relay model, worker streams into the replicas. Returns messages
        injected per shard (the profiler's relay column)."""
        relay = [0] * self.n_shards
        for index, (injected, patterns, stream) in enumerate(replies):
            for rank, count in injected.items():
                self._relay_messages.inc(count, label=self._names[rank])
                relay[self._shard_of[rank]] += count
            for rank, found in patterns.items():
                self._model.report(rank, found)
            if stream is not None:
                self._absorb(index, stream)
        return relay

    def _absorb(self, worker: int, stream: tuple) -> None:
        records, deltas, events = stream
        for rank, rows in records:
            self._rings[rank].extend(rows)
            self._trace_batches.inc()
        for rank, delta in deltas.items():
            self._zone_metrics[rank].update(delta)
        self._events[worker] = events

    def run(self, until: float) -> None:
        """Advance every shard to *until* through the epoch-barrier loop.

        ``until`` must be finite: an unbounded drain has no barrier
        schedule. The epoch grid is anchored at time zero —
        ``barrier(k) = (k+1) * epoch_s`` — so it is identical for every
        shard count and for any sequence of ``run()`` calls ending at
        the same horizon. Relay taps for subscriptions made during an
        epoch (or, in process, between runs) take effect from the next
        epoch on.
        """
        if self._closed:
            raise ConfigurationError("ShardedContext is closed")
        deadline = float(until)
        if deadline == _INF:
            raise ConfigurationError(
                "ShardedContext.run() needs a finite horizon")
        if deadline < self._now:
            raise ConfigurationError("run(until=...) lies in the past")
        if self._host is not None:
            for rank, found in self._host.pattern_report().items():
                self._model.report(rank, found)
        self._refresh_taps()
        executors = self.workers or 1
        while self._now < deadline:
            if self.epoch_s == _INF:
                boundary = deadline
            else:
                boundary = (self._epoch + 1) * self.epoch_s
            t_next = min(boundary, deadline)
            taps: list[list] = [[] for _ in range(executors)]
            for directive in self._pending_taps:
                taps[self._executor_of[directive[0]]].append(directive)
            self._pending_taps = []
            advance_ns: list[int] = []
            remote_in: list[dict] = [{} for _ in range(executors)]
            for heap_ns, remote in self._exchange(
                    [("advance", t_next, batch) for batch in taps]):
                advance_ns += heap_ns
                for pair, batch in remote.items():
                    remote_in[self._executor_of[pair[1]]][pair] = batch
                    self._relay_routed.inc(len(batch))
            record = self._epoch % self._barrier_record_every == 0
            relay = self._absorb_flush(self._exchange(
                [("flush", self._epoch, t_next, inbox, record)
                 for inbox in remote_in]))
            self._refresh_taps()
            if self.profiler is not None:
                self.profiler.record_epoch(self._epoch, t_next, advance_ns,
                                           relay)
                row = self.profiler.epochs[-1]
                for adv, wait in zip(row["advance_ns"], row["wait_ns"]):
                    self._h_advance.observe(adv / 1e9)
                    self._h_wait.observe(wait / 1e9)
            self._now = t_next
            if boundary <= deadline:
                self._epoch += 1

    def finalize(self) -> dict[str, Any]:
        """Every zone finalizer's result keyed by zone name (empty without
        a finalizer). Idempotent, and readable after :meth:`close`."""
        if self._final is None:
            if self._closed:
                raise ConfigurationError(
                    "ShardedContext is closed; finalize() before close()")
            results: dict[str, Any] = {}
            for index, (found, stream) in enumerate(
                    self._exchange([("finalize",)] * (self.workers or 1))):
                results.update(found)
                if stream is not None:
                    self._absorb(index, stream)
            self._final = results
        return self._final

    def close(self) -> None:
        """Shut the worker processes down; the merged trace, digest and
        finalize() results stay readable afterwards."""
        if not self._closed:
            self._closed = True
            if self._fleet is not None:
                self._fleet.close()

    def __enter__(self) -> "ShardedContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- merged trace ------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Total DES events executed across every shard heap (with
        workers: as of their last reply)."""
        if self._host is not None:
            return sum(sim.processed_events for sim in self._host.sims)
        return sum(self._events)

    def _merged_stream(self) -> Iterator[tuple[str, tuple]]:
        """Every zone's retained rows as ``(zone, row)`` in ``(time_s,
        zone_rank, zone_seq)`` order, one at a time.

        Each zone's ring (in process the live ring, with workers its
        replica; both hold the rows ``(seq, time_s, topic, payload,
        span)``) is already in seq order, so a stable sort on
        ``time_s`` makes it a run in ``(time_s, seq)`` order — one
        linear pass unless a row was stamped out of time order
        (``Tracer.record_span`` with an explicit ``end_s``).
        ``heapq.merge`` takes the runs in rank order and breaks equal
        times by run, i.e. by rank. The runs only reference what the
        rings hold, and the merge holds one pending row per zone: no
        key tuples, no merged list."""
        if self._host is not None:
            rings = [zone.ctx.trace._records for zone in self._host.zones]
        else:
            rings = self._rings
        runs = [zip(repeat(name), sorted(ring, key=_time_s))
                for name, ring in zip(self._names, rings)]
        return heapq.merge(*runs, key=lambda pair: pair[1][1])

    def merged_records(self) -> list[tuple[str, TraceRecord]]:
        """Every zone's retained records as one globally ordered list.

        Sorted by ``(time_s, zone_rank, zone_seq)`` — a total order that
        is a pure function of the per-zone record streams, hence
        shard- and worker-count-invariant. In process the live zone
        rings are read in place; with workers, their streamed replicas.
        The renderers (:meth:`digest`, :meth:`to_jsonl`,
        :meth:`export_jsonl`) never build this list: they stream the
        same order.
        """
        return [(name, TraceRecord(*row))
                for name, row in self._merged_stream()]

    def _jsonl_lines(self) -> Iterator[str]:
        """The merged trace's JSONL lines (global seq, zone tag), one at
        a time — the one renderer behind :meth:`to_jsonl`,
        :meth:`export_jsonl` and :meth:`digest`, so the exported bytes
        and the fingerprint cannot drift apart."""
        for seq, (name, row) in enumerate(self._merged_stream()):
            yield row_json(row, seq, name)

    def to_jsonl(self) -> str:
        """The merged trace as deterministic JSONL (global seq, zone tag)."""
        return "\n".join(self._jsonl_lines())

    def export_jsonl(self, path: str | Path, *,
                     observability: bool = False) -> int:
        """Write the merged trace to *path* line by line; returns records
        written.

        ``observability=True`` appends the aggregated metrics snapshot
        (and the profiler payload when profiling) as trailing rows,
        continuing the global seq, so one file feeds every ``repro-obs``
        subcommand. The digest stays over the pure event trace either
        way, so the profile's nondeterministic wall times never move
        it."""
        seq = 0
        with open(path, "w") as out:
            for line in self._jsonl_lines():
                out.write(line + "\n")
                seq += 1
            if observability:
                snapshot = self.snapshot_observability()
                rows = [(METRICS_TOPIC, snapshot["metrics"])]
                if "profile" in snapshot:
                    rows.append((SHARD_PROFILE_TOPIC, snapshot["profile"]))
                for topic, payload in rows:
                    out.write(row_json(
                        (seq, self._now, topic, payload, None)) + "\n")
                    seq += 1
        return seq

    def digest(self) -> str:
        """SHA-256 over the merged trace bytes — the replay fingerprint
        the scale example and CI pin. Equal to hashing
        ``to_jsonl().encode()``, but streamed line by line: neither the
        JSONL text nor the merged order is ever held whole.
        """
        sha = hashlib.sha256()
        sep = b""
        for line in self._jsonl_lines():
            sha.update(sep + line.encode())
            sep = b"\n"
        return sha.hexdigest()

    # -- aggregated observability ------------------------------------------

    def aggregate_metrics(self) -> MetricsRegistry:
        """Fold every zone's registry into one global registry.

        Zones merge in rank order (worker replicas apply their deltas in
        ``(epoch, zone rank)`` order), shard-execution-detail metrics are
        excluded (:data:`SHARD_SCOPED_METRICS`) and the executor-
        invariant event total is re-derived from the coordinator — so
        ``to_payload()`` / ``render_exposition`` are byte-identical for
        any shard or worker count. Pinned by
        ``tests/test_obs_sharded.py``."""
        if self._host is not None:
            payloads = [zone.ctx.metrics.to_payload()
                        for zone in self._host.zones]
        else:
            payloads = self._zone_metrics
        registry = MetricsRegistry()
        for payload in payloads:
            registry.merge_payload(payload, exclude=SHARD_SCOPED_METRICS)
        registry.gauge(
            "continuum.sim.events_executed",
            "DES events executed across every shard heap"
        ).set(self.events_executed)
        return registry

    def snapshot_observability(self) -> dict[str, Any]:
        """Aggregated metrics payload plus the shard profile (if
        profiling) — the dict :meth:`export_jsonl` appends and the
        ``repro-obs metrics``/``shards`` subcommands render."""
        snapshot: dict[str, Any] = {
            "metrics": self.aggregate_metrics().to_payload()}
        if self.profiler is not None:
            snapshot["profile"] = self.profiler.to_payload()
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ShardedContext(seed={self.seed}, "
                f"zones={len(self._names)}, shards={self.n_shards}, "
                f"workers={self.workers}, now={self._now}, "
                f"epoch={self._epoch})")
