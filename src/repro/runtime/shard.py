"""Zone-sharded simulation: conservative epoch barriers over zone runtimes.

City-scale scenarios (10k+ devices) cannot run through one monolithic
:class:`~repro.continuum.simulator.Simulator` heap and one global bus.
A :class:`ShardedContext` partitions the continuum *by zone*: every zone
gets its own logical runtime view (a :class:`~repro.runtime.context.
RuntimeContext` with its own RNG seed subtree, trace recorder and traced
bus), and zones are grouped onto physical shards — one ``Simulator``
heap per shard. Shards advance independently inside an epoch and
synchronize at conservative barriers.

Determinism argument (the invariant everything here serves): the *zone*,
not the shard, is the unit of determinism. A zone's seed subtree is
derived from the root seed and the zone *name* (never the shard id), its
trace records carry zone-local sequence numbers, and zones interact only
through the epoch relay, whose buffering and delivery order is a pure
function of (epoch, zone rank, per-pair sequence). Regrouping zones onto
a different shard count therefore cannot change any zone's record
stream, and the merged trace — sorted by ``(time_s, zone rank, zone
seq)`` — is byte-identical between a single-shard and an N-shard run of
the same scenario and seed. ``tests/test_sharded.py`` pins this with a
hypothesis property over random partitions and seeds.

Epoch-barrier protocol: the epoch length is bounded by the *lookahead*,
the minimum cross-zone link latency. Any message published in epoch k
(send time t) physically arrives no earlier than ``t + lookahead >=
barrier(k)``, so shards can drain epoch k without seeing each other's
traffic; at the barrier each buffered message is injected into its
destination shard as a DES event at its true arrival time ``t +
link_latency``. Injection iterates destination zones in rank order,
source zones in rank order and messages in send order — the
deterministic ``(epoch, zone_rank, seq)`` delivery order.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.errors import ConfigurationError, NotFoundError
from repro.core.rng import derive_seed
from repro.obs.metrics import METRICS_TOPIC, MetricsRegistry
from repro.obs.profiler import SHARD_PROFILE_TOPIC, ShardProfiler
from repro.obs.spans import SPAN_TOPIC, SpanContext, _RelayScope
from repro.runtime.context import RuntimeContext
from repro.runtime.trace import TraceRecord

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


# -- relay primitives shared by the sequential and multiprocess backends --
#
# The parallel backend (repro.runtime.parallel / shard_worker) re-runs
# these exact functions inside worker processes. Byte-identity between
# the two backends rests on there being ONE implementation of tap
# buffering, relay delivery and barrier injection — do not fork copies.

def add_relay_tap(round_taps: dict, src: ZoneRuntime, pattern: str,
                  outbox: list, mark: list) -> None:
    """Buffer *src*'s publishes matching *pattern* into one (src, dest)
    pair's *outbox*.

    Taps fan out: one refresh round installs a single tap per (source
    zone, pattern) — *round_taps* maps ``(src rank, pattern)`` to its
    ``(outbox, mark)`` targets — and each pair the round adds for that
    pattern joins its target list, so an origin publish costs one tap
    call however many zones it reaches. A round installs its taps
    back to back with no organic subscription between them, so how
    they are grouped cannot move a tap relative to scenario handlers.
    The subscription is flagged :attr:`~repro.core.events.Subscription.
    tap`, which is how :func:`relay_deliver` (and the worker's pattern
    report) tell it from scenario code."""
    targets = round_taps.get((src.rank, pattern))
    if targets is None:
        targets = round_taps[(src.rank, pattern)] = []
        sub = src.ctx.bus.subscribe(pattern, _fan_out_tap(src, targets))
        sub.tap = True
    targets.append((outbox, mark))


def _fan_out_tap(src: ZoneRuntime, targets: list):
    """Tap closure appending each matching publish to every target
    outbox. A target's ``mark`` holds the pair's last relayed publish
    id, so a publish matching several tapped patterns is buffered once
    per pair.

    Alongside ``(send_s, topic, payload)`` the tap captures the open
    span context: bus delivery is synchronous, so the publisher's span
    is still ambient when the tap fires. It is shipped as a plain
    ``(trace_id, span_id)`` tuple (picklable — the parallel backend
    routes buffers through worker pipes) and resumed in the destination
    zone by :func:`relay_deliver`, which is how one fault's causal tree
    crosses zones and worker processes."""
    bus = src.ctx.bus
    sim = src.ctx.sim
    stack = src.ctx.tracer._stack
    # One ambient span usually covers a burst of publishes (a fault and
    # its fallout), so the shipped tuple is cached per context object.
    # The cache holds a strong reference, so the id can't be recycled
    # under the identity check.
    last = [None, None]

    def tap(topic: str, payload: Any) -> None:
        # The bus publish id is unique per publish on this zone and —
        # unlike the trace sequence — stable for the whole delivery
        # even when an earlier handler records spans or publishes
        # nested messages, so it dedupes a publish matching several
        # tapped patterns.
        pub = bus.current_pub
        msg = None
        for outbox, mark in targets:
            if mark[0] == pub:
                continue
            mark[0] = pub
            if msg is None:
                if stack:
                    context = stack[-1].context
                    if context is last[0]:
                        shipped = last[1]
                    else:
                        shipped = (context.trace_id, context.span_id)
                        last[0] = context
                        last[1] = shipped
                else:
                    shipped = None
                msg = (sim.now, topic, payload, shipped)
            outbox.append(msg)
    return tap


#: Prebuilt shape of the ``obs.span`` payload the relay fast path
#: records — copied and filled per delivery so the constant keys cost
#: one ``dict.copy`` instead of a literal rebuild.
_RELAY_SPAN_TEMPLATE = {
    "name": "shard.relay.deliver", "layer": "runtime",
    "trace_id": "", "span_id": "", "parent_id": None,
    "start_s": 0.0, "end_s": 0.0, "status": "ok", "attrs": None,
}


def relay_deliver(dest: ZoneRuntime, topic: str, payload: Any,
                  span: tuple | None = None) -> None:
    """Publish a relayed message on *dest*'s bus without re-forwarding:
    the publish is traced and counted as usual but reaches only organic
    subscribers (:meth:`~repro.runtime.context.TracedEventBus.
    publish_organic`), never a relay tap. Publishes its handlers make
    are ordinary ones and relay on.

    When the buffered publish carried a span context, the delivery
    resumes it and opens a ``shard.relay.deliver`` child span around the
    publish — its id minted from the *destination* zone's ``obs.tracer``
    stream, so the span tree is a pure function of zone streams and
    stays byte-identical for any shard/worker count. Handlers react
    inside the relay span, nesting their own spans (and any further
    relayed publishes) under the original cause.
    """
    bus = dest.ctx.bus
    tracer = dest.ctx.tracer
    if span is None or not tracer.enabled:
        bus.publish_organic(topic, payload)
        return
    # Hand-inlined equivalent of
    #     with tracer.resume(SpanContext(span[0], span[1])):
    #         with tracer.start_span("shard.relay.deliver",
    #                                layer="runtime", topic=topic,
    #                                zone=dest.name):
    #             <organic publish>
    # — same RNG draw, same stack visibility, byte-identical obs.span
    # record (pinned by a test). This runs once per relayed message;
    # the generic context managers would cost more than the relay, and
    # the perf gate holds span propagation at <= 1.3x the bare relay.
    trace_id, parent_id = span
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
        bus.publish_organic(topic, payload)
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
        # TraceRecorder.record_raw, inlined (the payload is already
        # JSON-primitive and `now` already a float).
        trace = tracer._trace
        trace._records.append(TraceRecord(trace._seq, now, SPAN_TOPIC,
                                          rec))
        trace._seq += 1


def _relay_arrival(event: Any) -> None:
    """The one callback of every relay arrival event: deliver the
    ``(dest, topic, payload, span)`` message the event carries."""
    relay_deliver(*event._value)


def flush_zone_inbox(dest: ZoneRuntime, batches: Iterable[list],
                     latency: float, epoch: int, t_barrier: float,
                     record_barrier: bool) -> int:
    """Barrier injection for one destination zone: schedule every
    buffered message (batches already in source-rank order, messages in
    send order) as a DES event at its true arrival time, then publish
    the relay/barrier bookkeeping records. Returns messages injected."""
    timeout = dest.ctx.sim.timeout
    now = dest.ctx.sim.now
    count = 0
    spans = 0
    for batch in batches:
        for send_s, topic, payload, span in batch:
            # Mathematically send + latency >= barrier; clamp the
            # one-ulp float shortfall when the sum rounds below
            # the epoch-grid boundary (same clamp on every shard
            # count — the grid is computed identically).
            delay = send_s + latency - now
            timeout(delay if delay > 0.0 else 0.0,
                    (dest, topic, payload, span)).callbacks.append(
                        _relay_arrival)
            count += 1
            if span is not None:
                spans += 1
    if count:
        dest.ctx.publish(RELAY_TOPIC, {
            "epoch": epoch, "zone": dest.name, "count": count,
            "spans": spans, "time_s": t_barrier})
    if record_barrier:
        dest.ctx.publish(BARRIER_TOPIC, {
            "epoch": epoch, "zone": dest.name, "time_s": t_barrier})
    return count


def render_merged_jsonl(rows: Iterable[tuple]) -> str:
    """Render merged ``(zone_name, time_s, topic, payload, span)`` rows
    as the canonical deterministic JSONL both backends fingerprint."""
    lines = []
    for seq, (zone_name, time_s, topic, payload, span) in enumerate(rows):
        obj = {"seq": seq, "zone": zone_name, "time_s": time_s,
               "topic": topic, "payload": payload}
        if span is not None:
            obj["span"] = span
        lines.append(json.dumps(obj, sort_keys=True,
                                separators=(",", ":")))
    return "\n".join(lines)


def append_observability_jsonl(text: str, snapshot: dict,
                               time_s: float) -> str:
    """Append ``obs.metrics`` (and, when profiling, ``obs.shard_profile``)
    rows to a merged-trace JSONL, continuing the global seq — the
    sharded counterpart of ``RuntimeContext.snapshot_observability``.
    The rows are appended at export time only; ``digest()`` fingerprints
    the pure event trace, so exporting observability (whose profile
    rows carry nondeterministic wall times) never moves the digest."""
    lines = [text] if text else []
    seq = text.count("\n") + 1 if text else 0
    rows = [(METRICS_TOPIC, snapshot["metrics"])]
    profile = snapshot.get("profile")
    if profile is not None:
        rows.append((SHARD_PROFILE_TOPIC, profile))
    for topic, payload in rows:
        lines.append(json.dumps(
            {"seq": seq, "time_s": time_s, "topic": topic,
             "payload": payload}, sort_keys=True, separators=(",", ":")))
        seq += 1
    return "\n".join(lines)


class ShardedContext:
    """Coordinates per-shard simulators under conservative epoch barriers.

    ``zones`` fixes the zone names and their ranks (list order); zones
    are grouped onto ``n_shards`` simulator heaps in contiguous rank
    blocks. ``link_latency_s`` is the minimum cross-zone link latency —
    the lookahead that bounds the epoch length; ``epoch_s`` may shorten
    (never stretch) the epoch below the lookahead.

    The sharding is *invisible* to the scenario: the epoch grid, the
    relay order and every zone's record stream depend only on the zone
    list, the seed and the latency configuration — see the module
    docstring for the determinism argument.
    """

    def __init__(self, seed: int = 0, zones: Sequence[str] = ("zone-00",),
                 n_shards: int = 1, *, link_latency_s: float | None = None,
                 epoch_s: float | None = None, start_time: float = 0.0,
                 trace_capacity: int = 65536,
                 barrier_record_every: int = 1, profile: bool = False):
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
        self.seed = int(seed)
        self.n_shards = max(1, min(int(n_shards), len(names)))
        self.link_latency_s = link_latency_s
        #: Conservative lookahead: how far a shard may run ahead without
        #: missing cross-zone traffic. Never smaller than the minimum
        #: cross-zone link latency (it *is* that latency).
        self.lookahead_s = link_latency_s if link_latency_s is not None \
            else _INF
        self.epoch_s = min(epoch_s, self.lookahead_s) \
            if epoch_s is not None else self.lookahead_s
        self._start = float(start_time)
        self._now = self._start
        self._epoch = 0
        self._barrier_record_every = barrier_record_every

        # One DES heap per shard; runtime/ is the allowlisted home for
        # direct Simulator construction (continuum-lint).
        from repro.continuum.simulator import Simulator
        self._sims = [Simulator(start_time) for _ in range(self.n_shards)]
        self._zones: list[ZoneRuntime] = []
        self._by_name: dict[str, ZoneRuntime] = {}
        n = len(names)
        for rank, name in enumerate(names):
            shard = rank * self.n_shards // n
            # The seed subtree hangs off the zone *name*: invariant to
            # zone order, shard count and shard assignment.
            ctx = RuntimeContext(
                seed=derive_seed(self.seed, f"shard.zone.{name}"),
                start_time=start_time, trace_capacity=trace_capacity,
                sim=self._sims[shard])
            zone = ZoneRuntime(name, rank, shard, ctx)
            self._zones.append(zone)
            self._by_name[name] = zone

        # Relay state: per (src_rank, dest_rank) message buffers filled
        # by taps during an epoch, drained at the barrier. Markers hold
        # the last relayed publish id per pair (a publish matching
        # several tapped patterns is buffered once).
        self._outbox: dict[tuple[int, int], list] = {}
        self._marks: dict[tuple[int, int], list[int]] = {}
        self._tapped: set[tuple[int, int, str]] = set()
        self._sub_watermark = -1

        # Merged-trace memoization: --check twin comparisons call
        # digest()/scorecard() repeatedly; re-sorting an unchanged trace
        # is pure waste. The watermark is (seq, len) per zone — any
        # record appended or evicted since the last merge changes it.
        self._merge_watermark: tuple | None = None
        self._merged: list[tuple[str, TraceRecord]] = []
        self._jsonl: str | None = None
        self._digest: str | None = None

        #: Coordinator-side observability (runtime.shard.*): epoch
        #: progress, relay traffic and per-barrier backlog. Lives on the
        #: coordinator, not any zone context, so reading it never
        #: perturbs a zone's trace.
        self.metrics = MetricsRegistry()
        self.metrics.gauge_callback(
            "runtime.shard.epochs", lambda: float(self._epoch),
            "completed epoch barriers")
        self.metrics.gauge_callback(
            "runtime.shard.relay.backlog",
            lambda: float(sum(len(b) for b in self._outbox.values())),
            "cross-zone messages buffered awaiting the next barrier")
        self._relay_messages = self.metrics.counter(
            "runtime.shard.relay.messages",
            "cross-zone messages injected at barriers", label_key="zone")

        #: Opt-in barrier/straggler profiling. Wall times live on the
        #: coordinator (profiler + runtime.shard.epoch.* histograms),
        #: never in a zone trace — profiling cannot move the digest.
        self.profiler = ShardProfiler(self.n_shards, "sequential") \
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

        epoch_payload = None if self.epoch_s == _INF else self.epoch_s
        lookahead_payload = None if self.lookahead_s == _INF \
            else self.lookahead_s
        for zone in self._zones:
            zone.ctx.publish("shard.partition.assign", {
                "zone": zone.name, "rank": zone.rank,
                "epoch_s": epoch_payload,
                "lookahead_s": lookahead_payload,
                "time_s": self._start})

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
        return [z.name for z in self._zones]

    @property
    def zone_runtimes(self) -> list[ZoneRuntime]:
        return list(self._zones)

    def zone(self, name: str) -> RuntimeContext:
        """The :class:`RuntimeContext` scenario code builds zone *name* on."""
        try:
            return self._by_name[name].ctx
        except KeyError:
            raise NotFoundError(f"unknown zone {name!r}") from None

    def shard_of(self, name: str) -> int:
        """Physical shard index a zone is grouped on (execution detail —
        never observable in the merged trace)."""
        return self._by_name[name].shard

    @property
    def now(self) -> float:
        """Barrier-synchronized simulated time."""
        return self._now

    @property
    def epoch(self) -> int:
        """Completed epoch count."""
        return self._epoch

    # -- cross-zone relay --------------------------------------------------

    def _refresh_relays(self) -> None:
        """(Re)install relay taps: for every pattern on a zone's bus,
        every *other* zone's bus gets a tap buffering matching publishes
        for barrier delivery. The patterns include the taps already on
        that bus, so a pattern one zone subscribes to spreads to every
        zone within a round or two. Idempotent; re-run whenever a
        subscription (a tap included) was added since the last
        barrier."""
        watermark = sum(z.ctx.bus._order for z in self._zones)
        if watermark == self._sub_watermark:
            return
        self._sub_watermark = watermark
        round_taps: dict[tuple[int, str], list] = {}
        for dest in self._zones:
            patterns: list[str] = []
            seen: set[str] = set()
            for sub in dest.ctx.bus._subs:
                if sub.active and sub.pattern not in seen:
                    seen.add(sub.pattern)
                    patterns.append(sub.pattern)
            for src in self._zones:
                if src is dest:
                    continue
                pair = (src.rank, dest.rank)
                if pair not in self._outbox:
                    self._outbox[pair] = []
                    self._marks[pair] = [-1]
                for pattern in patterns:
                    key = (src.rank, dest.rank, pattern)
                    if key in self._tapped:
                        continue
                    self._tapped.add(key)
                    add_relay_tap(round_taps, src, pattern,
                                  self._outbox[pair], self._marks[pair])
        if self._tapped and self.lookahead_s == _INF:
            raise ConfigurationError(
                "zones subscribe to each other's topics but no "
                "cross-zone link latency is configured; pass "
                "link_latency_s= so the epoch barrier has a lookahead")

    def _flush(self, epoch: int, t_barrier: float) -> list[int]:
        """Barrier: inject buffered cross-zone messages into their
        destination shards at true arrival times, in deterministic
        (epoch, zone_rank, seq) order. Returns per-shard injected
        counts (the profiler's relay column)."""
        latency = self.link_latency_s or 0.0
        record_barrier = epoch % self._barrier_record_every == 0
        relay = [0] * self.n_shards
        for dest in self._zones:
            batches = []
            for src in self._zones:
                if src is dest:
                    continue
                batch = self._outbox.get((src.rank, dest.rank))
                if batch:
                    batches.append(batch)
            count = flush_zone_inbox(dest, batches, latency, epoch,
                                     t_barrier, record_barrier)
            for batch in batches:
                batch.clear()
            if count:
                self._relay_messages.inc(count, label=dest.name)
                relay[dest.shard] += count
        return relay

    # -- execution ---------------------------------------------------------

    def run(self, until: float) -> None:
        """Advance every shard to *until* through the epoch-barrier loop.

        ``until`` must be finite: an unbounded drain has no barrier
        schedule. The epoch grid is anchored at the start time —
        ``barrier(k) = start + (k+1) * epoch_s`` — so it is identical
        for every shard count and for any sequence of ``run()`` calls
        ending at the same horizon.
        """
        deadline = float(until)
        if deadline == _INF:
            raise ConfigurationError(
                "ShardedContext.run() needs a finite horizon")
        if deadline < self._now:
            raise ConfigurationError("run(until=...) lies in the past")
        self._refresh_relays()
        while self._now < deadline:
            if self.epoch_s == _INF:
                boundary = deadline
            else:
                boundary = self._start + (self._epoch + 1) * self.epoch_s
            t_next = min(boundary, deadline)
            profiler = self.profiler
            if profiler is not None:
                advance_ns = []
                for sim in self._sims:
                    t0 = profiler.clock()
                    sim.run(until=t_next)
                    advance_ns.append(profiler.clock() - t0)
            else:
                for sim in self._sims:
                    sim.run(until=t_next)
            relay = self._flush(self._epoch, t_next)
            if profiler is not None:
                profiler.record_epoch(self._epoch, t_next, advance_ns,
                                      relay)
                row = profiler.epochs[-1]
                for adv, wait in zip(row["advance_ns"], row["wait_ns"]):
                    self._h_advance.observe(adv / 1e9)
                    self._h_wait.observe(wait / 1e9)
            self._now = t_next
            if boundary <= deadline:
                self._epoch += 1
            # Taps for subscriptions added during the epoch take effect
            # at the barrier — identically for every shard count.
            self._refresh_relays()

    # -- merged trace ------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Total DES events executed across every shard heap."""
        return sum(sim.processed_events for sim in self._sims)

    def _trace_watermark(self) -> tuple:
        return tuple((z.ctx.trace._seq, len(z.ctx.trace))
                     for z in self._zones)

    def merged_records(self) -> list[tuple[str, TraceRecord]]:
        """Every zone's retained records as one globally ordered stream.

        Sorted by ``(time_s, zone_rank, zone_seq)`` — a total order that
        is a pure function of the per-zone record streams, hence
        shard-count-invariant. Memoized until the next record lands
        (``--check`` twin comparisons hit digest()/scorecard()
        repeatedly); treat the returned list as read-only.
        """
        watermark = self._trace_watermark()
        if watermark != self._merge_watermark:
            keyed = [(rec.time_s, zone.rank, rec.seq, zone.name, rec)
                     for zone in self._zones for rec in zone.ctx.trace]
            keyed.sort(key=lambda item: (item[0], item[1], item[2]))
            self._merged = [(name, rec) for _, _, _, name, rec in keyed]
            self._jsonl = None
            self._digest = None
            self._merge_watermark = watermark
        return self._merged

    def to_jsonl(self) -> str:
        """The merged trace as deterministic JSONL (global seq, zone tag)."""
        merged = self.merged_records()
        if self._jsonl is None:
            self._jsonl = render_merged_jsonl(
                (name, rec.time_s, rec.topic, rec.payload, rec.span)
                for name, rec in merged)
        return self._jsonl

    def export_jsonl(self, path: str | Path, *,
                     observability: bool = False) -> int:
        """Write the merged trace to *path*; returns records written.

        ``observability=True`` appends the aggregated metrics snapshot
        (and the profiler payload when profiling) as trailing rows, so
        one file feeds every ``repro-obs`` subcommand. The digest stays
        over the pure event trace either way."""
        text = self.to_jsonl()
        if observability:
            text = append_observability_jsonl(
                text, self.snapshot_observability(), self._now)
        Path(path).write_text(text + ("\n" if text else ""))
        return text.count("\n") + 1 if text else 0

    def digest(self) -> str:
        """SHA-256 over the merged trace bytes — the replay fingerprint
        the scale example and CI pin."""
        text = self.to_jsonl()
        if self._digest is None:
            self._digest = hashlib.sha256(text.encode()).hexdigest()
        return self._digest

    # -- aggregated observability ------------------------------------------

    def aggregate_metrics(self) -> MetricsRegistry:
        """Fold every zone's registry into one global registry.

        Merge order is fixed by zone rank (and, on the parallel twin,
        deltas are applied in ``(epoch, zone rank)`` order), shard-
        execution-detail metrics are excluded (:data:`
        SHARD_SCOPED_METRICS`) and the backend-invariant event total is
        re-derived from the coordinator — so ``to_payload()`` /
        ``render_exposition`` are byte-identical across backends and
        worker counts. Pinned by ``tests/test_obs_sharded.py``."""
        registry = MetricsRegistry()
        for zone in self._zones:
            registry.merge_payload(zone.ctx.metrics.to_payload(),
                                   exclude=SHARD_SCOPED_METRICS)
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
                f"zones={len(self._zones)}, shards={self.n_shards}, "
                f"now={self._now}, epoch={self._epoch})")
