"""Barrier injection rides one heap cursor per zone and barrier.

``flush_zone_inbox`` schedules a zone's buffered relay messages as one
:class:`~repro.continuum.simulator.TimeoutRun`. The reference here is
the injection it replaced: one ``sim.timeout(delay, msg)`` plus one
callback per message. Hypothesis drives both over small sharded
scenarios (1–4 zones on 1..n shards, epochs at and below the
lookahead, shared and distinct publish instants, with and without an
open span, handlers that publish, start a process at the delivery
instant or raise) and requires the same per-zone record streams, the
same ``processed_events`` and the same merged digest — and, after a
handler raises, the same count and the same pending arrivals. Alongside
it: the traced boundaries (``relay_deliver`` and ``flush_zone_inbox``
wrapped as module attributes, as the end-to-end benchmark's tracer
wraps them).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum.simulator import TimeoutRun
from repro.runtime import ShardedContext
from repro.runtime import shard

LATENCY = 1.0
HORIZON = 6.0


def reference_flush_zone_inbox(dest, batches, latency, epoch, t_barrier,
                               record_barrier):
    """The per-message injection: one Timeout and one callback per
    buffered message, scheduled in source-rank then send order."""
    sim = dest.ctx.sim
    now = sim.now
    count = 0
    spans = 0
    for batch in batches:
        for send_s, topic, payload, span, recorded in batch:
            delay = send_s + latency - now
            sim.timeout(delay if delay > 0.0 else 0.0,
                        (dest, topic, payload, span, recorded)
                        ).callbacks.append(
                lambda event: shard.relay_deliver(*event.value))
            count += 1
            if span is not None:
                spans += 1
    if count:
        dest.ctx.publish(shard.RELAY_TOPIC, {
            "epoch": epoch, "zone": dest.name, "count": count,
            "spans": spans, "time_s": t_barrier})
    if record_barrier:
        dest.ctx.publish(shard.BARRIER_TOPIC, {
            "epoch": epoch, "zone": dest.name, "time_s": t_barrier})
    return count


class Boom(Exception):
    """Raised by the ``raise`` handler on its k-th delivery."""


#: Publish instants: a shared grid (many same-instant arrivals, within
#: and across zones) and arbitrary floats (distinct instants).
_INSTANTS = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 2.25, 3.0]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False))

_SENDS = st.lists(st.tuples(_INSTANTS, st.integers(0, 2), st.booleans()),
                  max_size=8)

#: (pattern, handler kind). ``publish`` and ``process`` react to
#: ``app.*`` only, so reactions never chain without end.
_HANDLERS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["app.t0", "app.t1", "app.*", "nest.*",
                               "proc.*"]), st.just("log")),
    st.tuples(st.just("app.*"),
              st.sampled_from(["publish", "process", "raise"]))),
    max_size=4)


@st.composite
def scenarios(draw):
    n_zones = draw(st.integers(1, 4))
    return {
        "n_zones": n_zones,
        "n_shards": draw(st.integers(1, n_zones)),
        "epoch_s": draw(st.sampled_from([None, LATENCY / 2, LATENCY / 3])),
        "sends": [draw(_SENDS) for _ in range(n_zones)],
        "handlers": [draw(_HANDLERS) for _ in range(n_zones)],
        "raise_on": draw(st.integers(1, 6)),
    }


def _build_zone(ctx, zone, sends, handlers, raise_on, armed):
    """Publishers on timeouts set at build (exact instants) and the
    zone's handlers. ``armed[0]`` switches the raising handler off."""
    deliveries = [0]

    def make_handler(kind):
        def log(topic, payload):
            pass

        def publish(topic, payload):
            ctx.publish("nest." + topic, {"zone": zone, "at": ctx.now})

        def process(topic, payload):
            def reaction():
                # Runs in the URGENT init event, before any later
                # same-instant arrival.
                ctx.publish("proc.start", {"zone": zone, "at": ctx.now})
                yield ctx.sim.timeout(0)
                ctx.publish("proc.after", {"zone": zone, "at": ctx.now})

            ctx.sim.process(reaction())

        def boom(topic, payload):
            deliveries[0] += 1
            if armed[0] and deliveries[0] == raise_on:
                raise Boom(zone)

        return {"log": log, "publish": publish, "process": process,
                "raise": boom}[kind]

    for pattern, kind in handlers:
        ctx.subscribe(pattern, make_handler(kind))

    for at, index, with_span in sends:
        def send(event, topic=f"app.t{index}", with_span=with_span):
            if with_span:
                with ctx.tracer.start_span("test.send", layer="test"):
                    ctx.publish(topic, {"zone": zone, "at": ctx.now})
            else:
                ctx.publish(topic, {"zone": zone, "at": ctx.now})

        ctx.sim.timeout(at).callbacks.append(send)


def _pending(sim):
    """Every pending heap slot as ``(time, key)``: a run's remaining
    deliveries each stand for the Timeout they replace."""
    slots = []
    for when, key, event in sim._queue:
        if isinstance(event, TimeoutRun):
            slots += [(t, k) for t, k, _ in event._entries[event._next:]]
        else:
            slots.append((when, key))
    return sorted(slots)


def _observe(sharded):
    return {
        "records": [[(rec.seq, rec.time_s, rec.topic, rec.payload,
                      rec.span) for rec in zone.ctx.trace]
                    for zone in sharded.zone_runtimes],
        "events": sharded.events_executed,
        "digest": sharded.digest(),
    }


def _run(scenario, flush=None):
    """Run *scenario*, with barrier injection by *flush* when given.
    Returns what the run showed: observations at the raise (if any),
    and after the run went on to the horizon with the raise disarmed."""
    names = [f"z{i}" for i in range(scenario["n_zones"])]
    sharded = ShardedContext(seed=3, zones=names,
                             n_shards=scenario["n_shards"],
                             link_latency_s=LATENCY,
                             epoch_s=scenario["epoch_s"])
    armed = [True]
    for rank, name in enumerate(names):
        _build_zone(sharded.zone(name), name, scenario["sends"][rank],
                    scenario["handlers"][rank], scenario["raise_on"],
                    armed)
    seen = {}
    original = shard.flush_zone_inbox
    if flush is not None:
        shard.flush_zone_inbox = flush
    try:
        try:
            sharded.run(until=HORIZON)
        except Boom as exc:
            seen["raised"] = str(exc)
            seen["at_raise"] = _observe(sharded)
            seen["pending"] = [_pending(sim) for sim in sharded._host.sims]
            armed[0] = False
            sharded.run(until=HORIZON)
    finally:
        shard.flush_zone_inbox = original
    seen["final"] = _observe(sharded)
    return seen


class TestArrivalRunOracle:
    @settings(max_examples=200)
    @given(scenario=scenarios())
    def test_run_matches_one_timeout_per_message(self, scenario):
        assert _run(scenario) == \
            _run(scenario, flush=reference_flush_zone_inbox)

    def test_scenarios_reach_every_case(self):
        """Guard the oracle's reach: a fixed scenario with a same-instant
        run, a process started mid-run, a nested relay and a raise
        mid-run, on two barriers pending at once."""
        scenario = {
            "n_zones": 3, "n_shards": 2, "epoch_s": LATENCY / 2,
            "sends": [[(1.0, 0, True), (1.0, 1, False), (1.0, 2, False),
                       (2.25, 0, False)],
                      [(1.0, 0, False), (1.5, 1, True)],
                      [(0.5, 0, False)]],
            "handlers": [[("app.*", "log")],
                         [("app.*", "process"), ("app.*", "publish"),
                          ("proc.*", "log")],
                         [("app.*", "raise"), ("nest.*", "log")]],
            "raise_on": 2,
        }
        ours = _run(scenario)
        assert ours == _run(scenario, flush=reference_flush_zone_inbox)
        assert ours["raised"] == "z2"
        assert any(ours["pending"])
        topics = {rec[2] for zone in ours["final"]["records"]
                  for rec in zone}
        assert {"proc.start", "proc.after", "nest.app.t0"} <= topics


def _traced_run(monkeypatch, n_shards):
    """A 3-zone fan-out run with ``relay_deliver`` and
    ``flush_zone_inbox`` wrapped as module attributes of
    ``repro.runtime.shard``, the way the end-to-end benchmark's tracer
    wraps them. ``relay_deliver`` is wrapped only after the first
    barrier's flush, so the arrivals it scheduled count only if each
    arrival looks the function up when it arrives. Returns (sharded,
    deliver calls per zone, flushes per (zone, epoch))."""
    delivered: dict[str, int] = {}
    flushed: dict[tuple[str, int], int] = {}
    deliver, flush = shard.relay_deliver, shard.flush_zone_inbox

    def traced_deliver(dest, *args):
        delivered[dest.name] = delivered.get(dest.name, 0) + 1
        return deliver(dest, *args)

    def traced_flush(dest, batches, latency, epoch, *args):
        key = (dest.name, epoch)
        flushed[key] = flushed.get(key, 0) + 1
        return flush(dest, batches, latency, epoch, *args)

    monkeypatch.setattr(shard, "flush_zone_inbox", traced_flush)
    names = ["a", "b", "c"]
    sharded = ShardedContext(seed=5, zones=names, n_shards=n_shards,
                             link_latency_s=LATENCY)
    for name in names:
        ctx = sharded.zone(name)
        ctx.subscribe("app.*", lambda topic, payload: None)
        for at in (0.5, 0.5, 1.25, 2.0, 3.5, 3.5):
            ctx.sim.timeout(at).callbacks.append(
                lambda event, ctx=ctx, name=name:
                ctx.publish(f"app.{name}", {"at": ctx.now}))
    sharded.run(until=LATENCY)
    assert not delivered and sharded.epoch == 1
    monkeypatch.setattr(shard, "relay_deliver", traced_deliver)
    sharded.run(until=5.0)
    return sharded, delivered, flushed


class TestTracedBoundaries:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_one_call_per_relayed_record_and_one_flush_per_zone_epoch(
            self, monkeypatch, n_shards):
        sharded, delivered, flushed = _traced_run(monkeypatch, n_shards)
        # Every relayed record in a destination zone's trace is one
        # wrapped relay_deliver call.
        relayed = {}
        for zone in sharded.zone_runtimes:
            relayed[zone.name] = sum(
                1 for rec in zone.ctx.trace
                if rec.topic.startswith("app.")
                and rec.topic != f"app.{zone.name}")
        assert delivered == relayed
        assert sum(relayed.values()) == 3 * 2 * 6
        # One flush per zone per epoch barrier.
        assert sharded.epoch == 5
        assert flushed == {(name, epoch): 1 for name in ("a", "b", "c")
                           for epoch in range(5)}
