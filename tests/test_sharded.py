"""Tests for zone-sharded simulation (:mod:`repro.runtime.shard`).

The headline property: the merged trace and every scorecard of a
sharded run are byte-identical to its single-shard twin, for random
zone counts, shard counts, fleet sizes and seeds — the zone (not the
shard) is the unit of determinism. Alongside it: the conservative
lookahead bound (epoch lookahead is never smaller than the minimum
cross-zone link latency), the relay's timing/no-echo semantics on both
executors (in process and ``workers=2``), the
:meth:`Infrastructure.partition` decomposition and the merged-trace
serialization contract.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import (
    DeviceFleet,
    ScaleConfig,
    build_reference_infrastructure,
    run_scale_scenario,
)
from repro.core.errors import ConfigurationError, NotFoundError
from repro.runtime import RuntimeContext, ShardedContext

#: Worker counts covering both executors: in process, and two worker
#: processes.
EXECUTORS = (0, 2)

#: The end-to-end benchmark's pinned 100k-continuum digests.
PINNED_100K = Path(__file__).resolve().parents[1] / "e2ebench" / \
    "digests.json"


def _fleet_run(seed: int, n_zones: int, n_shards: int,
               devices: int = 6, horizon: float = 30.0):
    """A small cross-zone scenario: per-zone fleets, zone-0 aggregation,
    one forced outage. Returns (digest, scorecards, aggregator stream)."""
    zones = [f"z{i}" for i in range(n_zones)]
    sharded = ShardedContext(seed=seed, zones=zones, n_shards=n_shards,
                             link_latency_s=0.5)
    stream = []
    agg_ctx = sharded.zone(zones[0])
    agg_ctx.subscribe(
        "shard.fleet.telemetry.*",
        lambda t, p: stream.append((agg_ctx.now, p["zone"], p["up"])))
    fleets = []
    for name in zones:
        fleet = DeviceFleet(name, devices, ctx=sharded.zone(name),
                            fail_rate_per_s=5e-3, repair_rate_per_s=5e-2)
        fleet.start(2.5)
        fleets.append(fleet)
    fleets[-1].schedule_outage(10.0, 5.0)
    sharded.run(until=horizon)
    return sharded.digest(), [f.scorecard() for f in fleets], stream


class TestShardCountInvariance:
    @settings(max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n_zones=st.integers(min_value=2, max_value=5),
           n_shards=st.integers(min_value=2, max_value=8),
           devices=st.integers(min_value=1, max_value=12))
    def test_sharded_equals_single_shard_twin(self, seed, n_zones,
                                              n_shards, devices):
        """Random partitions/seeds: identical digests, scorecards and
        aggregator-observed delivery streams at any shard count."""
        sharded = _fleet_run(seed, n_zones, n_shards, devices)
        single = _fleet_run(seed, n_zones, 1, devices)
        assert sharded[0] == single[0]
        assert sharded[1] == single[1]
        assert sharded[2] == single[2]

    @settings(max_examples=5)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           shards=st.integers(min_value=2, max_value=4))
    def test_scale_scenario_digest_and_scorecard(self, seed, shards):
        """The packaged scale scenario obeys the same twin contract."""
        config = ScaleConfig(devices=60, zones=4, shards=shards,
                             horizon_s=80.0, seed=seed, outage_at_s=30.0,
                             outage_duration_s=20.0,
                             barrier_record_every=20)
        sharded = run_scale_scenario(config)
        single = run_scale_scenario(config, n_shards=1)
        assert sharded.digest() == single.digest()
        assert sharded.scorecard() == single.scorecard()

    def test_zone_seed_depends_on_name_not_shard(self):
        """The RNG subtree hangs off the zone name: regrouping zones
        onto different shard counts leaves every zone's seed alone."""
        zones = ("za", "zb", "zc")
        many = ShardedContext(seed=11, zones=zones, n_shards=3,
                              link_latency_s=1.0)
        one = ShardedContext(seed=11, zones=zones, n_shards=1,
                             link_latency_s=1.0)
        for name in zones:
            assert many.zone(name).seed == one.zone(name).seed


class TestPinned100k:
    def test_default_seed_reproduces_the_benchmark_pin(self):
        """``metro_100k`` seed 0 (100k devices, 16 zones, in process)
        renders the trace, metrics and event count the end-to-end
        benchmark pins; the metrics digest is taken as
        ``e2ebench/pin_digests.py`` takes it."""
        pinned = json.loads(PINNED_100K.read_text())["metro_100k"]["0"]
        result = run_scale_scenario(ScaleConfig.metro_100k(seed=0),
                                    workers=0)
        metrics = json.dumps(
            result.sharded.snapshot_observability()["metrics"],
            sort_keys=True, separators=(",", ":"))
        assert {"trace": result.digest(),
                "metrics": hashlib.sha256(metrics.encode()).hexdigest(),
                "events": result.sharded.events_executed} == pinned


class TestLookaheadBound:
    """Regression: epoch lookahead >= minimum cross-zone link latency."""

    @staticmethod
    def _partition():
        infra = build_reference_infrastructure(ctx=RuntimeContext(seed=7))
        return infra.partition()

    def test_for_partition_lookahead_covers_min_cross_latency(self):
        part = self._partition()
        assert part.min_cross_latency_s < float("inf")
        sharded = ShardedContext.for_partition(part, seed=7, n_shards=2)
        assert sharded.lookahead_s >= part.min_cross_latency_s
        assert sharded.epoch_s <= sharded.lookahead_s

    def test_epoch_override_never_stretches_past_lookahead(self):
        part = self._partition()
        sharded = ShardedContext.for_partition(
            part, seed=7, epoch_s=part.min_cross_latency_s * 100.0)
        assert sharded.lookahead_s >= part.min_cross_latency_s
        assert sharded.epoch_s <= sharded.lookahead_s

    def test_explicit_epoch_may_shorten_below_lookahead(self):
        sharded = ShardedContext(zones=("a", "b"), link_latency_s=2.0,
                                 epoch_s=0.5)
        assert sharded.epoch_s == 0.5
        assert sharded.lookahead_s == 2.0


class TestZonePartition:
    @staticmethod
    def _infra():
        return build_reference_infrastructure(ctx=RuntimeContext(seed=3))

    def test_default_partition_is_by_layer(self):
        infra = self._infra()
        part = infra.partition()
        assert set(part.assignment) == set(infra.devices)
        assert part.zones == tuple(sorted(set(part.assignment.values())))
        for name, device in infra.devices.items():
            assert part.assignment[name] == device.spec.layer.value

    def test_devices_in_inverts_assignment(self):
        part = self._infra().partition()
        for zone in part.zones:
            members = part.devices_in(zone)
            assert members
            assert all(part.assignment[d] == zone for d in members)

    def test_min_cross_latency_bounds_every_cross_link(self):
        infra = self._infra()
        part = infra.partition()
        assert part.cross_links
        by_key = {link.key(): link for link in infra.network.links}
        latencies = [by_key[key].effective_latency()
                     for key in part.cross_links]
        assert part.min_cross_latency_s == min(latencies)

    def test_callable_and_mapping_partitions_agree(self):
        infra = self._infra()
        by_call = infra.partition(
            by=lambda d: f"ring-{len(d.name) % 2}")
        mapping = {name: f"ring-{len(name) % 2}"
                   for name in infra.devices}
        by_map = infra.partition(by=mapping)
        assert by_call == by_map

    def test_single_zone_partition_cuts_no_links(self):
        infra = self._infra()
        part = infra.partition(by=lambda d: "everything")
        assert part.zones == ("everything",)
        assert part.cross_links == ()
        assert part.min_cross_latency_s == float("inf")


def _build_relay_zone(ctx, zone: str, args: dict) -> list:
    """Relay fixture: zone ``a`` publishes each ``(time, topic, n)`` of
    ``args["sends"]``; every pattern in ``args["subs"][zone]`` logs
    ``(pattern, receive time, n)``. Module level, so workers can run it.
    """
    log: list = []
    for pattern in args["subs"].get(zone, ()):
        ctx.subscribe(pattern, lambda topic, payload, _p=pattern:
                      log.append((_p, ctx.now, payload["n"])))
    if zone == "a" and args["sends"]:
        def sender():
            for at, topic, n in args["sends"]:
                yield ctx.sim.timeout(at - ctx.now)
                ctx.publish(topic, {"n": n})

        ctx.sim.process(sender())
    return log


def _finalize_relay_zone(log: list, zone: str, args: dict) -> list:
    return log


def _relay_context(workers: int, zones, subs: dict, sends=(),
                   latency: float | None = 0.5) -> ShardedContext:
    return ShardedContext(
        seed=0, zones=zones, n_shards=len(zones), workers=workers,
        link_latency_s=latency, zone_builder=_build_relay_zone,
        zone_args={"subs": subs, "sends": list(sends)},
        zone_finalizer=_finalize_relay_zone)


def _relay_run(workers: int, zones, subs: dict, sends=(),
               until: float = 10.0):
    """Run the relay fixture; returns (context, per-zone logs)."""
    with _relay_context(workers, zones, subs, sends) as sharded:
        sharded.run(until=until)
        return sharded, sharded.finalize()


def _build_answer_zone(ctx, zone: str, args: dict) -> list:
    """Nested-publish fixture: zone ``a`` answers each ``app.ping`` with
    an ``app.pong`` — from a handler subscribed at build, or, given
    ``args["answer_at"]``, from a DES process at that time, after the
    zone's first relay round — and publishes one ``app.ping`` at t=2.
    Zone ``b`` logs each ``app.*`` message it receives as ``(time,
    topic)``."""
    log: list = []
    if zone == "b":
        ctx.subscribe("app.*", lambda topic, payload:
                      log.append((ctx.now, topic)))
        return log

    def answer(topic, payload):
        ctx.publish("app.pong", {"to": topic})

    def pinger():
        if args["answer_at"] is not None:
            yield ctx.sim.timeout(args["answer_at"])
            ctx.subscribe("app.ping", answer)
        yield ctx.sim.timeout(2.0 - ctx.now)
        ctx.publish("app.ping", {"n": 1})

    if args["answer_at"] is None:
        ctx.subscribe("app.ping", answer)
    ctx.sim.process(pinger())
    return log


def _build_late_listener_zone(ctx, zone: str, args) -> list:
    """Zone ``a`` publishes ``app.ping`` ``{"n": t}`` at t=1..5; zone
    ``b`` subscribes ``app.other`` at build and ``app.ping`` from a DES
    process at t=2.5, logging ``(time, n)``."""
    log: list = []
    if zone == "a":
        def pinger():
            for n in range(1, 6):
                yield ctx.sim.timeout(n - ctx.now)
                ctx.publish("app.ping", {"n": n})

        ctx.sim.process(pinger())
        return log
    ctx.subscribe("app.other", lambda topic, payload: None)

    def listen():
        yield ctx.sim.timeout(2.5)
        ctx.subscribe("app.ping", lambda topic, payload:
                      log.append((ctx.now, payload["n"])))

    ctx.sim.process(listen())
    return log


#: Both executors and both in-process shard counts.
RELAY_EXECUTORS = ({"n_shards": 1}, {"n_shards": 2}, {"workers": 2})


def _executor_runs(builder, args, until: float) -> list[tuple]:
    """Run *builder*'s zones ``a`` and ``b`` on every executor; returns
    (executor, b's log, digest) per executor."""
    runs = []
    for executor in RELAY_EXECUTORS:
        with ShardedContext(seed=0, zones=("a", "b"), link_latency_s=1.0,
                            zone_builder=builder, zone_args=args,
                            zone_finalizer=_finalize_relay_zone,
                            **executor) as sharded:
            sharded.run(until=until)
            runs.append((executor, sharded.finalize()["b"],
                         sharded.digest()))
    return runs


class TestEpochRelay:
    def test_cross_zone_delivery_at_send_plus_latency(self):
        for workers in EXECUTORS:
            _, logs = _relay_run(
                workers, ("a", "b"), {"b": ["app.ping"]},
                sends=[(1.25, "app.ping", 1), (3.25, "app.ping", 2)])
            assert [(t, n) for _, t, n in logs["b"]] == \
                [(1.75, 1), (3.75, 2)], workers

    def test_local_delivery_stays_synchronous(self):
        for workers in EXECUTORS:
            _, logs = _relay_run(workers, ("a", "b"), {"a": ["app.ping"]},
                                 sends=[(1.25, "app.ping", 1)], until=5.0)
            assert [t for _, t, _ in logs["a"]] == [1.25], workers

    def test_relay_is_single_hop_no_echo(self):
        """Three zones all subscribed to the same topic: one publish
        reaches each remote zone exactly once and is never re-forwarded
        by a destination (no echo storm)."""
        zones = ("a", "b", "c")
        for workers in EXECUTORS:
            _, logs = _relay_run(
                workers, zones,
                {name: ["app.broadcast"] for name in zones},
                sends=[(1.0, "app.broadcast", 7)], until=20.0)
            assert {name: [n for _, _, n in log]
                    for name, log in logs.items()} == \
                {"a": [7], "b": [7], "c": [7]}, workers

    def test_multiple_matching_patterns_deliver_once_per_subscription(self):
        """A publish matching several tapped patterns crosses the relay
        once; the destination bus then fans it out normally."""
        for workers in EXECUTORS:
            sharded, logs = _relay_run(
                workers, ("a", "b"), {"b": ["app.*", "app.ping"]},
                sends=[(1.0, "app.ping", 1)], until=5.0)
            assert sorted(p for p, _, _ in logs["b"]) == \
                ["app.*", "app.ping"], workers
            relay_records = [rec for zone, rec in sharded.merged_records()
                             if zone == "b"
                             and rec.topic == "shard.relay.deliver"]
            assert len(relay_records) == 1, workers
            assert relay_records[0].payload["count"] == 1

    def test_cross_zone_subs_without_latency_raise(self):
        for workers in EXECUTORS:
            with _relay_context(workers, ("a", "b"), {"b": ["app.ping"]},
                                latency=None) as sharded:
                with pytest.raises(ConfigurationError,
                                   match="link_latency_s"):
                    sharded.run(until=1.0)

    def test_subscription_added_mid_run_takes_effect_at_barrier(self):
        sharded = ShardedContext(seed=0, zones=("a", "b"), n_shards=2,
                                 link_latency_s=1.0)
        ctx_a, ctx_b = sharded.zone("a"), sharded.zone("b")
        got = []

        def sender():
            while True:
                yield ctx_a.sim.timeout(1.0)
                ctx_a.publish("app.tick", {"t": ctx_a.now})

        ctx_a.sim.process(sender())
        sharded.run(until=3.0)
        assert got == []
        ctx_b.subscribe("app.tick", lambda t, p: got.append(p["t"]))
        sharded.run(until=6.0)
        # Every tick published after the subscription barrier relays,
        # the first epoch's included; the t=6 tick arrives past the run.
        assert got == [4.0, 5.0]

    @pytest.mark.parametrize("answer_at", [None, 0.5],
                             ids=["build-time", "late-handler"])
    def test_publish_relays_once_after_its_handlers(self, answer_at):
        """``a`` answers each ping from a handler subscribed at build, or
        after its first relay round (its relay then gains ``app.ping``
        next to ``app.*``). The relay runs after the handlers, so the
        answer published during the ping's delivery reaches ``b``
        first, and the ping reaches it once."""
        digests = set()
        for executor, log, digest in _executor_runs(
                _build_answer_zone, {"answer_at": answer_at}, until=4.0):
            assert log == [(3.0, "app.pong"), (3.0, "app.ping")], executor
            digests.add(digest)
        assert len(digests) == 1

    def test_pattern_added_to_relay_reaches_seen_topic(self):
        """``a``'s relay already answered ``app.ping`` (no outbox) before
        ``b`` subscribed to it; the pattern added at the next barrier
        must take effect for that topic too."""
        for executor, log, _ in _executor_runs(
                _build_late_listener_zone, None, until=6.0):
            assert log == [(5.0, 4), (6.0, 5)], executor


class TestShardedContextShape:
    def test_validation(self):
        for workers in EXECUTORS:
            for bad in ({"zones": ()}, {"zones": ("a", "a")},
                        {"zones": ("a",), "link_latency_s": 0.0},
                        {"zones": ("a",), "epoch_s": -1.0},
                        {"zones": ("a",), "barrier_record_every": 0}):
                with pytest.raises(ConfigurationError):
                    ShardedContext(workers=workers, **bad)
        with pytest.raises(ConfigurationError):
            ShardedContext(zones=("a",), workers=-1)

    def test_run_horizon_validation(self):
        sharded = ShardedContext(zones=("a",))
        with pytest.raises(ConfigurationError):
            sharded.run(until=float("inf"))
        sharded.run(until=5.0)
        with pytest.raises(ConfigurationError):
            sharded.run(until=1.0)

    def test_shard_assignment_is_contiguous_and_clamped(self):
        """Shards (heaps, or worker processes) are clamped to the zone
        count and hold contiguous rank blocks; an unknown zone name is
        a NotFoundError on either executor."""
        for workers in (0, 8):
            with ShardedContext(zones=("a", "b", "c"), n_shards=99,
                                workers=workers,
                                link_latency_s=1.0) as sharded:
                assert sharded.n_shards == 3
                ranks = [sharded.shard_of(name)
                         for name in ("a", "b", "c")]
                assert ranks == sorted(ranks)
                assert sharded.zones == ["a", "b", "c"]
                with pytest.raises(NotFoundError):
                    sharded.shard_of("nope")
                with pytest.raises(NotFoundError):
                    sharded.zone("nope")

    def test_unknown_zone_raises(self):
        sharded = ShardedContext(zones=("a",))
        with pytest.raises(NotFoundError):
            sharded.zone("nope")

    def test_epoch_grid_is_anchored_at_start(self):
        sharded = ShardedContext(zones=("a", "b"), n_shards=2,
                                 link_latency_s=0.5)
        sharded.run(until=2.0)
        assert sharded.epoch == 4
        assert sharded.now == 2.0


class TestMergedTrace:
    @staticmethod
    def _run():
        sharded = ShardedContext(seed=5, zones=("a", "b"), n_shards=2,
                                 link_latency_s=0.5)
        for name in ("a", "b"):
            fleet = DeviceFleet(name, 3, ctx=sharded.zone(name),
                                fail_rate_per_s=5e-3)
            fleet.start(1.0)
        sharded.run(until=10.0)
        return sharded

    def test_jsonl_global_seq_and_time_order(self):
        sharded = self._run()
        lines = sharded.to_jsonl().split("\n")
        objs = [json.loads(line) for line in lines]
        assert [o["seq"] for o in objs] == list(range(len(objs)))
        times = [o["time_s"] for o in objs]
        assert times == sorted(times)
        assert {o["zone"] for o in objs} == {"a", "b"}

    def test_digest_is_sha256_of_jsonl(self):
        sharded = self._run()
        expected = hashlib.sha256(sharded.to_jsonl().encode()).hexdigest()
        assert sharded.digest() == expected

    def test_export_jsonl_roundtrip(self, tmp_path):
        sharded = self._run()
        path = tmp_path / "trace.jsonl"
        written = sharded.export_jsonl(path)
        text = path.read_text()
        assert text.endswith("\n")
        assert written == len(text.splitlines())
        assert text.rstrip("\n") == sharded.to_jsonl()

    def test_partition_assign_records_present(self):
        sharded = ShardedContext(seed=1, zones=("a", "b"), n_shards=2,
                                 link_latency_s=0.25)
        records = [rec for name in ("a", "b")
                   for rec in sharded.zone(name).trace
                   if rec.topic == "shard.partition.assign"]
        assert len(records) == 2
        assert {rec.payload["zone"] for rec in records} == {"a", "b"}
        for rec in records:
            assert rec.payload["lookahead_s"] == 0.25
