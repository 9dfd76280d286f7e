"""Tests for the worker executor (``ShardedContext(workers=N)``).

The headline property: a multiprocess run — zones built inside worker
processes, relay messages routed through the coordinator, trace records
streamed back per epoch — produces digests, scorecards and delivery
streams *byte-identical* to the in-process reference, for workers in
{1, 2, 4} over random zone counts, fleet sizes and seeds. Alongside it:
failure surfacing (a dying or raising worker raises
``ShardWorkerError``, never hangs the barrier), lifecycle shape,
memoization and coordinator metrics on both executors, and the packaged
scale scenario's cross-executor contract.

Builders live at module level so they stay picklable under any
multiprocessing start method.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import DeviceFleet, ScaleConfig, run_scale_scenario
from repro.core.errors import ConfigurationError
from repro.runtime import ShardedContext, ShardWorkerError

#: Worker counts covering both executors.
EXECUTORS = (0, 2)


def _zone_names(n_zones: int) -> list[str]:
    return [f"z{i}" for i in range(n_zones)]


def _build_fleet_zone(ctx, zone: str, args: dict) -> dict:
    """Same cross-zone scenario as test_sharded._fleet_run: per-zone
    fleets, zone-0 aggregation, one forced outage on the last zone."""
    names = args["names"]
    state: dict = {}
    if zone == names[0]:
        stream: list = []

        def on_telemetry(topic, payload):
            stream.append((ctx.now, payload["zone"], payload["up"]))

        ctx.subscribe("shard.fleet.telemetry.*", on_telemetry)
        state["stream"] = stream
    fleet = DeviceFleet(zone, args["devices"], ctx=ctx,
                        fail_rate_per_s=5e-3, repair_rate_per_s=5e-2)
    if zone == names[-1]:
        fleet.schedule_outage(10.0, 5.0)
    fleet.start(2.5)
    state["fleet"] = fleet
    return state


def _finalize_fleet_zone(state: dict, zone: str, args: dict) -> dict:
    result = {"scorecard": state["fleet"].scorecard()}
    if "stream" in state:
        result["stream"] = state["stream"]
    return result


def _sequential_reference(seed, names, devices, horizon):
    sharded = ShardedContext(seed=seed, zones=names, n_shards=len(names),
                             link_latency_s=0.5)
    args = {"names": names, "devices": devices}
    states = [_build_fleet_zone(sharded.zone(name), name, args)
              for name in names]
    sharded.run(until=horizon)
    results = {name: _finalize_fleet_zone(states[i], name, args)
               for i, name in enumerate(names)}
    return sharded, results


def _fleet_context(seed, names, workers, devices) -> ShardedContext:
    return ShardedContext(
        seed=seed, zones=names, n_shards=len(names), workers=workers,
        link_latency_s=0.5, zone_builder=_build_fleet_zone,
        zone_args={"names": names, "devices": devices},
        zone_finalizer=_finalize_fleet_zone)


def _parallel_run(seed, names, workers, devices, horizon):
    with _fleet_context(seed, names, workers, devices) as parallel:
        parallel.run(until=horizon)
        results = parallel.finalize()
    return parallel, results


class TestParallelEqualsSequential:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n_zones=st.integers(min_value=2, max_value=4),
           workers=st.sampled_from([1, 2, 4]),
           devices=st.integers(min_value=1, max_value=8))
    def test_digests_scorecards_streams_match(self, seed, n_zones,
                                              workers, devices):
        """Random partitions/seeds, workers in {1, 2, 4}: identical
        merged digests, per-zone scorecards and zone-0 delivery
        streams vs the sequential reference."""
        names = _zone_names(n_zones)
        seq_ctx, seq = _sequential_reference(seed, names, devices, 30.0)
        par_ctx, par = _parallel_run(seed, names, workers, devices, 30.0)
        assert par_ctx.digest() == seq_ctx.digest()
        for name in names:
            assert par[name]["scorecard"] == seq[name]["scorecard"]
        assert par[names[0]]["stream"] == seq[names[0]]["stream"]

    def test_merged_records_and_jsonl_match_sequential(self):
        names = _zone_names(3)
        seq_ctx, _ = _sequential_reference(5, names, 4, 20.0)
        par_ctx, _ = _parallel_run(5, names, 2, 4, 20.0)
        assert par_ctx.to_jsonl() == seq_ctx.to_jsonl()
        seq_merged = seq_ctx.merged_records()
        par_merged = par_ctx.merged_records()
        assert [(n, r.seq, r.time_s, r.topic, r.payload, r.span)
                for n, r in par_merged] == \
               [(n, r.seq, r.time_s, r.topic, r.payload, r.span)
                for n, r in seq_merged]

    def test_scale_scenario_parallel_twin(self):
        """The packaged scale scenario: parallel == sequential ==
        single-shard, digest and scorecard."""
        config = ScaleConfig(devices=60, zones=4, shards=4,
                             horizon_s=80.0, seed=3, outage_at_s=30.0,
                             outage_duration_s=20.0,
                             barrier_record_every=20)
        seq = run_scale_scenario(config)
        single = run_scale_scenario(config, n_shards=1)
        par = run_scale_scenario(config, workers=2)
        assert par.digest() == seq.digest() == single.digest()
        assert par.scorecard() == seq.scorecard()


def _build_chain_zone(ctx, zone: str, args) -> list:
    """Relay chain: zone a publishes ``app.ping`` at t=1; zone b answers
    every ping with an ``app.pong``; zone c listens for pongs. Returns
    the zone's handler log of ``(receive time, topic)``."""
    log: list = []
    if zone == "a":
        def sender():
            yield ctx.sim.timeout(1.0)
            ctx.publish("app.ping", {"n": 1})
        ctx.sim.process(sender())
    elif zone == "b":
        def on_ping(topic, payload):
            log.append((ctx.now, topic))
            ctx.publish("app.pong", {"n": payload["n"]})
        ctx.subscribe("app.ping", on_ping)
    else:
        ctx.subscribe("app.pong",
                      lambda topic, payload: log.append((ctx.now, topic)))
    return log


def _finalize_chain_zone(log: list, zone: str, args) -> list:
    return log


class TestRelayChain:
    """A handler that answers a relayed message with a publish of its
    own: the relayed delivery must not be forwarded again, but the
    answer is an ordinary publish and must relay on."""

    LATENCY = 0.5

    def test_answer_to_relayed_message_relays_once(self):
        names = ["a", "b", "c"]
        seq = ShardedContext(seed=3, zones=names, n_shards=3,
                             link_latency_s=self.LATENCY)
        seq_logs = {name: _build_chain_zone(seq.zone(name), name, None)
                    for name in names}
        seq.run(until=10.0)
        with ShardedContext(
                seed=3, zones=names, workers=2,
                link_latency_s=self.LATENCY,
                zone_builder=_build_chain_zone,
                zone_finalizer=_finalize_chain_zone) as par:
            par.run(until=10.0)
            par_logs = par.finalize()
        for sharded, logs in ((seq, seq_logs), (par, par_logs)):
            # b hears the ping exactly once, one latency after a sent it.
            assert logs["b"] == [(1.0 + self.LATENCY, "app.ping")]
            # c hears b's answer exactly once, one latency later.
            t_b = logs["b"][0][0]
            assert logs["c"] == [(t_b + self.LATENCY, "app.pong")]
            assert logs["a"] == []
            # Every message is recorded once per zone: its origin
            # publish, then one relayed delivery in each other zone.
            # Nothing comes back to its sender.
            app = sorted((rec.topic, name, rec.time_s)
                         for name, rec in sharded.merged_records()
                         if rec.topic.startswith("app."))
            assert app == [
                ("app.ping", "a", 1.0), ("app.ping", "b", t_b),
                ("app.ping", "c", t_b),
                ("app.pong", "a", t_b + self.LATENCY),
                ("app.pong", "b", t_b),
                ("app.pong", "c", t_b + self.LATENCY)]
        assert par.digest() == seq.digest()


def _build_crashing_zone(ctx, zone: str, args: dict) -> dict:
    """The first zone hosts a process that kills its whole worker
    mid-epoch — simulating a hard crash (OOM-kill, segfault)."""
    if zone == args["crash_zone"]:
        def boom():
            yield ctx.sim.timeout(2.0)
            os._exit(13)
        ctx.sim.process(boom(), name="boom")
    return {}


def _build_raising_zone(ctx, zone: str, args: dict) -> dict:
    raise ValueError("kaboom during zone build")


def _build_idle_zone(ctx, zone: str, args: dict) -> dict:
    return {}


def _finalize_marker(state, zone: str, args: dict) -> str:
    return f"done-{zone}"


class TestFailureSurfacing:
    def test_worker_crash_raises_instead_of_hanging(self):
        """A shard process dying mid-run raises ShardWorkerError at the
        barrier — promptly, never a deadlock."""
        with ShardedContext(
                seed=0, zones=("za", "zb"), workers=2, link_latency_s=1.0,
                zone_builder=_build_crashing_zone,
                zone_args={"crash_zone": "za"}) as parallel:
            with pytest.raises(ShardWorkerError, match="died|broke"):
                parallel.run(until=10.0)

    def test_build_error_carries_worker_traceback(self):
        with pytest.raises(ShardWorkerError, match="kaboom"):
            ShardedContext(
                seed=0, zones=("za",), workers=1,
                zone_builder=_build_raising_zone)

    def test_run_after_close_raises(self):
        parallel = ShardedContext(
            seed=0, zones=("za",), workers=1,
            zone_builder=_build_idle_zone)
        parallel.close()
        with pytest.raises(ConfigurationError):
            parallel.run(until=1.0)

    def test_cross_zone_subs_without_latency_raise(self):
        """Workers raise the in-process ConfigurationError when zones
        subscribe cross-zone but no lookahead is configured."""
        with ShardedContext(
                seed=0, zones=_zone_names(2), workers=2,
                zone_builder=_build_fleet_zone,
                zone_args={"names": _zone_names(2), "devices": 2},
                zone_finalizer=_finalize_fleet_zone) as parallel:
            with pytest.raises(ConfigurationError,
                               match="link_latency_s"):
                parallel.run(until=10.0)


class TestParallelContextShape:
    def test_zone_access_is_rejected(self):
        with ShardedContext(
                seed=0, zones=("za",), workers=1,
                zone_builder=_build_idle_zone) as parallel:
            with pytest.raises(ConfigurationError, match="zone_builder"):
                parallel.zone("za")

    def test_finalize_collects_every_zone(self):
        for workers in EXECUTORS:
            with ShardedContext(
                    seed=0, zones=_zone_names(3), workers=workers,
                    link_latency_s=1.0, zone_builder=_build_idle_zone,
                    zone_finalizer=_finalize_marker) as parallel:
                parallel.run(until=5.0)
                results = parallel.finalize()
                assert results == {name: f"done-{name}"
                                   for name in _zone_names(3)}
                # Idempotent, and still readable after close().
                parallel.close()
                assert parallel.finalize() == results

    def test_metrics_registered_under_runtime_shard(self):
        """The coordinator metrics e2ebench reads, on both executors;
        only workers route messages and stream trace batches."""
        for workers in EXECUTORS:
            with _fleet_context(0, _zone_names(2), workers, 2) as sharded:
                sharded.run(until=10.0)
                snapshot = sharded.metrics.to_payload()
                assert snapshot["runtime.shard.epochs"]["value"] == 20.0
                assert snapshot["runtime.shard.relay.messages"]["value"] > 0
                streamed = snapshot["runtime.shard.trace.batches"]["value"]
                assert (streamed > 0) == bool(workers)
                assert sharded.events_executed > 0


class TestSequentialMemoization:
    """merged_records()/digest() memoized across repeated calls,
    invalidated when run() lands new records — on both executors."""

    def test_repeat_calls_hit_the_cache(self):
        for workers in EXECUTORS:
            with _fleet_context(1, _zone_names(2), workers, 3) as sharded:
                sharded.run(until=20.0)
                assert sharded.epoch == 40
                assert sharded.now == 20.0
            # Closed: the trace cannot change anymore.
            assert sharded.merged_records() is sharded.merged_records()
            assert sharded.to_jsonl() is sharded.to_jsonl()
            assert sharded.digest() is sharded.digest()

    def test_new_records_invalidate(self):
        for workers in EXECUTORS:
            with _fleet_context(5, _zone_names(2), workers, 3) as sharded:
                sharded.run(until=10.0)
                first_merged = sharded.merged_records()
                first_digest = sharded.digest()
                sharded.run(until=20.0)
                assert sharded.merged_records() is not first_merged
                assert len(sharded.merged_records()) > len(first_merged)
                assert sharded.digest() != first_digest
