"""Tests for the worker executor (``ShardedContext(workers=N)``).

The headline property: a multiprocess run — zones built inside worker
processes, relay messages routed through the coordinator, trace records
streamed back per epoch — produces digests, scorecards and delivery
streams *byte-identical* to the in-process reference, for workers in
{1, 2, 4} over random zone counts, fleet sizes and seeds. Alongside it:
failure surfacing (a dying or raising worker raises
``ShardWorkerError``, never hangs the barrier), lifecycle shape,
memoization and coordinator metrics on both executors, the packaged
scale scenario's cross-executor contract, the relay's one recorded copy
per publish (the origin record's, shared by every destination, so
neither a later mutation nor a handler's mutation during dispatch can
reach the trace), the streamed digest, the k-way merge's order against
one global sort, and renderers that never build the merged list.

Builders live at module level so they stay picklable under any
multiprocessing start method.
"""

import hashlib
import json
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
    """merged_records(), digest() and to_jsonl() render the same trace
    alike on repeated calls, and see the records a later run() lands —
    on both executors. Nothing is memoized: each call renders afresh."""

    def test_repeat_calls_hit_the_cache(self):
        for workers in EXECUTORS:
            with _fleet_context(1, _zone_names(2), workers, 3) as sharded:
                sharded.run(until=20.0)
                assert sharded.epoch == 40
                assert sharded.now == 20.0
            # Closed: the trace cannot change anymore.
            assert sharded.merged_records() == sharded.merged_records()
            assert sharded.digest() == sharded.digest()
            assert sharded.to_jsonl() == sharded.to_jsonl()

    def test_new_records_invalidate(self):
        for workers in EXECUTORS:
            with _fleet_context(5, _zone_names(2), workers, 3) as sharded:
                sharded.run(until=10.0)
                first_merged = sharded.merged_records()
                first_digest = sharded.digest()
                sharded.run(until=20.0)
                assert sharded.merged_records() != first_merged
                assert len(sharded.merged_records()) > len(first_merged)
                assert sharded.digest() != first_digest


def _build_mutating_zone(ctx, zone: str, mutate_at: float):
    """Zone ``a`` publishes the dict ``state`` at t=0.5 and sets
    ``state["n"] = 99`` at *mutate_at*, after publishing it; zone ``b``
    subscribes, so the publish relays there and arrives at t=1.5.
    Returns ``a``'s state dict and the payloads ``b``'s handler saw."""
    if zone == "a":
        state = {"n": 0}

        def publisher():
            yield ctx.sim.timeout(0.5)
            ctx.publish("app.state", state)
            yield ctx.sim.timeout(mutate_at - 0.5)
            state["n"] = 99

        ctx.sim.process(publisher())
        return state
    seen: list = []
    ctx.subscribe("app.state", lambda topic, payload: seen.append(payload))
    return seen


def _finalize_as_is(state, zone: str, args):
    return state


class TestPublishThenMutate:
    """A publisher that mutates its payload after publishing it: the
    relay records the payload as it was when published, so the merged
    trace does not depend on the executor. Mutating before the arrival
    (t=1.2) once recorded the mutation in process but not through a
    worker pipe, which pickled the message at the barrier; mutating
    after it (t=1.7) once recorded it with two heaps, where zone a runs
    its whole epoch before zone b, but not with one."""

    @pytest.mark.parametrize("mutate_at", [1.2, 1.7])
    def test_every_executor_records_the_published_state(self, mutate_at):
        digests = set()
        for executor in ({"n_shards": 1}, {"n_shards": 2}, {"workers": 2}):
            with ShardedContext(
                    seed=0, zones=("a", "b"), link_latency_s=1.0,
                    zone_builder=_build_mutating_zone,
                    zone_args=mutate_at, zone_finalizer=_finalize_as_is,
                    **executor) as sharded:
                sharded.run(until=3.0)
                results = sharded.finalize()
            recorded = [(zone, rec.time_s, rec.payload)
                        for zone, rec in sharded.merged_records()
                        if rec.topic == "app.state"]
            assert recorded == [("a", 0.5, {"n": 0}),
                                ("b", 1.5, {"n": 0})]
            digests.add(sharded.digest())
            if "n_shards" in executor:
                # Handlers still receive the published object itself.
                (delivered,) = results["b"]
                assert delivered is results["a"]
        assert len(digests) == 1


class TestRelaySharesOneCopy:
    """The tap normalizes a relayed publish once: the records of one
    origin telemetry publish in every destination zone hold one payload
    object, equal to the origin record's. Through worker pipes the
    copies are equal, not shared."""

    CONFIG = ScaleConfig(devices=800, zones=4, shards=4, horizon_s=100.0,
                         telemetry_period_s=2.0, link_latency_s=10.0,
                         barrier_record_every=10)

    def _groups(self, sharded):
        """Per origin telemetry publish: its origin record's payload and
        the payloads of its relayed records, which share one arrival
        time. The merged trace is time-ordered, so both lists are in
        send order."""
        origins: dict[str, list] = {}
        arrivals: dict[str, dict[float, list]] = {}
        for zone, rec in sharded.merged_records():
            if not rec.topic.startswith("shard.fleet.telemetry."):
                continue
            if rec.topic.endswith("." + zone):
                origins.setdefault(rec.topic, []).append(rec)
            else:
                arrivals.setdefault(rec.topic, {}).setdefault(
                    rec.time_s, []).append(rec.payload)
        groups = []
        for topic, recs in origins.items():
            for origin, (arrival, payloads) in zip(
                    recs, arrivals[topic].items()):
                assert arrival == pytest.approx(
                    origin.time_s + self.CONFIG.link_latency_s)
                groups.append((origin.payload, payloads))
        return groups

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_destinations_share_one_payload(self, n_shards):
        result = run_scale_scenario(self.CONFIG, n_shards=n_shards,
                                    workers=0)
        groups = self._groups(result.sharded)
        assert len(groups) > 100
        for origin, payloads in groups:
            assert len(payloads) == self.CONFIG.zones - 1
            assert all(payload is payloads[0] for payload in payloads)
            assert payloads[0] == origin

    def test_worker_copies_are_equal(self):
        result = run_scale_scenario(self.CONFIG, workers=2)
        groups = self._groups(result.sharded)
        assert len(groups) > 100
        for origin, payloads in groups:
            assert len(payloads) == self.CONFIG.zones - 1
            assert all(payload == origin for payload in payloads)


def _build_silent_zone(ctx, zone: str, args) -> None:
    """Drops the zone's ``shard.partition.assign`` record, so a context
    of silent zones starts with an empty merged trace."""
    ctx.trace.clear()


class TestStreamingDigest:
    """digest() hashes the merged JSONL line by line; it must equal the
    SHA-256 of ``to_jsonl()`` on both executors."""

    @staticmethod
    def _sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("workers", EXECUTORS)
    @pytest.mark.parametrize("jsonl_first", [False, True])
    def test_digest_is_sha256_of_jsonl(self, workers, jsonl_first):
        with _fleet_context(2, _zone_names(2), workers, 3) as sharded:
            sharded.run(until=10.0)
            if jsonl_first:
                text = sharded.to_jsonl()
                digest = sharded.digest()
            else:
                digest = sharded.digest()
                text = sharded.to_jsonl()
            assert text
            assert digest == self._sha(text)
            # Both refresh once run() lands more records.
            sharded.run(until=20.0)
            longer = sharded.to_jsonl()
            assert len(longer) > len(text)
            assert sharded.digest() == self._sha(longer) != digest

    @pytest.mark.parametrize("workers", EXECUTORS)
    def test_empty_trace_digests_to_sha256_of_nothing(self, workers,
                                                      tmp_path):
        with ShardedContext(seed=0, zones=_zone_names(2), workers=workers,
                            zone_builder=_build_silent_zone) as sharded:
            assert sharded.merged_records() == []
            assert sharded.to_jsonl() == ""
            assert sharded.digest() == hashlib.sha256(b"").hexdigest()
            path = tmp_path / "empty.jsonl"
            assert sharded.export_jsonl(path) == 0
            assert path.read_text() == ""
            # The metrics row alone, numbered from 0.
            assert sharded.export_jsonl(path, observability=True) == 1
            (row,) = [json.loads(line)
                      for line in path.read_text().splitlines()]
            assert (row["seq"], row["topic"]) == (0, "obs.metrics")


def _build_drawn_zone(ctx, zone: str, drawn: dict) -> None:
    """Records the zone's drawn ``(kind, time_s)`` list straight into
    its trace: ``"at"`` a plain record stamped *time_s*, ``"span"`` a
    span recorded after the fact with ``end_s=time_s`` — which may lie
    before records already in the ring."""
    for i, (kind, time_s) in enumerate(drawn[zone]):
        if kind == "at":
            ctx.trace.record(time_s, "test.drawn", {"i": i, "zone": zone})
        else:
            ctx.tracer.record_span("test.drawn", "test", start_s=0.0,
                                   end_s=time_s, i=i)


def _expected_order(sharded):
    """The merged order by its definition: one global sort of every
    live ring's records by ``(time_s, zone rank, zone seq)``."""
    keyed = sorted(
        ((rec.time_s, rank, rec.seq), zone.name, rec)
        for rank, zone in enumerate(sharded.zone_runtimes)
        for rec in zone.ctx.trace)
    return [(name, rec) for _, name, rec in keyed]


def _render(merged, extra_rows=()):
    """JSONL as the merged trace renders it, from a ``(zone, record)``
    list, plus trailing ``(time_s, topic, payload)`` rows."""
    from repro.runtime.trace import canonical_json
    lines = []
    for seq, (name, rec) in enumerate(merged):
        obj = {"seq": seq, "zone": name, "time_s": rec.time_s,
               "topic": rec.topic, "payload": rec.payload}
        if rec.span is not None:
            obj["span"] = rec.span
        lines.append(canonical_json(obj))
    for time_s, topic, payload in extra_rows:
        lines.append(canonical_json({"seq": len(lines), "time_s": time_s,
                                     "topic": topic, "payload": payload}))
    return "\n".join(lines)


_DRAWN_ZONES = st.lists(
    st.lists(st.tuples(st.sampled_from(["at", "at", "span"]),
                       st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])),
             max_size=10),
    min_size=1, max_size=4)


class TestMergedStreamOrder:
    """The k-way merge of per-zone runs yields exactly the global sort by
    ``(time_s, zone rank, zone seq)``: equal times across zones (drawn
    from five values), spans stamped before records already in the ring,
    and rings small enough to evict."""

    @settings(max_examples=60, deadline=None)
    @given(zones=_DRAWN_ZONES, capacity=st.integers(1, 12),
           n_shards=st.integers(1, 4))
    def test_live_rings(self, zones, capacity, n_shards):
        names = _zone_names(len(zones))
        drawn = dict(zip(names, zones))
        sharded = ShardedContext(seed=3, zones=names, n_shards=n_shards,
                                 trace_capacity=capacity)
        for name in names:
            _build_drawn_zone(sharded.zone(name), name, drawn)
        expected = _expected_order(sharded)
        # Records are built from the rings' rows on every read, so two
        # reads give equal records, not the same objects.
        assert sharded.merged_records() == expected
        text = _render(expected)
        assert sharded.to_jsonl() == text
        assert sharded.digest() == hashlib.sha256(text.encode()).hexdigest()

    @settings(max_examples=8, deadline=None)
    @given(zones=_DRAWN_ZONES, capacity=st.integers(1, 12))
    def test_worker_replicas(self, zones, capacity):
        names = _zone_names(len(zones))
        drawn = dict(zip(names, zones))
        reference = ShardedContext(seed=3, zones=names,
                                   trace_capacity=capacity)
        for name in names:
            _build_drawn_zone(reference.zone(name), name, drawn)
        expected = _expected_order(reference)
        with ShardedContext(seed=3, zones=names, workers=2,
                            trace_capacity=capacity,
                            zone_builder=_build_drawn_zone,
                            zone_args=drawn) as sharded:
            assert sharded.merged_records() == expected
            assert sharded.to_jsonl() == _render(expected)
            assert sharded.digest() == reference.digest()


class TestRenderersStream:
    """digest(), to_jsonl() and export_jsonl() render the merged trace
    from the stream, never from merged_records()'s list: with that
    method made to raise they still work, and their bytes equal a
    render of the list."""

    @pytest.mark.parametrize("workers", EXECUTORS)
    def test_renderers_never_build_the_list(self, workers, tmp_path,
                                            monkeypatch):
        with _fleet_context(4, _zone_names(3), workers, 3) as sharded:
            sharded.run(until=10.0)
            merged = list(sharded.merged_records())
            snapshot = sharded.snapshot_observability()

            def forbidden(self):
                raise AssertionError("merged_records() was called")

            monkeypatch.setattr(ShardedContext, "merged_records", forbidden)
            text = _render(merged)
            assert sharded.digest() == \
                hashlib.sha256(text.encode()).hexdigest()
            assert sharded.to_jsonl() == text
            plain = tmp_path / "plain.jsonl"
            assert sharded.export_jsonl(plain) == len(merged)
            assert plain.read_text() == text + "\n"
            rows = [(sharded.now, "obs.metrics", snapshot["metrics"])]
            full = tmp_path / "full.jsonl"
            assert sharded.export_jsonl(full, observability=True) == \
                len(merged) + 1
            assert full.read_text() == _render(merged, rows) + "\n"


def _build_mutating_handler_zone(ctx, zone: str, args) -> list:
    """Zone ``a`` publishes ``{"n": 0}`` at t=0.5 to its own handler,
    which sets ``n`` to 99 during dispatch — before the relay tap, which
    is installed after every build-time subscription. Zone ``b``
    subscribes, so the publish relays there."""
    seen: list = []
    if zone == "a":
        def mutate(topic, payload):
            payload["n"] = 99

        ctx.subscribe("app.state", mutate)

        def publisher():
            yield ctx.sim.timeout(0.5)
            ctx.publish("app.state", {"n": 0})

        ctx.sim.process(publisher())
    else:
        ctx.subscribe("app.state",
                      lambda topic, payload: seen.append(dict(payload)))
    return seen


class TestHandlerMutatesBeforeTap:
    """The relay ships the origin record's normalized copy, so a handler
    that mutates the payload during dispatch, before the tap runs,
    cannot make the relayed record differ from the origin record."""

    def test_relayed_record_equals_origin_record(self):
        for executor in ({"n_shards": 1}, {"n_shards": 2}, {"workers": 2}):
            with ShardedContext(
                    seed=0, zones=("a", "b"), link_latency_s=1.0,
                    zone_builder=_build_mutating_handler_zone,
                    zone_finalizer=_finalize_as_is,
                    **executor) as sharded:
                sharded.run(until=3.0)
                results = sharded.finalize()
            recorded = [(zone, rec.time_s, rec.payload)
                        for zone, rec in sharded.merged_records()
                        if rec.topic == "app.state"]
            assert recorded == [("a", 0.5, {"n": 0}),
                                ("b", 1.5, {"n": 0})], executor
            # The handler in b still receives the object as it is.
            assert results["b"] == [{"n": 99}], executor
