"""Continuum-scale observability across the sharded backends.

The headline property (pinned here, promised in
``ShardedContext.aggregate_metrics``): the merged span forest and the
aggregated metrics payload are *byte-identical* across a single-shard
run, a multi-shard :class:`ShardedContext` and its worker executor for
workers in {1, 2, 4}. Alongside it: one injected fault yields exactly
one causal span tree crossing zones (fault root → relay deliveries →
watcher reactions → repair), the cross-shard relay fast path emits
records byte-identical to the generic ``resume + start_span`` path it
hand-inlines (including the error status), metrics merge/delta algebra,
``ShardProfiler`` accounting and digest-neutrality, and the
``repro-obs`` subcommands over a merged sharded export.

Builders live at module level so they stay picklable under any
multiprocessing start method.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum import DeviceFleet
from repro.obs.cli import main as obs_main
from repro.obs.metrics import MetricsRegistry, payload_delta
from repro.obs.profiler import ShardProfiler
from repro.obs.spans import SpanContext
from repro.runtime import ShardedContext
from repro.runtime.shard import relay_deliver


def _zone_names(n_zones: int) -> list[str]:
    return [f"z{i}" for i in range(n_zones)]


def _build_obs_zone(ctx, zone: str, args: dict) -> dict:
    """Cross-zone chaos scenario with full observability exercised:
    per-zone fleets, a forced outage on the last zone (root fault span),
    and a zone-0 watcher that reacts to relayed chaos events inside a
    nested span while bumping a labelled counter."""
    names = args["names"]
    if zone == names[0]:
        reactions = ctx.metrics.counter(
            "watch.chaos.reactions",
            "relayed chaos events the watcher reacted to",
            label_key="zone")

        def on_chaos(topic, payload):
            # Runs inside relay_deliver's resumed span, so this span
            # lands on the fault's causal tree as a relay grandchild.
            with ctx.tracer.start_span("watch.chaos.react", layer="watch",
                                       zone=zone, src=payload["zone"]):
                reactions.inc(label=payload["zone"])

        ctx.subscribe("chaos.zone.**", on_chaos)
    fleet = DeviceFleet(zone, args["devices"], ctx=ctx,
                        fail_rate_per_s=5e-3, repair_rate_per_s=5e-2)
    if zone == names[-1]:
        fleet.schedule_outage(10.0, 5.0)
    fleet.start(2.5)
    return {"fleet": fleet}


def _finalize_obs_zone(state: dict, zone: str, args: dict) -> dict:
    return {"scorecard": state["fleet"].scorecard()}


def _sequential_obs(seed, names, devices, n_shards, horizon=30.0):
    sharded = ShardedContext(seed=seed, zones=names, n_shards=n_shards,
                             link_latency_s=0.5)
    args = {"names": names, "devices": devices}
    for name in names:
        _build_obs_zone(sharded.zone(name), name, args)
    sharded.run(until=horizon)
    return sharded


def _parallel_obs(seed, names, devices, workers, horizon=30.0):
    args = {"names": names, "devices": devices}
    with ShardedContext(
            seed=seed, zones=names, workers=workers, link_latency_s=0.5,
            zone_builder=_build_obs_zone, zone_args=args,
            zone_finalizer=_finalize_obs_zone) as parallel:
        parallel.run(until=horizon)
        parallel.finalize()
    return parallel


def _span_forest(sharded) -> list[str]:
    """The obs.span rows of the merged JSONL, bytes included."""
    return [line for line in sharded.to_jsonl().splitlines()
            if '"topic":"obs.span"' in line]


def _metrics_bytes(sharded) -> str:
    """Canonical serialization of the aggregated metrics payload."""
    return json.dumps(sharded.snapshot_observability()["metrics"],
                      sort_keys=True, separators=(",", ":"))


class TestCrossBackendByteIdentity:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           n_zones=st.integers(min_value=2, max_value=4),
           workers=st.sampled_from([1, 2, 4]),
           devices=st.integers(min_value=1, max_value=6))
    def test_span_forest_and_metrics_identical(self, seed, n_zones,
                                               workers, devices):
        """Single-shard, multi-shard and multiprocess runs of the same
        scenario produce byte-identical merged span forests and
        byte-identical aggregated metrics payloads."""
        names = _zone_names(n_zones)
        single = _sequential_obs(seed, names, devices, n_shards=1)
        multi = _sequential_obs(seed, names, devices, n_shards=n_zones)
        par = _parallel_obs(seed, names, devices, workers)

        spans = _span_forest(single)
        assert spans  # outage + relays: the forest is never empty
        assert _span_forest(multi) == spans
        assert _span_forest(par) == spans

        metrics = _metrics_bytes(single)
        assert _metrics_bytes(multi) == metrics
        assert _metrics_bytes(par) == metrics

        assert single.digest() == multi.digest() == par.digest()

    def test_aggregate_excludes_shard_scoped_metrics(self):
        """Per-zone execution details (trace ring counters, per-heap
        event counts) never leak into the aggregated payload; the
        backend-invariant event total is re-derived instead."""
        names = _zone_names(3)
        sharded = _sequential_obs(21, names, 3, n_shards=3)
        payload = sharded.snapshot_observability()["metrics"]
        assert "runtime.trace.records" not in payload
        assert "runtime.trace.dropped" not in payload
        assert payload["continuum.sim.events_executed"]["value"] == \
            sharded.events_executed
        # The watcher's labelled counter survives aggregation with its
        # per-zone split intact (the outage zone dominates).
        reactions = payload["watch.chaos.reactions"]
        assert reactions["label_key"] == "zone"
        assert reactions["labels"].get(names[-1], 0) > 0


class TestOneFaultOneTree:
    def test_fault_spans_one_connected_cross_zone_tree(self):
        """The forced outage is the causal root of exactly one tree:
        relay deliveries in other zones, watcher reactions and the
        eventual repair all chain back to the fault span's id."""
        names = _zone_names(3)
        sharded = _sequential_obs(7, names, 4, n_shards=3)
        rows = [json.loads(line) for line in
                sharded.to_jsonl().splitlines()]
        spans = [(row["zone"], row["payload"]) for row in rows
                 if row["topic"] == "obs.span"]

        faults = [p for _, p in spans
                  if p["name"] == "continuum.fault.inject"]
        assert len(faults) == 1
        fault = faults[0]
        assert fault["parent_id"] is None  # root=True

        tree = [(z, p) for z, p in spans
                if p["trace_id"] == fault["trace_id"]]
        ids = {p["span_id"] for _, p in tree}
        roots = [p for _, p in tree if p["parent_id"] is None]
        assert roots == [fault]
        assert all(p["parent_id"] in ids
                   for _, p in tree if p["parent_id"] is not None)

        # The tree crosses zones: relay deliveries land outside the
        # faulted zone, watcher reactions hang off them in zone 0.
        relays = [(z, p) for z, p in tree
                  if p["name"] == "shard.relay.deliver"]
        assert relays
        assert all(z != names[-1] for z, _ in relays)
        reacts = [(z, p) for z, p in tree
                  if p["name"] == "watch.chaos.react"]
        assert reacts
        assert all(z == names[0] for z, _ in reacts)
        relay_ids = {p["span_id"] for _, p in relays}
        assert all(p["parent_id"] in relay_ids for _, p in reacts)

        # The repair rides the same tree (resumed fault context).
        repairs = [p for _, p in tree
                   if p["name"] == "continuum.fault.repair"]
        assert len(repairs) == 1
        assert repairs[0]["parent_id"] == fault["span_id"]


def _envelope(trace_id: str, span_id: str) -> dict:
    """The span envelope a relayed publish ships: the publisher span's
    own ``{"trace_id", "span_id", "parent_id"}`` dict."""
    return {"trace_id": trace_id, "span_id": span_id, "parent_id": None}


class TestRelayFastPathByteIdentity:
    """relay_deliver hand-inlines ``resume + start_span``; the comment
    in shard.py promises byte-identical records, pinned here."""

    @staticmethod
    def _solo(seed):
        sharded = ShardedContext(seed=seed, zones=("solo",), n_shards=1)
        return sharded, sharded.zone_runtimes[0], sharded.zone("solo")

    def test_matches_generic_resume_start_span(self):
        tid, sid = "ab" * 8, "cd" * 8
        payload = {"zone": "solo", "up": 9, "time_s": 0.0}

        fast, dest, fast_ctx = self._solo(11)
        relay_deliver(dest, "relay.test.msg", payload,
                      span=_envelope(tid, sid))
        relay_deliver(dest, "relay.test.msg", {"up": 8}, span=None)

        ref, _, ref_ctx = self._solo(11)
        with ref_ctx.tracer.resume(SpanContext(tid, sid)):
            with ref_ctx.tracer.start_span(
                    "shard.relay.deliver", layer="runtime",
                    topic="relay.test.msg", zone="solo"):
                ref_ctx.bus.publish("relay.test.msg", payload)
        ref_ctx.bus.publish("relay.test.msg", {"up": 8})

        assert fast_ctx.trace.to_jsonl() == ref_ctx.trace.to_jsonl()
        assert fast_ctx.tracer.spans_recorded == \
            ref_ctx.tracer.spans_recorded

    def test_error_status_recorded_and_exception_propagates(self):
        tid, sid = "ab" * 8, "cd" * 8

        def boom(topic, payload):
            raise RuntimeError("handler exploded")

        fast, dest, fast_ctx = self._solo(12)
        fast_ctx.subscribe("relay.err.msg", boom)
        with pytest.raises(RuntimeError, match="handler exploded"):
            relay_deliver(dest, "relay.err.msg", {"n": 1},
                          span=_envelope(tid, sid))
        span_rows = [r for r in fast_ctx.trace if r.topic == "obs.span"]
        assert span_rows[-1].payload["status"] == "error"

        ref, _, ref_ctx = self._solo(12)
        ref_ctx.subscribe("relay.err.msg", boom)
        with pytest.raises(RuntimeError):
            with ref_ctx.tracer.resume(SpanContext(tid, sid)):
                with ref_ctx.tracer.start_span(
                        "shard.relay.deliver", layer="runtime",
                        topic="relay.err.msg", zone="solo"):
                    ref_ctx.bus.publish("relay.err.msg", {"n": 1})
        assert fast_ctx.trace.to_jsonl() == ref_ctx.trace.to_jsonl()

    def test_disabled_tracer_relays_without_spans(self):
        fast, dest, ctx = self._solo(13)
        ctx.tracer.enabled = False
        before = len(ctx.trace)
        relay_deliver(dest, "relay.test.msg", {"n": 1},
                      span=_envelope("ab" * 8, "cd" * 8))
        topics = [r.topic for r in ctx.trace][before:]
        assert topics == ["relay.test.msg"]


class TestMetricsMergeAlgebra:
    @staticmethod
    def _source():
        src = MetricsRegistry()
        hits = src.counter("app.web.hits", "requests", label_key="zone")
        hits.inc(2, label="z0")
        hits.inc(1, label="z1")
        src.gauge("app.web.level").set(4.0)
        lat = src.histogram("app.web.lat_seconds", "latency",
                            buckets=(0.1, 1.0))
        lat.observe(0.05)
        lat.observe(5.0)
        return src

    def test_merge_adds_counters_gauges_histograms(self):
        src = self._source()
        dst = MetricsRegistry()
        dst.counter("app.web.hits", label_key="zone").inc(5, label="z0")
        dst.merge_payload(src.to_payload())
        payload = dst.to_payload()
        assert payload["app.web.hits"]["value"] == 8
        assert payload["app.web.hits"]["labels"] == {"z0": 7, "z1": 1}
        assert payload["app.web.level"]["value"] == 4.0
        hist = payload["app.web.lat_seconds"]
        assert hist["counts"] == [1, 0, 1]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(5.05)
        # Merging the same snapshot again doubles everything: the fold
        # is plain addition, commutative and associative.
        dst.merge_payload(src.to_payload())
        assert dst.to_payload()["app.web.hits"]["value"] == 11

    def test_merge_exclude_drops_named_metrics(self):
        dst = MetricsRegistry()
        dst.merge_payload(self._source().to_payload(),
                          exclude=frozenset({"app.web.hits"}))
        payload = dst.to_payload()
        assert "app.web.hits" not in payload
        assert "app.web.level" in payload

    def test_merge_histogram_bucket_mismatch_raises(self):
        dst = MetricsRegistry()
        dst.histogram("app.web.lat_seconds", buckets=(0.5, 2.0))
        with pytest.raises(TypeError, match="bucket mismatch"):
            dst.merge_payload(self._source().to_payload())

    def test_merge_unknown_kind_raises(self):
        with pytest.raises(TypeError, match="cannot merge"):
            MetricsRegistry().merge_payload(
                {"app.web.x": {"kind": "summary", "value": 1}})

    def test_payload_delta_ships_changed_entries_whole(self):
        src = self._source()
        prev = src.to_payload()
        src.counter("app.web.hits").inc(1, label="z0")
        src.counter("app.web.errors").inc(1)
        delta = payload_delta(prev, src.to_payload())
        assert set(delta) == {"app.web.hits", "app.web.errors"}
        assert delta["app.web.hits"]["labels"]["z0"] == 3
        assert payload_delta(src.to_payload(), src.to_payload()) == {}


class TestShardProfiler:
    def test_epoch_accounting_wait_and_critical_path(self):
        prof = ShardProfiler(3, "test")
        # Tie on the slowest advance: lowest index wins.
        assert prof.record_epoch(0, 1.0, [5, 9, 9], [1, 0, 2]) == 1
        assert prof.epochs[0]["wait_ns"] == [4, 0, 0]
        assert prof.record_epoch(1, 2.0, [10, 2, 3], [0, 0, 0]) == 0
        payload = prof.to_payload()
        assert payload["backend"] == "test"
        assert payload["n_shards"] == 3
        assert len(payload["epochs"]) == 2
        assert payload["shards"] == [
            {"advance_ns": 15, "wait_ns": 4, "relay": 1,
             "critical_epochs": 1},
            {"advance_ns": 11, "wait_ns": 8, "relay": 0,
             "critical_epochs": 1},
            {"advance_ns": 12, "wait_ns": 7, "relay": 2,
             "critical_epochs": 0},
        ]

    def test_profiling_is_digest_neutral(self):
        """Enabling profiling must not perturb any zone's record stream
        — wall times live on the coordinator only."""
        names = _zone_names(2)
        args = {"names": names, "devices": 3}

        def run(profile):
            sharded = ShardedContext(seed=9, zones=names, n_shards=2,
                                     link_latency_s=0.5, profile=profile)
            for name in names:
                _build_obs_zone(sharded.zone(name), name, args)
            sharded.run(until=20.0)
            return sharded

        plain, profiled = run(False), run(True)
        assert profiled.digest() == plain.digest()
        snapshot = profiled.snapshot_observability()
        assert snapshot["profile"]["backend"] == "sequential"
        assert snapshot["profile"]["epochs"]
        assert "profile" not in plain.snapshot_observability()
        # Epoch wall histograms register on the coordinator alongside.
        coord = profiled.metrics.to_payload()
        assert coord["runtime.shard.epoch.advance_seconds"]["count"] > 0
        assert coord["runtime.shard.epoch.wait_seconds"]["count"] > 0


class TestObsCli:
    @pytest.fixture()
    def exported(self, tmp_path):
        names = _zone_names(2)
        sharded = ShardedContext(seed=15, zones=names, n_shards=2,
                                 link_latency_s=0.5, profile=True)
        args = {"names": names, "devices": 3}
        for name in names:
            _build_obs_zone(sharded.zone(name), name, args)
        sharded.run(until=30.0)
        path = tmp_path / "trace.jsonl"
        sharded.export_jsonl(path, observability=True)
        return path

    def test_shards_renders_barrier_profile(self, exported, capsys):
        assert obs_main(["shards", str(exported), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "shard profile: sequential backend, 2 shards" in out
        assert "straggler epochs" in out

    def test_tree_zone_filter(self, exported, capsys):
        assert obs_main(["tree", str(exported),
                         "--zone", "z1"]) == 0
        out = capsys.readouterr().out
        assert "continuum.fault.inject" in out
        assert obs_main(["timeline", str(exported),
                         "--zone", "z0"]) == 0
        assert "z0" in capsys.readouterr().out

    def test_metrics_renders_aggregated_exposition(self, exported,
                                                   capsys):
        assert obs_main(["metrics", str(exported)]) == 0
        out = capsys.readouterr().out
        assert "repro_watch_chaos_reactions" in out
        assert "repro_continuum_sim_events_executed" in out
