"""Tests for the repro.runtime layer: context, traced bus, recorder."""

import enum
from dataclasses import dataclass

import pytest

from repro.continuum.simulator import Simulator
from repro.core.errors import ConfigurationError
from repro.runtime import RuntimeContext, TraceRecorder, jsonify


class TestRuntimeContext:
    def test_now_mirrors_simulator_clock(self):
        ctx = RuntimeContext()
        assert ctx.now == 0.0
        ctx.run(until=3.5)
        assert ctx.now == 3.5 == ctx.sim.now

    def test_start_time(self):
        ctx = RuntimeContext(start_time=10.0)
        assert ctx.now == 10.0

    def test_publish_delivers_and_traces(self):
        ctx = RuntimeContext()
        seen = []
        ctx.subscribe("a.*", lambda t, p: seen.append((t, p)))
        delivered = ctx.publish("a.b", {"x": 1})
        assert delivered == 1
        assert seen == [("a.b", {"x": 1})]
        assert [r.topic for r in ctx.trace] == ["a.b"]

    def test_zero_subscriber_publish_still_traced(self):
        ctx = RuntimeContext()
        assert ctx.publish("nobody.listens") == 0
        assert ctx.bus.total_delivered == 0
        assert len(ctx.trace) == 1

    def test_publish_relayed_skips_the_relay_hook(self):
        """The relayed-delivery path: traced, counted and delivered like
        publish but never handed to the relay hook, while a handler's
        own publish reaches the hook after its handlers ran, with the
        copy its trace record holds."""
        ctx = RuntimeContext()
        seen = []
        ctx.bus.relay = lambda topic, payload, recorded: seen.append(
            ("relay", topic, recorded))

        def answer(topic, payload):
            seen.append(("answer", topic))
            ctx.publish("a.reply", {"to": topic})

        ctx.subscribe("a.b", answer)
        ctx.subscribe("a.reply", lambda t, p: seen.append(("reply", t)))
        assert ctx.bus.publish_relayed("a.b", {"x": 1}) == 1
        (reply,) = ctx.trace.records("a.reply")
        assert seen == [("answer", "a.b"), ("reply", "a.reply"),
                        ("relay", "a.reply", {"to": "a.b"})]
        assert seen[-1][2] is reply.payload
        assert [r.topic for r in ctx.trace] == ["a.b", "a.reply"]
        publishes = ctx.metrics.to_payload()["runtime.bus.publishes"]
        assert publishes["labels"] == {"a.b": 1, "a.reply": 1}
        # A later subscription invalidates the dispatch cache.
        ctx.subscribe("a.b", lambda t, p: seen.append(("late", t)))
        seen.clear()
        assert ctx.bus.publish_relayed("a.b") == 2
        assert [entry[:2] for entry in seen] == [
            ("answer", "a.b"), ("reply", "a.reply"), ("relay", "a.reply"),
            ("late", "a.b")]

    def test_trace_stamped_with_sim_time(self):
        ctx = RuntimeContext()

        def proc(ctx):
            yield ctx.sim.timeout(2.0)
            ctx.publish("late.event")

        ctx.sim.process(proc(ctx))
        ctx.run()
        (rec,) = ctx.trace.records("late.event")
        assert rec.time_s == 2.0

    def test_named_rng_streams_deterministic(self):
        a = RuntimeContext(seed=7).rng.python("stream")
        b = RuntimeContext(seed=7).rng.python("stream")
        c = RuntimeContext(seed=8).rng.python("stream")
        draws = [a.random() for _ in range(5)]
        assert draws == [b.random() for _ in range(5)]
        assert draws != [c.random() for _ in range(5)]


class TestAdopt:
    """RuntimeContext.adopt is THE context-injection surface."""

    def test_context_passthrough(self):
        ctx = RuntimeContext()
        assert RuntimeContext.adopt(ctx) is ctx

    def test_none_creates_fresh(self):
        ctx = RuntimeContext.adopt(None, seed=3)
        assert isinstance(ctx, RuntimeContext)
        assert ctx.seed == 3

    def test_default_argument(self):
        assert isinstance(RuntimeContext.adopt(), RuntimeContext)

    def test_simulator_wrapped(self):
        sim = Simulator(start_time=4.0)
        ctx = RuntimeContext.adopt(sim)
        assert ctx.sim is sim
        assert ctx.now == 4.0

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            RuntimeContext.adopt("not a simulator")

    def test_no_deprecation_warning(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            RuntimeContext.adopt(None)


class _Color(enum.Enum):
    RED = "red"


@dataclass
class _Point:
    x: int
    tags: frozenset


class TestJsonify:
    def test_primitives_pass_through(self):
        assert jsonify(None) is None
        assert jsonify(3) == 3
        assert jsonify("s") == "s"

    def test_dataclass_and_enum_and_set(self):
        out = jsonify(_Point(x=1, tags=frozenset({"b", "a"})))
        assert out == {"x": 1, "tags": ["a", "b"]}
        assert jsonify(_Color.RED) == "red"

    def test_bytes_hex(self):
        assert jsonify(b"\x01\xff") == "01ff"

    def test_opaque_object_collapses_to_type_marker(self):
        class Weird:
            pass

        assert jsonify(Weird()) == "<Weird>"
        # No memory address leaks into the trace.
        assert jsonify(Weird()) == jsonify(Weird())


class TestTraceRecorder:
    def test_ring_buffer_drops_oldest(self):
        trace = TraceRecorder(capacity=3)
        for i in range(5):
            trace.record(float(i), f"t.{i}")
        assert len(trace) == 3
        assert trace.total_recorded == 5
        assert trace.dropped == 2
        assert [r.topic for r in trace] == ["t.2", "t.3", "t.4"]

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            TraceRecorder(capacity=0)

    def test_topic_and_time_filters(self):
        trace = TraceRecorder()
        trace.record(0.0, "a.x")
        trace.record(1.0, "a.y")
        trace.record(2.0, "b.x")
        assert [r.topic for r in trace.records("a.*")] == ["a.x", "a.y"]
        assert [r.topic for r in trace.records(since_s=1.0)] == \
            ["a.y", "b.x"]
        assert [r.topic for r in trace.records("**.x", since_s=1.0)] == \
            ["b.x"]

    def test_at_time(self):
        trace = TraceRecorder()
        trace.record(1.0, "a")
        trace.record(1.0, "b")
        trace.record(2.0, "c")
        assert [r.topic for r in trace.at_time(1.0)] == ["a", "b"]

    def test_export_jsonl(self, tmp_path):
        trace = TraceRecorder()
        trace.record(0.5, "t", {"k": [1, 2]})
        path = tmp_path / "trace.jsonl"
        assert trace.export_jsonl(path) == 1
        line = path.read_text().strip()
        assert line == ('{"payload":{"k":[1,2]},"seq":0,'
                        '"time_s":0.5,"topic":"t"}')

    def test_clear_keeps_sequence(self):
        trace = TraceRecorder()
        trace.record(0.0, "a")
        trace.clear()
        assert len(trace) == 0
        assert trace.record(1.0, "b").seq == 1


class TestDeterministicReplay:
    @staticmethod
    def _run_once(seed):
        ctx = RuntimeContext(seed=seed)
        rng = ctx.rng.python("workload")

        def proc(ctx, rng):
            for i in range(5):
                yield ctx.sim.timeout(rng.random())
                ctx.publish("tick", {"i": i, "draw": rng.random()})

        ctx.sim.process(proc(ctx, rng))
        ctx.run()
        return ctx.trace.to_jsonl()

    def test_same_seed_byte_identical(self):
        assert self._run_once(42) == self._run_once(42)

    def test_different_seed_diverges(self):
        assert self._run_once(42) != self._run_once(43)
