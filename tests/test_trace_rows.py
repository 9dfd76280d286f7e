"""The row-backed trace recorder against an object-per-record reference.

``TraceRecorder`` stores each record as a row ``(seq, time_s, topic,
payload, span)`` and builds :class:`TraceRecord` objects only on read.
``_ObjectRecorder`` below is the recorder it replaced, which built one
record object per append; every read and export of the two must agree
under any interleaving of appends, shared payloads and span envelopes,
``clear()`` and ring evictions. The module also pins that the rows are
what crosses to the sharded coordinator, and that every record's
``time_s`` is a float even when a caller hands the simulator int times.
"""

from __future__ import annotations

import tempfile
from collections import deque
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum.simulator import Simulator
from repro.core.events import topic_matches
from repro.runtime import RuntimeContext
from repro.runtime.shard import ShardHost
from repro.runtime.trace import (
    TraceRecord,
    TraceRecorder,
    canonical_json,
    jsonify,
)


def _old_to_json(rec: TraceRecord) -> str:
    obj = {"seq": rec.seq, "time_s": rec.time_s, "topic": rec.topic,
           "payload": rec.payload}
    if rec.span is not None:
        obj["span"] = rec.span
    return canonical_json(obj)


class _ObjectRecorder:
    """The object-per-record ring the row-backed recorder replaced."""

    def __init__(self, capacity: int):
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        self._seq = 0

    def record(self, time_s, topic, payload=None, span=None):
        return self.record_normalized(float(time_s), topic,
                                      jsonify(payload), span)

    def record_normalized(self, time_s, topic, payload=None, span=None):
        rec = TraceRecord(self._seq, time_s, topic, payload, span)
        self._seq += 1
        self._records.append(rec)
        return rec

    @property
    def total_recorded(self):
        return self._seq

    @property
    def dropped(self):
        return self._seq - len(self._records)

    def records(self, topic_pattern=None, since_s=None):
        return [rec for rec in self._records
                if (since_s is None or rec.time_s >= since_s)
                and (topic_pattern is None
                     or topic_matches(topic_pattern, rec.topic))]

    def at_time(self, time_s, tolerance=0.0):
        return [r for r in self._records
                if abs(r.time_s - time_s) <= tolerance]

    def to_jsonl(self):
        return "\n".join(_old_to_json(rec) for rec in self._records)

    def export_jsonl(self, path):
        text = self.to_jsonl()
        Path(path).write_text(text + ("\n" if text else ""))
        return len(self._records)

    def clear(self):
        self._records.clear()

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)


#: Raw payloads for ``record`` (normalized there) — a dataclass-free mix
#: of primitives, nested containers, a set and bytes.
_RAW = [None, 7, "x", 2.5, {"k": [1, 2]}, {"a": {"b": None}, 3: "int key"},
        {3, 1, 2}, b"\x00\xff", [1, (2, 3)]]
#: Normalized payloads for ``record_normalized``; the same objects are
#: appended again and again, as the relay shares one copy across zones.
_NORMALIZED = [jsonify(p) for p in _RAW]
_SPANS = [None,
          {"trace_id": "t1", "span_id": "s1", "parent_id": None},
          {"trace_id": "t1", "span_id": "s2", "parent_id": "s1"}]
_TOPICS = ["a.x", "a.y", "b.x", "c"]
_TIMES = [0, 1, 0.0, 0.5, 1.0, 1.5, 2.0]

_OPS = st.lists(st.one_of(
    st.tuples(st.just("record"), st.sampled_from(_TIMES),
              st.sampled_from(_TOPICS), st.integers(0, len(_RAW) - 1),
              st.integers(0, len(_SPANS) - 1)),
    st.tuples(st.just("normalized"),
              st.sampled_from([t for t in _TIMES if isinstance(t, float)]),
              st.sampled_from(_TOPICS),
              st.integers(0, len(_NORMALIZED) - 1),
              st.integers(0, len(_SPANS) - 1)),
    st.just(("clear",))), max_size=40)


def _assert_same_reads(rows: TraceRecorder, ref: _ObjectRecorder) -> None:
    assert list(rows) == list(ref)
    assert [type(r.time_s) for r in rows] == [type(r.time_s) for r in ref]
    for pattern in (None, "a.*", "**.x", "c"):
        for since_s in (None, 0.5, 1.5):
            assert rows.records(pattern, since_s) == \
                ref.records(pattern, since_s)
    for time_s in (0.0, 1.0, 2.0):
        for tolerance in (0.0, 0.5):
            assert rows.at_time(time_s, tolerance) == \
                ref.at_time(time_s, tolerance)
    assert rows.to_jsonl() == ref.to_jsonl()
    assert [r.to_json() for r in rows] == [_old_to_json(r) for r in ref]
    assert len(rows) == len(ref)
    assert rows.dropped == ref.dropped
    assert rows.total_recorded == ref.total_recorded


class TestRowsMatchObjectRecorder:
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, capacity=st.integers(1, 12))
    def test_every_read_agrees(self, ops, capacity):
        rows = TraceRecorder(capacity=capacity)
        ref = _ObjectRecorder(capacity)
        for op in ops:
            if op[0] == "clear":
                rows.clear()
                ref.clear()
                continue
            kind, time_s, topic, payload, span = op
            if kind == "record":
                got = rows.record(time_s, topic, _RAW[payload],
                                  _SPANS[span])
                want = ref.record(time_s, topic, _RAW[payload],
                                  _SPANS[span])
                assert got == want
            else:
                rows.record_normalized(time_s, topic, _NORMALIZED[payload],
                                       _SPANS[span])
                ref.record_normalized(time_s, topic, _NORMALIZED[payload],
                                      _SPANS[span])
            _assert_same_reads(rows, ref)
        # record_normalized stores its payload and span as given: reads
        # hand back the very objects, shared between rows.
        for got, want in zip(rows, ref):
            if any(want.payload is p for p in _NORMALIZED):
                assert got.payload is want.payload
            assert got.span is want.span
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "rows.jsonl"), Path(tmp, "ref.jsonl")
            assert rows.export_jsonl(a) == ref.export_jsonl(b)
            assert a.read_bytes() == b.read_bytes()


class TestStreamShipsRows:
    def test_streaming_host_ships_the_ring_rows_themselves(self):
        host = ShardHost(0, ["zone-00", "zone-01"], [0, 0], [0],
                         link_latency_s=1.0, epoch_s=1.0,
                         trace_capacity=8, streaming=True)
        zone = host.zones[1]
        trace = zone.ctx.trace
        shared = jsonify({"k": 1})
        trace.record_normalized(0.5, "test.row", shared)
        trace.record(0.75, "test.row", {"k": 2})
        held = list(trace._records)
        records, _, _ = host.stream()
        shipped = dict(records)[zone.rank]
        assert len(shipped) == len(held) == 3  # partition record + two
        assert all(got is want for got, want in zip(shipped, held))
        assert shipped[1][3] is shared
        # Shipped rows leave the ring; the sequence keeps counting.
        assert len(trace) == 0 and trace.total_recorded == 3
        assert host.stream()[0] == []


class TestFloatClock:
    def test_int_run_times_stamp_float_records(self):
        """``timeout_run`` takes caller-given times; an int among them
        must not reach the clock the traced bus stamps records with."""
        ctx = RuntimeContext(seed=0)
        seen = []

        def deliver(value):
            seen.append(type(ctx.sim.now))
            ctx.publish("test.tick", value)

        ctx.sim.timeout_run([1, 1, 2], [0, 1, 2], deliver)
        ctx.run()
        assert seen == [float, float, float]
        assert [type(r.time_s) for r in ctx.trace] == [float] * 3
        assert '"time_s":1.0,' in ctx.trace.to_jsonl()

    def test_clock_is_float_on_the_other_paths(self):
        sim = Simulator(start_time=2)
        assert type(sim.now) is float
        sim.timeout(3)
        sim.run()
        assert (sim.now, type(sim.now)) == (5.0, float)
        sim.run(until=7)
        assert (sim.now, type(sim.now)) == (7.0, float)
