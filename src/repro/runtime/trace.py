"""Structured trace recording for cross-layer observability.

Every publish on a :class:`~repro.runtime.context.RuntimeContext` bus is
stamped with the canonical simulated time and appended here, so one
causally ordered record stream covers device faults, kube control-plane
transitions, MAPE phases and monitor samples alike. The recorder is a
bounded ring buffer (old records fall off the front) and exports JSONL
whose byte content is deterministic for a given seed — the substrate of
the deterministic-replay guarantee.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from enum import Enum
from pathlib import Path
from typing import Any, Iterator

from repro.core.errors import ConfigurationError
from repro.core.events import topic_matches


#: The one renderer of trace rows as JSON text: sorted keys, no spaces.
#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` builds
#: exactly this encoder on every call; one shared instance renders the
#: same bytes without the per-row construction.
canonical_json = json.JSONEncoder(sort_keys=True,
                                  separators=(",", ":")).encode

# Exact types the fast path passes through untouched. Subclasses (bool
# aside — it IS one of these) deliberately miss: an IntEnum or numpy
# scalar must take the slow path so its normalization stays identical
# to the pre-fast-path behavior.
_PRIMITIVES = (str, int, float, bool)


def jsonify(value: Any) -> Any:  # perf: hot
    """Reduce *value* to deterministic JSON-serializable primitives.

    Dataclasses become field dicts, enums their values, sets sorted
    lists. Objects with no stable representation collapse to a type
    marker rather than a ``repr`` (which may embed memory addresses and
    would break byte-identical trace exports).

    The overwhelming majority of trace payloads are None, a primitive,
    or a flat dict of primitives; those shapes are handled inline here
    without recursing.
    """
    if value is None or type(value) in _PRIMITIVES:
        return value
    if type(value) is dict:
        out = {}
        for k, v in value.items():
            if type(k) is not str:
                k = str(k)
            if v is None or type(v) in _PRIMITIVES:
                out[k] = v
            else:
                out[k] = _jsonify_slow(v)
        return out
    return _jsonify_slow(value)


def _jsonify_slow(value: Any) -> Any:
    """Full structural normalization (the original jsonify semantics)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonify(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return jsonify(value.value)
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonify(v) for v in value),
                      key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(value, bytes):
        return value.hex()
    return f"<{type(value).__name__}>"


class TraceRecord:
    """One time-stamped, topic-tagged observation.

    The payload is normalized (:func:`jsonify`) when the record is
    created or earlier, never later — deferring it would let callers
    mutate a recorded dict after the fact and break byte-identical
    replay. "Earlier" is the epoch relay: the bus normalizes a publish
    once, for the origin record, its tap ships that copy, and every
    destination zone's record holds it too (:meth:`TraceRecorder.
    record_normalized`), so a payload may be shared between records
    and must never be mutated. Serialization to JSON text stays lazy:
    :meth:`to_json` renders on demand, so recording costs no string
    formatting unless the trace is exported.

    A plain ``__slots__`` class rather than a (frozen) dataclass: one
    is constructed per bus publish and per finished span, and the
    frozen-dataclass ``object.__setattr__`` init costs ~3x a direct
    attribute store. Treat instances as immutable all the same.
    """

    __slots__ = ("seq", "time_s", "topic", "payload", "span")

    def __init__(self, seq: int, time_s: float, topic: str,
                 payload: Any = None, span: Any = None):
        self.seq = seq
        self.time_s = time_s
        self.topic = topic
        self.payload = payload
        #: Span envelope ({trace_id, span_id, parent_id}) when the
        #: record was made under an active causal span; None otherwise.
        #: Stored as the span's prebuilt dict — already JSON-primitive,
        #: never mutated.
        self.span = span

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.seq == other.seq and self.time_s == other.time_s
                and self.topic == other.topic
                and self.payload == other.payload
                and self.span == other.span)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TraceRecord(seq={self.seq}, time_s={self.time_s!r}, "
                f"topic={self.topic!r}, payload={self.payload!r}, "
                f"span={self.span!r})")

    def to_json(self) -> str:
        obj = {"seq": self.seq, "time_s": self.time_s, "topic": self.topic,
               "payload": self.payload}
        if self.span is not None:
            obj["span"] = self.span
        return canonical_json(obj)


class TraceRecorder:
    """Bounded ring buffer of :class:`TraceRecord` with JSONL export."""

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ConfigurationError("trace capacity must be >= 1")
        self.capacity = capacity
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        self._seq = 0

    def record(self, time_s: float, topic: str,  # perf: hot
               payload: Any = None, span: Any = None) -> TraceRecord:
        """Append one record; payload is normalized via :func:`jsonify`.

        The sequence number grows without bound and never wraps: Python
        integers are arbitrary-precision, so ``seq`` stays strictly
        increasing for the life of the recorder even after the ring has
        evicted billions of records. Consumers may rely on ``seq`` as a
        total order over everything ever recorded; use
        :attr:`dropped` to detect that the *retained* window no
        longer starts at seq 0.
        """
        return self.record_normalized(float(time_s), topic,
                                      jsonify(payload), span)

    def record_normalized(self, time_s: float, topic: str,  # perf: hot
                          payload: Any = None,
                          span: Any = None) -> TraceRecord:
        """Append one record whose *payload* is already normalized
        (:func:`jsonify` output) and whose *time_s* is already a float,
        as given: no copy, so records may share one payload object."""
        rec = TraceRecord(self._seq, time_s, topic, payload, span)
        self._seq += 1
        self._records.append(rec)
        return rec

    @property
    def total_recorded(self) -> int:
        """Records ever appended (including any that fell off the ring)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Ring-buffer evictions so far.

        ``total_recorded - len(recorder)``: how many records fell off
        the front of the bounded ring. When this is non-zero the
        retained trace starts at ``seq == dropped``, not 0.
        """
        return self._seq - len(self._records)

    def records(self, topic_pattern: str | None = None,
                since_s: float | None = None) -> list[TraceRecord]:
        """Retained records, optionally filtered by topic pattern/time.

        *topic_pattern* uses the event-bus wildcard syntax (``*`` one
        segment, ``**`` any remainder).
        """
        out = []
        for rec in self._records:
            if since_s is not None and rec.time_s < since_s:
                continue
            if topic_pattern is not None and \
                    not topic_matches(topic_pattern, rec.topic):
                continue
            out.append(rec)
        return out

    def at_time(self, time_s: float, tolerance: float = 0.0
                ) -> list[TraceRecord]:
        """Records stamped at *time_s* (within *tolerance*)."""
        return [r for r in self._records
                if abs(r.time_s - time_s) <= tolerance]

    def to_jsonl(self) -> str:
        """The retained trace as a JSONL string (deterministic bytes)."""
        return "\n".join(rec.to_json() for rec in self._records)

    def export_jsonl(self, path: str | Path) -> int:
        """Write the retained trace to *path*; returns records written."""
        text = self.to_jsonl()
        Path(path).write_text(text + ("\n" if text else ""))
        return len(self._records)

    def clear(self) -> None:
        """Drop retained records (the sequence counter keeps advancing)."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)
