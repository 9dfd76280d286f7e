"""Structured trace recording for cross-layer observability.

Every publish on a :class:`~repro.runtime.context.RuntimeContext` bus is
stamped with the canonical simulated time and appended here, so one
causally ordered record stream covers device faults, kube control-plane
transitions, MAPE phases and monitor samples alike. The recorder is a
bounded ring buffer (old records fall off the front) and exports JSONL
whose byte content is deterministic for a given seed — the substrate of
the deterministic-replay guarantee.

A record is stored as a *row*, the plain tuple ``(seq, time_s, topic,
payload, span)``: the ring holds rows, a worker process ships them to
the coordinator as they are, and the sharded merge sorts and renders
them (:func:`row_json`). :class:`TraceRecord` is the read type, built
from a row only where someone reads records.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from enum import Enum
from itertools import starmap
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


def row_json(row: tuple, seq: int | None = None,
             zone: str | None = None) -> str:
    """The one JSON shape of a trace row ``(seq, time_s, topic, payload,
    span)``: ``span`` only when set. The sharded merge passes its global
    *seq* in place of the row's zone-local one, and the row's *zone*."""
    obj = {"seq": row[0] if seq is None else seq, "time_s": row[1],
           "topic": row[2], "payload": row[3]}
    if zone is not None:
        obj["zone"] = zone
    if row[4] is not None:
        obj["span"] = row[4]
    return canonical_json(obj)


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
    """One time-stamped, topic-tagged observation, as read back.

    The recorder stores rows (see the module docstring); a record is
    built from one by :meth:`TraceRecorder.__iter__`,
    :meth:`~TraceRecorder.records`, :meth:`~TraceRecorder.at_time` and
    :meth:`~repro.runtime.shard.ShardedContext.merged_records`. Two
    reads of one row give equal records, not the same object.

    The payload is normalized (:func:`jsonify`) when the row is
    recorded or earlier, never later — deferring it would let callers
    mutate a recorded dict after the fact and break byte-identical
    replay. "Earlier" is the epoch relay: the bus normalizes a publish
    once, for the origin row, its relay ships that copy, and every
    destination zone's row holds it too (:meth:`TraceRecorder.
    record_normalized`), so a payload may be shared between rows and
    must never be mutated. Serialization to JSON text stays lazy:
    :meth:`to_json` renders on demand, so recording costs no string
    formatting unless the trace is exported.

    A plain ``__slots__`` class rather than a (frozen) dataclass: a
    read of a whole ring builds one per row (``merged_records()`` on a
    100k-device run builds ~128k), and the frozen-dataclass
    ``object.__setattr__`` init costs ~3x a direct attribute store.
    Treat instances as immutable all the same.
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
        return row_json((self.seq, self.time_s, self.topic, self.payload,
                         self.span))


class TraceRecorder:
    """Bounded ring buffer of trace rows with JSONL export; reads
    return :class:`TraceRecord` objects."""

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ConfigurationError("trace capacity must be >= 1")
        self.capacity = capacity
        #: Rows ``(seq, time_s, topic, payload, span)``, oldest first.
        self._records: deque[tuple] = deque(maxlen=capacity)
        self._seq = 0

    def record(self, time_s: float, topic: str,
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
        self.record_normalized(float(time_s), topic, jsonify(payload), span)
        return TraceRecord(*self._records[-1])

    def record_normalized(self, time_s: float, topic: str,  # perf: hot
                          payload: Any = None, span: Any = None) -> None:
        """Append one row whose *payload* is already normalized
        (:func:`jsonify` output) and whose *time_s* is already a float,
        as given: no copy, so rows may share one payload object."""
        self._records.append((self._seq, time_s, topic, payload, span))
        self._seq += 1

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
        for row in self._records:
            if since_s is not None and row[1] < since_s:
                continue
            if topic_pattern is not None and \
                    not topic_matches(topic_pattern, row[2]):
                continue
            out.append(TraceRecord(*row))
        return out

    def at_time(self, time_s: float, tolerance: float = 0.0
                ) -> list[TraceRecord]:
        """Records stamped at *time_s* (within *tolerance*)."""
        return [TraceRecord(*row) for row in self._records
                if abs(row[1] - time_s) <= tolerance]

    def to_jsonl(self) -> str:
        """The retained trace as a JSONL string (deterministic bytes)."""
        return "\n".join(map(row_json, self._records))

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
        return starmap(TraceRecord, self._records)
