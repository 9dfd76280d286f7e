"""Runtime layer: the shared spine every subsystem is injected with.

:class:`RuntimeContext` owns the canonical simulator (virtual clock),
the traced event bus, the RNG seed tree and the structured trace
recorder; :meth:`RuntimeContext.adopt` is the single context-injection
surface. :class:`ShardedContext` runs a zone-sharded continuum, in
process or across worker processes. See DESIGN.md ("Runtime layer").
"""

from repro.runtime.context import RuntimeContext, TracedEventBus
from repro.runtime.parallel import ShardWorkerError
from repro.runtime.shard import (
    SHARD_SCOPED_METRICS,
    ShardedContext,
    ZoneRuntime,
)
from repro.runtime.trace import TraceRecord, TraceRecorder, jsonify

__all__ = [
    "RuntimeContext",
    "SHARD_SCOPED_METRICS",
    "ShardedContext",
    "ShardWorkerError",
    "TracedEventBus",
    "TraceRecord",
    "TraceRecorder",
    "ZoneRuntime",
    "jsonify",
]
