"""repro.obs — cross-layer observability: spans, metrics, profiler.

Three instruments over the PR-2 runtime spine:

- :mod:`repro.obs.spans` — deterministic causal tracing; one fault,
  one span tree across continuum/mirto/kube/monitoring.
- :mod:`repro.obs.metrics` — the unified ``layer.subsystem.name``
  metrics registry with Prometheus-style exposition.
- :mod:`repro.obs.profiler` — opt-in DES drain-loop profiler
  attributing wall/sim time per owning process, plus the sharded-run
  :class:`~repro.obs.profiler.ShardProfiler` (per-epoch advance/
  barrier-wait/straggler accounting).

``python -m repro.obs`` (console script ``repro-obs``) inspects
exported trace JSONL files: ``tree``, ``timeline``, ``metrics``,
``profile``, ``shards``.
"""

from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    METRICS_TOPIC,
    MetricsRegistry,
    payload_delta,
    render_exposition,
)
from repro.obs.profiler import (
    PROFILE_TOPIC,
    SHARD_PROFILE_TOPIC,
    DesProfiler,
    ShardProfiler,
)
from repro.obs.spans import (
    NULL_SPAN,
    SPAN_TOPIC,
    Span,
    SpanContext,
    Tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DesProfiler",
    "Gauge",
    "Histogram",
    "METRICS_TOPIC",
    "MetricsRegistry",
    "NULL_SPAN",
    "PROFILE_TOPIC",
    "SHARD_PROFILE_TOPIC",
    "SPAN_TOPIC",
    "ShardProfiler",
    "Span",
    "SpanContext",
    "Tracer",
    "payload_delta",
    "render_exposition",
]
