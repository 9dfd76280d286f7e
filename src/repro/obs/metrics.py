"""Unified metrics registry: counters, gauges, fixed-bucket histograms.

Every subsystem registers its instruments against the one
:class:`MetricsRegistry` on the :class:`~repro.runtime.RuntimeContext`.
Names follow the ``layer.subsystem.name`` convention (at least three
dotted segments, e.g. ``runtime.bus.publishes``); the registry rejects
anything flatter so grep-ability never erodes.

Two export formats, both deterministic:

- :meth:`MetricsRegistry.to_payload` — a plain, sorted dict suitable
  for ``trace.record`` / JSON (same seed → byte-identical dump).
- :func:`render_exposition` — Prometheus-style text (``repro_`` prefix,
  dots mangled to underscores), shared with the ``repro-obs metrics``
  subcommand so the CLI renders exactly what a scrape would.

Hot paths (bus publish) bump ``Counter.value`` /
``Counter.labels`` directly rather than going through registry lookups;
that is the supported idiom, not a back door.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterable, Optional

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){2,}$")

#: Topic under which a metrics snapshot is recorded in the trace.
METRICS_TOPIC = "obs.metrics"

#: Default histogram buckets (seconds): sub-ms to minutes, fixed so two
#: same-seed runs bucket identically regardless of data.
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must be layer.subsystem.name "
            "(>=3 lowercase dotted segments)")
    return name


class Counter:
    """Monotonic count, optionally split by one label dimension."""

    __slots__ = ("name", "help", "label_key", "value", "labels")

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 label_key: Optional[str] = None):
        self.name = _check_name(name)
        self.help = help
        self.label_key = label_key
        #: Unlabeled total; hot paths may do ``counter.value += 1``.
        self.value: float = 0
        #: Per-label counts when ``label_key`` is set; hot paths may do
        #: ``c.labels[k] = c.labels.get(k, 0) + 1``.
        self.labels: dict[str, float] = {}

    def inc(self, amount: float = 1, label: Optional[str] = None) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount
        if label is not None:
            self.labels[label] = self.labels.get(label, 0) + amount

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind, "value": self.value}
        if self.label_key is not None:
            payload["label_key"] = self.label_key
            payload["labels"] = dict(sorted(self.labels.items()))
        return payload


class Gauge:
    """Point-in-time value; set directly or backed by a pull callback."""

    __slots__ = ("name", "help", "_value", "_callback")

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 callback: Optional[Callable[[], float]] = None):
        self.name = _check_name(name)
        self.help = help
        self._value: float = 0
        self._callback = callback

    def set(self, value: float) -> None:
        if self._callback is not None:
            raise RuntimeError(f"gauge {self.name} is callback-backed")
        self._value = value

    @property
    def value(self) -> float:
        if self._callback is not None:
            return self._callback()
        return self._value

    def to_payload(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram (cumulative, Prometheus-style).

    Buckets are frozen at registration, so the distribution of a
    deterministic run exports byte-identically; there is no adaptive
    re-bucketing.
    """

    __slots__ = ("name", "help", "buckets", "counts", "count", "sum")

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = _check_name(name)
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        #: Per-bucket counts, non-cumulative; one extra slot for +Inf.
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Get-or-create home for every instrument in one runtime context."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {kind}")
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                label_key: Optional[str] = None) -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help, label_key), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, help), "gauge")

    def gauge_callback(self, name: str, callback: Callable[[], float],
                       help: str = "") -> Gauge:
        """Register a pull-style gauge read at export time.

        Re-registering the same name rebinds the callback — forks of a
        context re-wire their gauges to the live objects.
        """
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != "gauge":
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}")
            metric._callback = callback
            return metric
        metric = Gauge(name, help, callback=callback)
        self._metrics[name] = metric
        return metric

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets), "histogram")

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def to_payload(self) -> dict[str, Any]:
        """Deterministic JSON-ready dump: names sorted, labels sorted."""
        return {name: self._metrics[name].to_payload()
                for name in sorted(self._metrics)}

    def merge_payload(self, payload: dict[str, Any], *,
                      exclude: frozenset[str] = frozenset()) -> None:
        """Fold one :meth:`to_payload` snapshot into this registry.

        Counters and gauges add (labels key-wise), histograms add
        count-for-count — which requires identical bucket bounds, the
        fixed-bucket design's whole point. Addition is commutative, but
        the sharded coordinators still fold zone payloads in rank order
        so even label/bucket *registration* order is pinned. ``exclude``
        drops metric names whose values are execution details (e.g. a
        shared-heap event count) rather than zone-deterministic facts.
        """
        for name in sorted(payload):
            if name in exclude:
                continue
            data = payload[name]
            kind = data.get("kind")
            if kind == "counter":
                counter = self.counter(name,
                                       label_key=data.get("label_key"))
                counter.value += data["value"]
                labels = counter.labels
                for label, amount in data.get("labels", {}).items():
                    labels[label] = labels.get(label, 0) + amount
            elif kind == "gauge":
                gauge = self.gauge(name)
                gauge.set(gauge.value + data["value"])
            elif kind == "histogram":
                hist = self.histogram(name, buckets=data["buckets"])
                if list(hist.buckets) != list(data["buckets"]):
                    raise TypeError(
                        f"histogram {name!r} bucket mismatch: "
                        f"{list(hist.buckets)} vs {data['buckets']}")
                for i, count in enumerate(data["counts"]):
                    hist.counts[i] += count
                hist.count += data["count"]
                hist.sum += data["sum"]
            else:
                raise TypeError(
                    f"metric {name!r}: cannot merge kind {kind!r}")

    def render(self) -> str:
        return render_exposition(self.to_payload())


def payload_delta(previous: dict[str, Any],
                  current: dict[str, Any]) -> dict[str, Any]:
    """Metrics that changed (or appeared) between two payload snapshots.

    Per-metric granularity: an entry is shipped whole when any of its
    value/labels/buckets changed. Shard workers piggyback these deltas
    on the per-epoch flush ack; applying a delta is plain ``update`` on
    the coordinator's per-zone replica payload.
    """
    return {name: data for name, data in current.items()
            if previous.get(name) != data}


def _mangle(name: str) -> str:
    return "repro_" + name.replace(".", "_")


def render_exposition(payload: dict[str, Any]) -> str:
    """Prometheus-style text exposition of a metrics payload.

    Takes the :meth:`MetricsRegistry.to_payload` shape (not the live
    registry) so the CLI can render a payload recovered from a trace
    JSONL with the exact same code path.
    """
    lines: list[str] = []
    for name in sorted(payload):
        data = payload[name]
        mangled = _mangle(name)
        kind = data.get("kind", "untyped")
        lines.append(f"# TYPE {mangled} {kind}")
        if kind == "histogram":
            cumulative = 0
            bounds = list(data["buckets"]) + ["+Inf"]
            for bound, count in zip(bounds, data["counts"]):
                cumulative += count
                lines.append(
                    f'{mangled}_bucket{{le="{bound}"}} {cumulative}')
            lines.append(f"{mangled}_sum {data['sum']}")
            lines.append(f"{mangled}_count {data['count']}")
        else:
            lines.append(f"{mangled} {data['value']}")
            if kind == "counter" and data.get("labels"):
                key = data.get("label_key", "label")
                for label, count in data["labels"].items():
                    lines.append(
                        f'{mangled}{{{key}="{label}"}} {count}')
    return "\n".join(lines) + ("\n" if lines else "")
