"""The shared runtime spine of the continuum: one clock, one bus, one RNG tree.

The paper's architecture is a *single* cognitive computing continuum in
which monitoring, MIRTO orchestration and the low-level (Kubernetes-like)
orchestrator observe and act on the same evolving system state. A
:class:`RuntimeContext` is that shared state's plumbing: it owns the
canonical :class:`~repro.continuum.simulator.Simulator` (virtual clock),
the :class:`~repro.core.events.EventBus` (every publish is stamped with
simulated time and recorded in the trace), the
:class:`~repro.core.rng.RngRegistry` seed tree, and the structured
:class:`~repro.runtime.trace.TraceRecorder`.

All subsystems are *injected* with a context instead of self-wiring;
``continuum-lint`` (rule ``runtime-construction``) forbids direct
``Simulator()`` / ``EventBus()`` construction anywhere else. Two runs
built from contexts with the same seed produce byte-identical trace
exports — deterministic replay across every layer at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.events import EventBus, Handler, Subscription
from repro.core.rng import RngRegistry
from repro.obs.metrics import METRICS_TOPIC, MetricsRegistry
from repro.obs.profiler import PROFILE_TOPIC
from repro.obs.spans import Tracer
from repro.runtime.trace import TraceRecorder, jsonify

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.continuum.simulator import Simulator


def _simulator_cls():
    # Imported lazily: repro.continuum imports repro.runtime at module
    # load, so a top-level import here would be circular.
    from repro.continuum.simulator import Simulator
    return Simulator


class TracedEventBus(EventBus):
    """Event bus that stamps every publish with the canonical sim time.

    Each :meth:`publish` appends a trace record *before* delivery, so
    even topics nobody subscribes to are visible on the shared timeline.
    When a causal span is active (:class:`~repro.obs.spans.Tracer`),
    its envelope is stamped onto the record, and every publish bumps
    the per-topic ``runtime.bus.publishes`` counter.
    """

    def __init__(self, sim: "Simulator", trace: TraceRecorder,
                 tracer: Tracer, metrics: MetricsRegistry):
        super().__init__()
        self._sim = sim
        self._trace = trace
        # Bound once at construction so the hot path below pays plain
        # attribute loads, not registry lookups.
        self._span_stack = tracer._stack
        self._publish_counter = metrics.counter(
            "runtime.bus.publishes", "bus publishes by topic",
            label_key="topic")
        #: Cross-zone relay hook, ``relay(topic, payload, recorded)``:
        #: None unless the sharded runtime installs one. :meth:`publish`
        #: calls it once its handlers have run.
        self.relay: Callable[[str, Any, Any], None] | None = None

    def publish(self, topic: str, payload: Any = None) -> int:  # perf: hot
        """Record, count and deliver *payload*, then hand it to the
        relay hook with the normalized copy
        (:func:`~repro.runtime.trace.jsonify`) its trace record holds."""
        recorded = jsonify(payload)
        delivered = self.publish_relayed(topic, payload, recorded)
        relay = self.relay
        if relay is not None:
            relay(topic, payload, recorded)
        return delivered

    def publish_relayed(self, topic: str,  # perf: hot
                        payload: Any = None, recorded: Any = None) -> int:
        """Publish a message the epoch relay carried in from another
        zone: recorded, counted and delivered exactly like
        :meth:`publish`, but never handed to the relay hook, so it is
        not forwarded again. Publishes its handlers make are ordinary.

        *recorded* is the trace's copy of *payload*, normalized once in
        the origin zone and shared by every destination zone's record;
        it is recorded as given. Handlers still receive *payload*.
        Without it, *payload* is normalized here. The stamp is the
        simulator's clock as it stands, a float on every path."""
        stack = self._span_stack
        self._trace.record_normalized(
            self._sim._now, topic,
            jsonify(payload) if recorded is None else recorded,
            stack[-1].envelope if stack else None)
        counter = self._publish_counter
        counter.value += 1
        labels = counter.labels
        labels[topic] = labels.get(topic, 0) + 1
        return EventBus.publish(self, topic, payload)


class RuntimeContext:
    """Owns the simulator, event bus, RNG seed tree and trace recorder."""

    def __init__(self, seed: int = 0, start_time: float = 0.0,
                 trace_capacity: int = 65536,
                 sim: "Simulator | None" = None):
        self.seed = int(seed)
        self.sim: "Simulator" = (sim if sim is not None
                                 else _simulator_cls()(start_time))
        self.rng = RngRegistry(self.seed)
        self.trace = TraceRecorder(capacity=trace_capacity)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.rng.python("obs.tracer"),
                             lambda: self.sim.now, self.trace)
        self.bus: EventBus = TracedEventBus(
            self.sim, self.trace, self.tracer, self.metrics)
        self._register_core_metrics()

    @classmethod
    def adopt(cls, obj: "RuntimeContext | Simulator | None" = None, *,
              seed: int = 0) -> "RuntimeContext":
        """THE context-injection surface: normalize *obj* to a context.

        Every public constructor that takes ``ctx=`` routes it through
        here. An existing :class:`RuntimeContext` is returned as-is (no
        copy — subsystems built from the same context share one clock,
        bus, RNG tree and trace); a bare
        :class:`~repro.continuum.simulator.Simulator` is wrapped in a
        fresh context on that clock (legacy injection style); ``None``
        yields a fresh context seeded with *seed*.
        """
        if isinstance(obj, cls):
            return obj
        if obj is None:
            return cls(seed=seed)
        if isinstance(obj, _simulator_cls()):
            return cls(seed=seed, sim=obj)
        raise TypeError(
            f"expected RuntimeContext, Simulator or None, got "
            f"{type(obj).__name__}")

    def _register_core_metrics(self) -> None:
        """Pull-style gauges over the spine's own counters."""
        self.metrics.gauge_callback(
            "continuum.sim.events_executed",
            lambda: self.sim.processed_events,
            "DES events executed by the canonical simulator")
        self.metrics.gauge_callback(
            "runtime.trace.records", lambda: len(self.trace),
            "trace records currently retained")
        self.metrics.gauge_callback(
            "runtime.trace.dropped", lambda: self.trace.dropped,
            "trace records evicted by the ring bound")
        self.metrics.gauge_callback(
            "runtime.tracer.spans", lambda: self.tracer.spans_recorded,
            "causal spans recorded")

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Canonical simulated time in seconds."""
        return self.sim.now

    def run(self, until: Any = None) -> Any:
        """Advance the canonical clock (delegates to the simulator)."""
        return self.sim.run(until)

    # -- bus ---------------------------------------------------------------

    def publish(self, topic: str, payload: Any = None) -> int:
        """Publish on the shared bus (traced, time-stamped)."""
        return self.bus.publish(topic, payload)

    def subscribe(self, pattern: str, handler: Handler) -> Subscription:
        """Subscribe on the shared bus."""
        return self.bus.subscribe(pattern, handler)

    # -- observability -----------------------------------------------------

    def snapshot_observability(self) -> dict[str, Any]:
        """Embed metric (and profiler) snapshots in the trace.

        Appends an ``obs.metrics`` record with the full registry payload
        and, when a :class:`~repro.obs.profiler.DesProfiler` is
        installed on the simulator, an ``obs.profile`` record — so one
        exported JSONL carries spans, events, metrics and profile, and
        ``repro-obs`` needs nothing but the file. Returns the snapshot
        (same ``{"metrics": ..., "profile": ...}`` shape the sharded
        backends' ``snapshot_observability`` produces).
        """
        snapshot: dict[str, Any] = {"metrics": self.metrics.to_payload()}
        self.trace.record(self.now, METRICS_TOPIC, snapshot["metrics"])
        profiler = getattr(self.sim, "_profiler", None)
        if profiler is not None:
            snapshot["profile"] = profiler.to_payload()
            self.trace.record(self.now, PROFILE_TOPIC,
                              snapshot["profile"])
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RuntimeContext(seed={self.seed}, now={self.now}, "
                f"trace={len(self.trace)} records)")

