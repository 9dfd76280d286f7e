"""Causal spans: the cross-layer tracing primitive.

A :class:`SpanContext` is the (trace_id, span_id, parent_id) triple that
links everything one cause touched — a device fault, the kube evictions
it forces, the MAPE cycle that reacts, the placement that re-solves and
the binds that land — into one tree, across every layer of the
continuum. Span and trace ids are drawn from a named stream of the
shared RNG seed tree, so two same-seed runs produce byte-identical ids
and byte-identical span dumps.

The :class:`Tracer` lives on the :class:`~repro.runtime.RuntimeContext`.
Causality propagates two ways:

- **Synchronously** through the ambient span stack: bus delivery is
  synchronous, so a handler reacting to a publish runs while the
  publisher's span is still current and its own spans nest under it.
- **Asynchronously** through captured contexts: a subscriber that only
  reacts later (the MAPE loop consumes faults on its *next* cycle)
  calls :meth:`Tracer.capture` at delivery time and passes the context
  as ``parent=`` when the reaction finally runs — or re-enters a
  finished span with :meth:`Tracer.resume` so remediation work attaches
  under it.

Every finished span lands in the shared trace as an ``obs.span`` record;
``repro-obs tree`` rebuilds the trees from the exported JSONL.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.trace import TraceRecorder

#: Topic under which finished spans are recorded in the trace.
SPAN_TOPIC = "obs.span"


@dataclass(frozen=True, slots=True)
class SpanContext:
    """Identity of one span: which trace it belongs to and its parent."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None


def _make_envelope(context: SpanContext) -> dict[str, Any]:
    """The dict stamped onto bus publishes made under this span.

    Built once per span and shared by reference across trace records;
    nothing may mutate it after construction.
    """
    return {"trace_id": context.trace_id, "span_id": context.span_id,
            "parent_id": context.parent_id}


class Span:
    """One timed, named unit of work; use as a context manager.

    Entering pushes the span onto the tracer's ambient stack (publishes
    and child spans made inside attach to it); exiting pops it and
    records an ``obs.span`` trace record stamped with sim-time start and
    end. An exception propagating through marks ``status="error"``.
    """

    __slots__ = ("_tracer", "name", "layer", "context", "attrs",
                 "start_s", "end_s", "status", "envelope")

    def __init__(self, tracer: "Tracer", name: str, layer: str,
                 context: SpanContext, attrs: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.layer = layer
        self.context = context
        self.attrs = attrs
        self.start_s: float | None = None
        self.end_s: float | None = None
        self.status = "ok"
        self.envelope = _make_envelope(context)

    def __enter__(self) -> "Span":
        self.start_s = self._tracer._clock()
        self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._stack.pop()
        self.end_s = self._tracer._clock()
        if exc_type is not None:
            self.status = "error"
        self._tracer._record(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, layer={self.layer!r}, "
                f"trace={self.context.trace_id[:8]})")


class _NullSpan:
    """No-op span returned by a disabled tracer."""

    __slots__ = ()
    context: Optional[SpanContext] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _ResumedScope:
    """Stack entry for :meth:`Tracer.resume`: an adopted parent context."""

    __slots__ = ("context", "envelope")

    def __init__(self, context: SpanContext):
        self.context = context
        self.envelope = _make_envelope(context)

    def __enter__(self) -> "_ResumedScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _RelayScope:
    """Ambient-stack entry for the cross-shard relay fast path.

    ``repro.runtime.shard.relay_deliver`` hand-inlines the
    ``resume(parent) + start_span("shard.relay.deliver")`` pair — it
    runs once per relayed message, and the generic context-manager
    construction costs more than the relay itself. One slot-allocated
    scope stands in for both stack entries; handlers reacting inside
    the delivery see exactly the context/envelope the generic pair
    would have exposed.

    The caller hands over the envelope dict (it already holds the ids
    as locals); ``context`` materializes lazily because most deliveries
    never read it — only handlers that :meth:`Tracer.capture` or open
    child spans touch the stack top's context, and a frozen-dataclass
    construction per delivery is measurable on the relay path.
    """

    __slots__ = ("envelope",)

    def __init__(self, envelope: dict[str, Any]):
        self.envelope = envelope

    @property
    def context(self) -> SpanContext:
        env = self.envelope
        return SpanContext(env["trace_id"], env["span_id"],
                           env["parent_id"])


class _ResumeGuard:
    """Context manager that pushes/pops a resumed scope on the stack."""

    __slots__ = ("_tracer", "_scope", "context")

    def __init__(self, tracer: "Tracer", scope: _ResumedScope):
        self._tracer = tracer
        self._scope = scope
        self.context = scope.context

    def __enter__(self) -> _ResumedScope:
        self._tracer._stack.append(self._scope)
        return self._scope

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._stack.remove(self._scope)
        return False


class Tracer:
    """Factory and ambient stack for causal spans.

    Ids come from the injected ``random.Random`` stream (derived from
    the context seed tree), the clock is the canonical simulated time,
    and finished spans are appended to the shared trace recorder.
    """

    def __init__(self, id_rng: random.Random,
                 clock: Callable[[], float],
                 trace: "TraceRecorder", enabled: bool = True):
        self._id_rng = id_rng
        self._clock = clock
        self._trace = trace
        self.enabled = enabled
        #: Ambient span stack. TracedEventBus reads it directly on every
        #: publish, so keep it a plain list of objects with ``.envelope``
        #: and ``.context``.
        self._stack: list[Span | _ResumedScope] = []
        self.spans_recorded = 0

    # -- id allocation -------------------------------------------------------

    def _new_id(self) -> str:
        return f"{self._id_rng.getrandbits(64):016x}"

    # -- span lifecycle ------------------------------------------------------

    def start_span(self, name: str, layer: str = "core",
                   parent: SpanContext | None = None, root: bool = False,
                   **attrs: Any) -> Span | _NullSpan:
        """Create a span; use ``with``. Parent resolution, in order:
        an explicit ``parent=`` context, the current ambient span, or a
        fresh root (new trace id).

        ``root=True`` marks an exogenous event (e.g. a fault firing
        mid-drain): incidental ambient spans from whatever DES process
        happened to be running are ignored — but an explicitly resumed
        scope still wins, because :meth:`resume` is a deliberate causal
        assertion by the caller, not drain-loop coincidence.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is None and self._stack:
            top = self._stack[-1]
            if not root or type(top) is _ResumedScope:
                parent = top.context
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = self._new_id(), None
        context = SpanContext(trace_id, self._new_id(), parent_id)
        return Span(self, name, layer, context, attrs)

    def record_span(self, name: str, layer: str, start_s: float,
                    end_s: float, parent: SpanContext | None = None,
                    **attrs: Any) -> SpanContext | None:
        """Record a completed span with explicit timestamps.

        For work whose extent is only known after the fact — e.g. a DES
        task execution that interleaved with other processes, where an
        ambient ``with`` block would misattribute the interleavings.
        """
        if not self.enabled:
            return None
        if parent is None and self._stack:
            parent = self._stack[-1].context
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = self._new_id(), None
        context = SpanContext(trace_id, self._new_id(), parent_id)
        span = Span(self, name, layer, context, attrs)
        span.start_s = float(start_s)
        span.end_s = float(end_s)
        self._record(span)
        return context

    def capture(self) -> SpanContext | None:
        """Context of the current ambient span (None outside any span).

        Subscribers that react *later* capture at delivery time and pass
        the context as ``parent=`` when the reaction runs.
        """
        return self._stack[-1].context if self._stack else None

    def resume(self, context: SpanContext | None) -> "_ResumeGuard | _NullSpan":
        """Re-enter a (possibly finished) span context; use ``with``.

        New spans and publishes inside the block attach under
        *context* — the continuation mechanism for remediation work that
        happens after the causing span already closed. A ``None``
        context yields a no-op scope.
        """
        if context is None or not self.enabled:
            return NULL_SPAN
        return _ResumeGuard(self, _ResumedScope(context))

    def disable(self) -> None:
        """Stop creating spans; publishes carry no envelope."""
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    # -- export --------------------------------------------------------------

    def _record(self, span: Span) -> None:
        self.spans_recorded += 1
        self._trace.record(span.end_s, SPAN_TOPIC, {
            "name": span.name,
            "layer": span.layer,
            "trace_id": span.context.trace_id,
            "span_id": span.context.span_id,
            "parent_id": span.context.parent_id,
            "start_s": span.start_s,
            "end_s": span.end_s,
            "status": span.status,
            "attrs": span.attrs,
        })
