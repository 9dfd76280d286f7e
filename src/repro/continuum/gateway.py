"""The smart gateway as a data-exchange hub (paper Sec. III).

"The smart gateway acts as a hub for data exchange among a diversity of
actors at the edge (e.g., sensors, actuators, HW accelerators, etc.) and
the cloud, and supports light local processing; ... it is customizable
with ad-hoc user-defined interfaces, and natively supports several
protocols (e.g. HTTP, MQTT, etc.)."

:class:`GatewayHub` implements that role on top of the network
substrate: endpoints register with their supported protocols, the hub
bridges between them (re-framing messages from the sender's protocol to
the receiver's), applies optional *local processing* functions to
payloads in flight (filtering/aggregation — the "light local
processing"), and store-and-forwards traffic for unreachable uplinks,
draining the buffer when connectivity returns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.errors import CapacityError, DeliveryError, NotFoundError, \
    ValidationError
from repro.continuum.simulator import Simulator
from repro.net.protocols import Message, PROTOCOLS, negotiate
from repro.net.topology import Network
from repro.runtime import RuntimeContext


@dataclass
class Endpoint:
    """A registered actor: sensor, actuator, accelerator or uplink."""

    name: str
    protocols: list[str]
    reachable: bool = True


@dataclass
class DeliveryRecord:
    """Accounting for one hub-mediated delivery."""

    src: str
    dst: str
    topic: str
    ingress_protocol: str
    egress_protocol: str
    payload_bytes: int
    wire_bytes: int
    buffered: bool
    delivered_at_s: float


Processor = Callable[[dict[str, Any]], dict[str, Any] | None]


class GatewayHub:
    """Protocol-bridging, store-and-forward message hub."""

    def __init__(self, network: Network, name: str,
                 buffer_limit: int = 256, *,
                 ctx: RuntimeContext | Simulator | None = None):
        if name not in network.graph:
            raise NotFoundError(f"gateway host {name!r} not in network")
        self.ctx = RuntimeContext.adopt(ctx)
        self.sim = self.ctx.sim
        self.network = network
        self.name = name
        self.buffer_limit = buffer_limit
        self.endpoints: dict[str, Endpoint] = {}
        self.processors: dict[str, list[Processor]] = {}
        self.deliveries: list[DeliveryRecord] = []
        self.dropped = 0
        self._buffers: dict[str, deque[Message]] = {}
        #: Chaos brownout: probability a delivery is dropped in flight.
        #: Set via :meth:`set_drop_rate` (the ChaosController ramps it);
        #: draws come from the hub's own seed-tree stream so campaigns
        #: replay byte-identically.
        self.drop_rate = 0.0
        self._chaos_rng = self.ctx.rng.python(f"chaos.gateway.{name}")
        metrics = self.ctx.metrics
        self._deliveries_ctr = metrics.counter(
            "continuum.gateway.deliveries", "hub-mediated deliveries",
            label_key="gateway")
        self._dropped_ctr = metrics.counter(
            "continuum.gateway.dropped",
            "messages dropped at a full store-and-forward buffer",
            label_key="gateway")

    # -- registration --------------------------------------------------------

    def register(self, name: str, protocols: list[str]) -> Endpoint:
        """Register an endpoint and its protocol capabilities."""
        unknown = [p for p in protocols if p not in PROTOCOLS]
        if unknown:
            raise ValidationError(f"unknown protocols: {unknown}")
        if not protocols:
            raise ValidationError("endpoint needs at least one protocol")
        if name not in self.network.graph:
            raise NotFoundError(f"endpoint host {name!r} not in network")
        endpoint = Endpoint(name=name, protocols=list(protocols))
        self.endpoints[name] = endpoint
        return endpoint

    def set_reachable(self, name: str, reachable: bool) -> None:
        """Mark an endpoint (typically the uplink) up or down."""
        self._endpoint(name).reachable = reachable

    def set_drop_rate(self, rate: float) -> None:
        """Set the brownout drop probability for in-flight deliveries.

        Dropped deliveries raise :class:`DeliveryError` in the
        exchanging process so resilience policies can retry them.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValidationError(
                f"drop rate must be in [0, 1], got {rate}")
        self.drop_rate = rate

    def _endpoint(self, name: str) -> Endpoint:
        if name not in self.endpoints:
            raise NotFoundError(f"unregistered endpoint {name!r}")
        return self.endpoints[name]

    # -- local processing ("light local processing") ----------------------------

    def add_processor(self, topic: str, processor: Processor) -> None:
        """Apply *processor* to payloads on *topic*.

        Returning ``None`` filters the message out entirely (e.g. a
        dead-band filter); returning a dict replaces the payload (e.g.
        aggregation or unit conversion).
        """
        self.processors.setdefault(topic, []).append(processor)

    def _process(self, topic: str,
                 payload: dict[str, Any]) -> dict[str, Any] | None:
        for processor in self.processors.get(topic, []):
            payload = processor(payload)
            if payload is None:
                return None
        return payload

    # -- message exchange -----------------------------------------------------------

    def exchange(self, src: str, dst: str, topic: str,
                 payload: dict[str, Any]):
        """DES process: route one message src -> hub -> dst.

        The sender transmits in its own protocol to the hub; the hub
        re-frames in a protocol the receiver supports. If the receiver
        is unreachable, the message is buffered (or dropped when the
        buffer is full) and the process returns None.
        """
        sender = self._endpoint(src)
        receiver = self._endpoint(dst)
        ingress = PROTOCOLS[sender.protocols[0]]
        message = Message(src=src, dst=self.name, topic=topic,
                          payload=payload)
        # Leg 1: sender -> hub, in the sender's protocol.
        size = len(message.encode())
        yield self.sim.process(self.network.transfer(
            src, self.name, size,
            wire_overhead=ingress.wire_bytes(message) - size))
        processed = self._process(topic, payload)
        if processed is None:
            return None  # filtered by local processing
        egress = negotiate(receiver.protocols, receiver.protocols)
        out = Message(src=self.name, dst=dst, topic=topic,
                      payload=processed)
        if not receiver.reachable:
            buffer = self._buffers.setdefault(dst, deque())
            if len(buffer) >= self.buffer_limit:
                self.dropped += 1
                self._dropped_ctr.inc(label=self.name)
                with self.ctx.tracer.start_span(
                        "continuum.gateway.drop", layer="continuum",
                        gateway=self.name, dst=dst, topic=topic):
                    self.ctx.publish(
                        f"continuum.gateway.{self.name}.dropped",
                        {"dst": dst, "topic": topic})
                return None
            buffer.append(out)
            self.deliveries.append(DeliveryRecord(
                src=src, dst=dst, topic=topic,
                ingress_protocol=ingress.name,
                egress_protocol=egress.name,
                payload_bytes=len(out.encode()),
                wire_bytes=0, buffered=True,
                delivered_at_s=float("nan")))
            return None
        record = yield self.sim.process(
            self._deliver(out, ingress.name, egress, buffered=False,
                          original_src=src))
        return record

    def _deliver(self, message: Message, ingress_name: str, egress,
                 buffered: bool, original_src: str):
        if self.drop_rate > 0.0 \
                and self._chaos_rng.random() < self.drop_rate:
            self.dropped += 1
            self._dropped_ctr.inc(label=self.name)
            with self.ctx.tracer.start_span(
                    "continuum.gateway.drop", layer="continuum",
                    gateway=self.name, dst=message.dst,
                    topic=message.topic, reason="brownout"):
                self.ctx.publish(
                    f"continuum.gateway.{self.name}.dropped",
                    {"dst": message.dst, "topic": message.topic,
                     "reason": "brownout"})
            raise DeliveryError(
                f"gateway {self.name} dropped message to "
                f"{message.dst!r} (brownout)")
        wire = egress.wire_bytes(message)
        size = len(message.encode())
        yield self.sim.process(self.network.transfer(
            self.name, message.dst, size, wire_overhead=wire - size))
        # Span covers only the synchronous completion (record + publish):
        # the transfer above yields into the DES, where an ambient span
        # would leak onto unrelated interleaved events.
        with self.ctx.tracer.start_span(
                "continuum.gateway.deliver", layer="continuum",
                gateway=self.name, dst=message.dst, topic=message.topic):
            record = DeliveryRecord(
                src=original_src, dst=message.dst, topic=message.topic,
                ingress_protocol=ingress_name,
                egress_protocol=egress.name,
                payload_bytes=size,
                wire_bytes=wire, buffered=buffered,
                delivered_at_s=self.sim.now)
            self.deliveries.append(record)
            self._deliveries_ctr.inc(label=self.name)
            self.ctx.publish(f"continuum.gateway.{self.name}.delivered",
                             record)
        return record

    def flush(self, dst: str):
        """DES process: drain the store-and-forward buffer towards *dst*.

        Call after the endpoint becomes reachable again; returns the
        number of messages delivered.
        """
        receiver = self._endpoint(dst)
        if not receiver.reachable:
            raise ValidationError(f"endpoint {dst!r} still unreachable")
        egress = negotiate(receiver.protocols, receiver.protocols)
        delivered = 0
        buffer = self._buffers.get(dst, deque())
        while buffer:
            message = buffer.popleft()
            yield self.sim.process(self._deliver(
                message, "buffered", egress, buffered=True,
                original_src=message.src))
            delivered += 1
        return delivered

    # -- introspection ------------------------------------------------------------

    def buffered_count(self, dst: str) -> int:
        return len(self._buffers.get(dst, deque()))

    def bridge_matrix(self) -> dict[tuple[str, str], int]:
        """Deliveries per (ingress protocol, egress protocol) pair."""
        matrix: dict[tuple[str, str], int] = {}
        for record in self.deliveries:
            if record.wire_bytes > 0:
                key = (record.ingress_protocol, record.egress_protocol)
                matrix[key] = matrix.get(key, 0) + 1
        return matrix
