"""The layered cloud-fog-edge continuum infrastructure (paper Fig. 2).

An :class:`Infrastructure` groups devices into the three layers, attaches
them to a network topology, and exposes the queries the orchestration
stack needs: components per layer, capability filtering, vertical
neighbours for offloading, and fleet-wide telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import NotFoundError, ValidationError
from repro.core.ids import IdGenerator
from repro.core.levels import SECURITY_RANK
from repro.continuum.devices import (
    Device,
    DeviceKind,
    Layer,
    OperatingPoint,
    make_device,
)
from repro.continuum.simulator import Simulator
from repro.net.topology import Network
from repro.runtime import RuntimeContext


@dataclass
class OffloadStats:
    """Counts of workload movements across and within layers."""

    horizontal: int = 0  # intra-layer migrations
    vertical_up: int = 0  # towards the cloud
    vertical_down: int = 0  # towards the edge

    def record(self, src_layer: Layer, dst_layer: Layer) -> None:
        """Classify and count one offload from *src_layer* to *dst_layer*."""
        order = [Layer.EDGE, Layer.FOG, Layer.CLOUD]
        delta = order.index(dst_layer) - order.index(src_layer)
        if delta == 0:
            self.horizontal += 1
        elif delta > 0:
            self.vertical_up += 1
        else:
            self.vertical_down += 1

    @property
    def total(self) -> int:
        return self.horizontal + self.vertical_up + self.vertical_down


@dataclass(frozen=True)
class ZonePartition:
    """A zone decomposition of an infrastructure, for sharded simulation.

    ``zones`` fixes the deterministic zone order (ranks) a
    :class:`~repro.runtime.shard.ShardedContext` builds from;
    ``min_cross_latency_s`` is the conservative lookahead bound — the
    smallest effective latency over links whose endpoints live in
    different zones (``inf`` when the partition cuts no links).
    """

    zones: tuple[str, ...]
    assignment: dict[str, str] = field(default_factory=dict)
    cross_links: tuple[tuple[str, str], ...] = ()
    min_cross_latency_s: float = float("inf")

    def devices_in(self, zone: str) -> list[str]:
        """Device names assigned to *zone*, in assignment order."""
        return [d for d, z in self.assignment.items() if z == zone]


class Infrastructure:
    """A running continuum: devices, layers, and the connecting network.

    Injected with a keyword-only ``ctx=`` — a
    :class:`~repro.runtime.RuntimeContext`, or a bare :class:`Simulator`
    wrapped via :meth:`RuntimeContext.adopt` for legacy call sites; the
    context's clock, bus and RNG tree are shared with every other layer
    observing this infrastructure.
    """

    def __init__(self, *, ctx: RuntimeContext | Simulator | None = None,
                 network: Network | None = None):
        self.ctx = RuntimeContext.adopt(ctx)
        self.sim = self.ctx.sim
        self.network = network or Network(ctx=self.ctx)
        self.devices: dict[str, Device] = {}
        self.offloads = OffloadStats()
        self._ids = IdGenerator()

    # -- construction ---------------------------------------------------------

    def add_device(self, kind: DeviceKind, name: str | None = None,
                   operating_points: tuple[OperatingPoint, ...] | None = None,
                   attach_to: str | None = None,
                   link_latency_s: float | None = None,
                   link_bw_bps: float | None = None) -> Device:
        """Create a device, register it, and attach it to the network.

        When *attach_to* is given, a link with the supplied latency and
        bandwidth (or layer-appropriate defaults) connects the new device
        to that existing component.
        """
        name = name or self._ids.next(kind.value.replace("_", "-"))
        if name in self.devices:
            raise ValidationError(f"duplicate device name {name!r}")
        device = make_device(name, kind, operating_points, ctx=self.ctx)
        self.devices[name] = device
        self.network.add_host(name)
        if attach_to is not None:
            latency, bandwidth = self._default_link(device, attach_to)
            self.network.add_link(
                name,
                attach_to,
                latency_s=link_latency_s if link_latency_s is not None
                else latency,
                bandwidth_bps=link_bw_bps if link_bw_bps is not None
                else bandwidth,
            )
        self.ctx.publish("continuum.infra.device-added", {
            "device": name, "kind": kind.value,
            "layer": device.spec.layer.value})
        return device

    def _default_link(self, device: Device, peer_name: str) -> tuple[float, float]:
        """Layer-typical latency/bandwidth for a new attachment."""
        peer = self.device(peer_name)
        layers = {device.spec.layer, peer.spec.layer}
        if layers == {Layer.EDGE}:
            return 0.002, 100e6  # local wireless hop
        if layers == {Layer.EDGE, Layer.FOG}:
            return 0.005, 1e9  # metro access
        if layers == {Layer.FOG}:
            return 0.003, 10e9
        if layers == {Layer.FOG, Layer.CLOUD}:
            return 0.020, 10e9  # WAN
        if layers == {Layer.EDGE, Layer.CLOUD}:
            return 0.035, 500e6
        return 0.001, 40e9  # intra-cloud

    # -- queries ----------------------------------------------------------------

    def device(self, name: str) -> Device:
        """Look up a device by name."""
        if name not in self.devices:
            raise NotFoundError(f"unknown device {name!r}")
        return self.devices[name]

    def layer_devices(self, layer: Layer) -> list[Device]:
        """All devices in *layer*."""
        return [d for d in self.devices.values() if d.spec.layer == layer]

    def devices_of_kind(self, kind: DeviceKind) -> list[Device]:
        """All devices of a concrete kind."""
        return [d for d in self.devices.values() if d.spec.kind == kind]

    def capable_devices(self, min_memory_bytes: int = 0,
                        kernel=None, layer: Layer | None = None,
                        min_security_level: str | None = None) -> list[Device]:
        """Filter devices by capability requirements.

        ``kernel`` restricts to devices with an accelerator for that
        kernel class; ``min_security_level`` uses the ordering
        low < medium < high.
        """
        result = []
        for device in self.devices.values():
            if device.spec.memory_bytes < min_memory_bytes:
                continue
            if kernel is not None and kernel not in device.spec.accel_kernels:
                continue
            if layer is not None and device.spec.layer != layer:
                continue
            if min_security_level is not None:
                have = SECURITY_RANK.get(device.spec.max_security_level, 0)
                need = SECURITY_RANK.get(min_security_level, 0)
                if have < need:
                    continue
            result.append(device)
        return result

    def partition(self, by=None) -> ZonePartition:
        """Decompose the infrastructure into zones for sharded simulation.

        *by* names each device's zone: ``None`` partitions by layer
        (cloud / fog / edge — the coarsest cut), a callable receives the
        :class:`Device`, and a mapping is looked up by device name. The
        returned :class:`ZonePartition` carries the sorted zone order,
        the device assignment, the links the cut crosses and the minimum
        effective cross-zone latency — the epoch lookahead a
        :class:`~repro.runtime.shard.ShardedContext` must respect.
        """
        assignment: dict[str, str] = {}
        for name, device in self.devices.items():
            if by is None:
                zone = device.spec.layer.value
            elif callable(by):
                zone = by(device)
            else:
                zone = by[name]
            assignment[name] = str(zone)
        cross = []
        min_latency = float("inf")
        for link in self.network.links:
            zone_a = assignment.get(link.a)
            zone_b = assignment.get(link.b)
            if zone_a is None or zone_b is None or zone_a == zone_b:
                continue
            cross.append(link.key())
            latency = link.effective_latency()
            if latency < min_latency:
                min_latency = latency
        return ZonePartition(
            zones=tuple(sorted(set(assignment.values()))),
            assignment=assignment,
            cross_links=tuple(sorted(cross)),
            min_cross_latency_s=min_latency)

    def record_offload(self, src_device: str, dst_device: str) -> None:
        """Record a workload movement for the Fig. 2 offload statistics."""
        self.offloads.record(
            self.device(src_device).spec.layer,
            self.device(dst_device).spec.layer,
        )

    # -- fleet telemetry -----------------------------------------------------------

    def layer_report(self) -> dict[str, dict[str, float]]:
        """Aggregate utilization/energy/tasks per layer (Fig. 2 bench)."""
        report: dict[str, dict[str, float]] = {}
        for layer in Layer:
            members = self.layer_devices(layer)
            if not members:
                continue
            report[layer.value] = {
                "devices": float(len(members)),
                "mean_utilization": (
                    sum(d.utilization() for d in members) / len(members)
                ),
                "total_energy_j": sum(d.total_energy() for d in members),
                "tasks_executed": float(
                    sum(d.pmc.tasks_executed for d in members)
                ),
                "accelerated_tasks": float(
                    sum(d.pmc.accelerated_tasks for d in members)
                ),
            }
        return report

    def __len__(self) -> int:
        return len(self.devices)


def build_reference_infrastructure(ctx: RuntimeContext | Simulator | None
                                   = None,
                                   edge_sites: int = 2,
                                   gateways_per_site: int = 1,
                                   fmdcs: int = 1,
                                   cloud_servers: int = 2) -> Infrastructure:
    """Construct the paper's reference infrastructure (Fig. 2).

    Each edge site holds one multicore, one HMPSoC FPGA and one
    RISC-V+CGRA device behind a smart gateway; gateways connect to the
    FMDC tier, which connects to the cloud.
    """
    infra = Infrastructure(ctx=ctx)
    cloud_names = []
    for i in range(cloud_servers):
        server = infra.add_device(DeviceKind.CLOUD_SERVER,
                                  name=f"cloud-{i:02d}")
        cloud_names.append(server.name)
        if i > 0:
            infra.network.add_link(server.name, cloud_names[0],
                                   latency_s=0.0005, bandwidth_bps=40e9)
    fmdc_names = []
    for i in range(fmdcs):
        fmdc = infra.add_device(DeviceKind.FMDC, name=f"fmdc-{i:02d}",
                                attach_to=cloud_names[i % len(cloud_names)])
        fmdc_names.append(fmdc.name)
    for site in range(edge_sites):
        for g in range(gateways_per_site):
            gw = infra.add_device(
                DeviceKind.SMART_GATEWAY,
                name=f"gw-{site:02d}-{g}",
                attach_to=fmdc_names[site % len(fmdc_names)],
            )
            infra.add_device(DeviceKind.EDGE_MULTICORE,
                             name=f"mc-{site:02d}-{g}", attach_to=gw.name)
            infra.add_device(DeviceKind.HMPSOC_FPGA,
                             name=f"fpga-{site:02d}-{g}", attach_to=gw.name)
            infra.add_device(DeviceKind.RISCV_CGRA,
                             name=f"riscv-{site:02d}-{g}", attach_to=gw.name)
    return infra
