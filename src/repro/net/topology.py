"""Network topology and message-transfer model.

The topology is an undirected graph of named hosts connected by
:class:`Link`s with latency and bandwidth. Transfers follow the
lowest-latency path; per-link bandwidth is shared fairly among concurrent
flows, approximated by sampling the number of active flows when the
transfer starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import ConfigurationError, NotFoundError
from repro.core.graph import dijkstra_paths
from repro.runtime import RuntimeContext

if TYPE_CHECKING:  # pragma: no cover - repro.continuum imports us
    from repro.continuum.simulator import Simulator


@dataclass
class Link:
    """A bidirectional network link.

    ``latency_factor`` / ``bandwidth_factor`` model chaos-injected
    degradation (inflated latency, throttled bandwidth) without losing
    the link's nominal parameters; ``up=False`` cuts the link entirely
    (partitions). All three are mutated through
    :meth:`Network.set_link_state` so path caches invalidate.
    """

    a: str
    b: str
    latency_s: float
    bandwidth_bps: float
    active_flows: int = 0
    bytes_carried: int = 0
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    up: bool = True

    def __post_init__(self):
        if self.latency_s < 0:
            raise ConfigurationError("link latency must be non-negative")
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("link bandwidth must be positive")

    def key(self) -> tuple[str, str]:
        """Canonical (sorted) endpoint pair identifying this link."""
        return tuple(sorted((self.a, self.b)))  # type: ignore[return-value]

    def effective_latency(self) -> float:
        """Propagation latency including chaos-injected inflation."""
        return self.latency_s * self.latency_factor

    def effective_bandwidth(self) -> float:
        """Bandwidth share for a new flow given current contention."""
        return (self.bandwidth_bps * self.bandwidth_factor
                / max(1, self.active_flows + 1))


@dataclass
class TransferResult:
    """Outcome of one message transfer."""

    src: str
    dst: str
    payload_bytes: int
    wire_bytes: int
    start_s: float
    end_s: float
    hops: int

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class Network:
    """The continuum's communication fabric."""

    def __init__(self, *, ctx: RuntimeContext | Simulator | None = None):
        self.ctx = RuntimeContext.adopt(ctx)
        self.sim = self.ctx.sim
        # The routing graph: host -> {neighbour: effective latency} over
        # the links that are up, in the order repro.core.graph reads.
        self.graph: dict[str, dict[str, float]] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self.transfers: list[TransferResult] = []
        # Shortest paths are stable between topology changes; caching
        # them keeps Dijkstra out of the transfer hot path. The path
        # table holds one single-source Dijkstra per source host.
        self._path_table: dict[str, dict[str, list[str]]] = {}
        self._path_cache: dict[tuple[str, str], list[Link]] = {}
        self._route_cache: dict[tuple[str, str], tuple[float, float]] = {}

    # -- construction ------------------------------------------------------------

    def add_host(self, name: str) -> None:
        """Register a host. Re-adding an existing host is a no-op."""
        self.graph.setdefault(name, {})

    def add_link(self, a: str, b: str, latency_s: float,
                 bandwidth_bps: float) -> Link:
        """Connect hosts *a* and *b* (hosts are auto-registered)."""
        if a == b:
            raise ConfigurationError("self-links are not allowed")
        self.add_host(a)
        self.add_host(b)
        link = Link(a, b, latency_s, bandwidth_bps)
        self._links[link.key()] = link
        self._set_edge(a, b, latency_s)
        self._topology_changed()
        return link

    def set_link_state(self, a: str, b: str, *, up: bool | None = None,
                       latency_factor: float | None = None,
                       bandwidth_factor: float | None = None) -> Link:
        """Mutate a link's chaos state (cut, degrade, restore).

        The single mutation point for partitions and degradations: it
        keeps the routing graph in sync (a down link is removed from
        the graph; an up link's edge weight is its *effective* latency)
        and clears the path caches. A live edge keeps its place in the
        adjacency order; a restored one joins the end of both ends'.
        """
        link = self.link(a, b)
        if latency_factor is not None:
            if latency_factor <= 0:
                raise ConfigurationError("latency factor must be positive")
            link.latency_factor = latency_factor
        if bandwidth_factor is not None:
            if bandwidth_factor <= 0:
                raise ConfigurationError("bandwidth factor must be positive")
            link.bandwidth_factor = bandwidth_factor
        if up is not None:
            link.up = up
        if link.up:
            self._set_edge(link.a, link.b, link.effective_latency())
        else:
            self.graph[link.a].pop(link.b, None)
            self.graph[link.b].pop(link.a, None)
        self._topology_changed()
        self.ctx.publish("net.link.state", {
            "a": link.a, "b": link.b, "up": link.up,
            "latency_factor": link.latency_factor,
            "bandwidth_factor": link.bandwidth_factor})
        return link

    def _set_edge(self, a: str, b: str, latency: float) -> None:
        self.graph[a][b] = latency
        self.graph[b][a] = latency

    def _topology_changed(self) -> None:
        self._path_table.clear()
        self._path_cache.clear()
        self._route_cache.clear()

    def link(self, a: str, b: str) -> Link:
        """The link between *a* and *b* (order-insensitive)."""
        key = tuple(sorted((a, b)))
        if key not in self._links:
            raise NotFoundError(f"no link between {a!r} and {b!r}")
        return self._links[key]  # type: ignore[index]

    @property
    def links(self) -> list[Link]:
        """All links in the topology."""
        return list(self._links.values())

    # -- path queries -----------------------------------------------------------------

    def path(self, src: str, dst: str) -> list[str]:
        """Lowest-latency host path from *src* to *dst* (inclusive).

        One single-source Dijkstra per source answers every
        destination, and every "no path", until the next topology
        change. Where two paths tie on latency it picks the one
        ``networkx.single_source_dijkstra_path`` picks (see
        :func:`repro.core.graph.dijkstra_paths`), which may differ from
        ``networkx.shortest_path``'s bidirectional search.
        """
        for host in (src, dst):
            if host not in self.graph:
                raise NotFoundError(f"unknown host {host!r}")
        table = self._path_table.get(src)
        if table is None:
            table = dijkstra_paths(self.graph, src)
            self._path_table[src] = table
        hosts = table.get(dst)
        if hosts is None:
            raise NotFoundError(f"no path from {src!r} to {dst!r}")
        return list(hosts)

    def path_links(self, src: str, dst: str) -> list[Link]:
        """Links along the lowest-latency path (cached per topology)."""
        key = (src, dst)
        links = self._path_cache.get(key)
        if links is None:
            hosts = self.path(src, dst)
            links = [self.link(a, b) for a, b in zip(hosts, hosts[1:])]
            self._path_cache[key] = links
        return links

    def path_latency(self, src: str, dst: str) -> float:
        """Sum of effective propagation latencies along the path."""
        return sum(link.effective_latency()
                   for link in self.path_links(src, dst))

    def estimate_transfer_time(self, src: str, dst: str,  # perf: hot
                               nbytes: int) -> float:
        """Predicted uncontended transfer time for *nbytes*."""
        if src == dst:
            return 0.0
        route = self._route_cache.get((src, dst))
        if route is None:
            links = self.path_links(src, dst)
            latency = 0.0
            bottleneck = links[0].bandwidth_bps * links[0].bandwidth_factor
            for link in links:
                latency += link.latency_s * link.latency_factor
                bandwidth = link.bandwidth_bps * link.bandwidth_factor
                if bandwidth < bottleneck:
                    bottleneck = bandwidth
            route = (latency, bottleneck)
            self._route_cache[(src, dst)] = route
        return route[0] + nbytes * 8 / route[1]

    # -- simulated transfer ----------------------------------------------------------------

    def transfer(self, src: str, dst: str, nbytes: int,
                 wire_overhead: int = 0):
        """DES process: move *nbytes* (+framing overhead) from src to dst.

        Bandwidth is the bottleneck link's fair share at flow start; the
        process's value is a :class:`TransferResult`.
        """
        wire_bytes = nbytes + wire_overhead
        start = self.sim.now
        if src == dst:
            result = TransferResult(src, dst, nbytes, wire_bytes,
                                    start, start, hops=0)
            self.transfers.append(result)
            return result
            yield  # pragma: no cover - makes this a generator in both paths
        links = self.path_links(src, dst)
        latency = sum(link.effective_latency() for link in links)
        share = min(link.effective_bandwidth() for link in links)
        for link in links:
            link.active_flows += 1
            link.bytes_carried += wire_bytes
        try:
            yield self.sim.timeout(latency + wire_bytes * 8 / share)
        finally:
            for link in links:
                link.active_flows -= 1
        result = TransferResult(src, dst, nbytes, wire_bytes, start,
                                self.sim.now, hops=len(links))
        self.transfers.append(result)
        return result

    # -- telemetry -------------------------------------------------------------------

    def utilization_report(self) -> dict[tuple[str, str], int]:
        """Bytes carried per link since construction."""
        return {key: link.bytes_carried for key, link in self._links.items()}

    def congestion_hotspots(self, top: int = 5) -> list[Link]:
        """Links ranked by bytes carried, busiest first."""
        return sorted(self.links, key=lambda l: l.bytes_carried,
                      reverse=True)[:top]
