"""Distributed optimization among MIRTO agents (paper Sec. IV).

"Variants of MIRTO agents will be developed using strategies based on
swarm-like intelligence, FL, and distributed optimization." This module
provides the distributed-optimization flavour, with no central
coordinator:

* :class:`GossipConsensus` — asynchronous gossip averaging over the
  agent connectivity graph, the primitive agents use to agree on global
  aggregates (mean utilization, total demand) from local observations;
* :class:`DistributedLoadBalancer` — diffusion load balancing: across
  every link, work flows from the more to the less utilized neighbour
  in proportion to their utilization difference, which drives the
  system towards equal utilization without anyone seeing the global
  state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError
from repro.core.graph import is_connected


class GossipConsensus:
    """Randomized pairwise gossip averaging on a connectivity graph.

    Each round, random connected pairs average their values; all nodes
    converge to the global mean at a rate set by the graph's
    connectivity. *graph* is any undirected graph with ``nodes`` and
    ``edges`` collections (a networkx graph, say); the order of
    ``edges`` feeds the random pair choice.
    """

    def __init__(self, graph, rng: random.Random):
        if len(graph.nodes) < 2:
            raise ConfigurationError("gossip needs at least two agents")
        if not is_connected(graph.nodes, graph.edges):
            raise ConfigurationError(
                "gossip graph must be connected to reach consensus")
        self.graph = graph
        self.rng = rng
        self.values: dict[str, float] = {}

    def set_values(self, values: dict[str, float]) -> None:
        missing = set(self.graph.nodes) - set(values)
        if missing:
            raise ConfigurationError(f"missing values for {missing}")
        self.values = dict(values)

    @property
    def true_mean(self) -> float:
        return sum(self.values.values()) / len(self.values)

    def round(self, exchanges: int | None = None) -> None:
        """One gossip round of random pairwise averaging."""
        edges = list(self.graph.edges)
        exchanges = exchanges or len(edges)
        for _ in range(exchanges):
            a, b = self.rng.choice(edges)
            average = (self.values[a] + self.values[b]) / 2
            self.values[a] = average
            self.values[b] = average

    def spread(self) -> float:
        """Max deviation from the mean — the convergence measure."""
        mean = self.true_mean
        return max(abs(v - mean) for v in self.values.values())

    def run_until(self, tolerance: float, max_rounds: int = 500) -> int:
        """Gossip until all agents are within *tolerance* of the mean."""
        for round_index in range(max_rounds):
            if self.spread() <= tolerance:
                return round_index
            self.round()
        raise ConfigurationError(
            f"gossip did not converge within {max_rounds} rounds")


@dataclass
class SiteState:
    """One site's local view in the distributed load balancer."""

    name: str
    capacity: float
    load: float


#: Share of a link's utilization difference that moves per round.
FLOW_GAIN = 0.5


class DistributedLoadBalancer:
    """Diffusion load balancing between neighbouring sites.

    Each round, work flows across each edge from the more to the less
    utilized site, ``FLOW_GAIN * |u_a - u_b| * min(c_a, c_b) / 2`` of
    it (``u`` utilization, ``c`` capacity), capped at the donor's load.
    Only neighbour utilizations are exchanged — no global state.
    *graph* is as for :class:`GossipConsensus`.
    """

    def __init__(self, graph):
        if len(graph.nodes) < 2 or not is_connected(graph.nodes,
                                                    graph.edges):
            raise ConfigurationError(
                "balancer needs a connected graph of >=2 sites")
        self.graph = graph
        self.sites: dict[str, SiteState] = {}
        self.rounds_run = 0

    def set_sites(self, capacities: dict[str, float],
                  loads: dict[str, float]) -> None:
        for name in self.graph.nodes:
            if name not in capacities or name not in loads:
                raise ConfigurationError(f"missing site state for {name}")
            if capacities[name] <= 0:
                raise ConfigurationError(
                    f"site {name}: capacity must be positive")
            self.sites[name] = SiteState(
                name=name, capacity=capacities[name], load=loads[name])

    def utilizations(self) -> dict[str, float]:
        return {name: site.load / site.capacity
                for name, site in self.sites.items()}

    def imbalance(self) -> float:
        """Max - min utilization across sites."""
        utils = list(self.utilizations().values())
        return max(utils) - min(utils)

    def round(self) -> float:
        """One flow exchange over every edge; returns the imbalance."""
        for a, b in self.graph.edges:
            site_a, site_b = self.sites[a], self.sites[b]
            gradient = (site_a.load / site_a.capacity
                        - site_b.load / site_b.capacity)
            if abs(gradient) < 1e-12:
                continue
            donor, receiver = (site_a, site_b) if gradient > 0 \
                else (site_b, site_a)
            flow = FLOW_GAIN * abs(gradient) \
                * min(donor.capacity, receiver.capacity) / 2
            flow = min(flow, donor.load)
            donor.load -= flow
            receiver.load += flow
        self.rounds_run += 1
        return self.imbalance()

    def balance(self, tolerance: float = 0.02,
                max_rounds: int = 500) -> int:
        """Run rounds until utilizations agree within *tolerance*."""
        for round_index in range(max_rounds):
            if self.imbalance() <= tolerance:
                return round_index
            self.round()
        raise ConfigurationError(
            f"load balancing did not converge within {max_rounds} "
            "rounds")
