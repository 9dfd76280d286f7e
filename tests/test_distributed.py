"""Tests for firefly optimization, gossip consensus, distributed LB."""

import math
import random

import networkx as nx
import pytest

from repro.core.errors import ConfigurationError
from repro.mirto.distributed import (
    DistributedLoadBalancer,
    GossipConsensus,
)
from repro.mirto.swarm import FireflyOptimizer


def ring(n=6):
    return nx.cycle_graph([f"site-{i}" for i in range(n)])


class TestFirefly:
    def test_minimizes_sphere(self):
        optimizer = FireflyOptimizer(3, random.Random(0), fireflies=15)
        best, value = optimizer.minimize(
            lambda x: sum(v * v for v in x), iterations=50)
        assert value < 0.05

    def test_minimizes_shifted(self):
        optimizer = FireflyOptimizer(2, random.Random(1), fireflies=15,
                                     bounds=(-2, 2))
        best, value = optimizer.minimize(
            lambda x: (x[0] - 0.5) ** 2 + (x[1] + 1.0) ** 2,
            iterations=60)
        assert best[0] == pytest.approx(0.5, abs=0.15)
        assert best[1] == pytest.approx(-1.0, abs=0.15)

    def test_respects_bounds(self):
        optimizer = FireflyOptimizer(3, random.Random(2), bounds=(0, 1))
        best, _ = optimizer.minimize(lambda x: -sum(x), iterations=30)
        assert all(0 <= v <= 1 for v in best)

    def test_trace_recorded(self):
        optimizer = FireflyOptimizer(2, random.Random(3))
        optimizer.minimize(lambda x: sum(v * v for v in x),
                           iterations=10)
        assert len(optimizer.trace.best_per_iteration) == 10

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            FireflyOptimizer(0, random.Random(0))
        with pytest.raises(ConfigurationError):
            FireflyOptimizer(2, random.Random(0), fireflies=1)
        with pytest.raises(ConfigurationError):
            FireflyOptimizer(2, random.Random(0), bounds=(1, -1))


class TestGossipConsensus:
    def test_converges_to_global_mean(self):
        gossip = GossipConsensus(ring(), random.Random(0))
        gossip.set_values({f"site-{i}": float(i * 10) for i in range(6)})
        mean = gossip.true_mean
        rounds = gossip.run_until(tolerance=0.01)
        assert rounds < 200
        for value in gossip.values.values():
            assert value == pytest.approx(mean, abs=0.01)

    def test_mean_is_conserved(self):
        gossip = GossipConsensus(ring(), random.Random(1))
        gossip.set_values({f"site-{i}": float(i) for i in range(6)})
        before = gossip.true_mean
        for _ in range(20):
            gossip.round()
        assert gossip.true_mean == pytest.approx(before)

    def test_denser_graph_converges_faster(self):
        sparse = GossipConsensus(ring(8), random.Random(2))
        dense = GossipConsensus(
            nx.complete_graph([f"site-{i}" for i in range(8)]),
            random.Random(2))
        values = {f"site-{i}": float(i * 5) for i in range(8)}
        sparse.set_values(dict(values))
        dense.set_values(dict(values))
        assert dense.run_until(0.05) <= sparse.run_until(0.05)

    def test_disconnected_graph_rejected(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        graph.add_node("island")
        with pytest.raises(ConfigurationError):
            GossipConsensus(graph, random.Random(0))

    def test_missing_values_rejected(self):
        gossip = GossipConsensus(ring(), random.Random(0))
        with pytest.raises(ConfigurationError):
            gossip.set_values({"site-0": 1.0})


class TestDistributedLoadBalancer:
    def make(self, loads=None, capacities=None, n=4):
        graph = nx.cycle_graph([f"site-{i}" for i in range(n)])
        balancer = DistributedLoadBalancer(graph)
        balancer.set_sites(
            capacities or {f"site-{i}": 10.0 for i in range(n)},
            loads or {f"site-{i}": (40.0 if i == 0 else 0.0)
                      for i in range(n)})
        return balancer

    def test_hotspot_spreads_out(self):
        balancer = self.make()
        initial = balancer.imbalance()
        rounds = balancer.balance(tolerance=0.05)
        assert balancer.imbalance() < initial / 10
        assert rounds < 300
        # Everyone ends near the mean utilization of 1.0.
        for utilization in balancer.utilizations().values():
            assert utilization == pytest.approx(1.0, abs=0.1)

    def test_total_load_conserved(self):
        balancer = self.make()
        before = sum(s.load for s in balancer.sites.values())
        for _ in range(50):
            balancer.round()
        after = sum(s.load for s in balancer.sites.values())
        assert after == pytest.approx(before)

    def test_heterogeneous_capacities_share_proportionally(self):
        balancer = self.make(
            capacities={"site-0": 40.0, "site-1": 10.0,
                        "site-2": 10.0, "site-3": 10.0},
            loads={"site-0": 0.0, "site-1": 35.0, "site-2": 0.0,
                   "site-3": 0.0})
        balancer.balance(tolerance=0.05)
        utils = balancer.utilizations()
        # Equal utilization means the big site carries ~4x the load.
        assert balancer.sites["site-0"].load \
            > balancer.sites["site-1"].load * 2

    def test_already_balanced_is_a_fixed_point(self):
        balancer = self.make(
            loads={f"site-{i}": 5.0 for i in range(4)})
        assert balancer.balance(tolerance=0.01) == 0

    def test_loads_never_negative(self):
        balancer = self.make()
        for _ in range(100):
            balancer.round()
            assert all(s.load >= -1e-9
                       for s in balancer.sites.values())

    def test_bad_configuration_rejected(self):
        graph = nx.path_graph(["a"])
        with pytest.raises(ConfigurationError):
            DistributedLoadBalancer(graph)
        balancer = self.make()
        with pytest.raises(ConfigurationError):
            balancer.set_sites({"site-0": 0.0}, {"site-0": 1.0})
