"""Unit tests for the network substrate: topology, protocols, slicing."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CapacityError, ConfigurationError, NotFoundError
from repro.continuum.simulator import Simulator
from repro.net import (
    CoapAdapter,
    HttpAdapter,
    Message,
    MqttAdapter,
    Network,
    SliceManager,
)
from repro.net.protocols import negotiate


def linear_network(sim):
    """a -- b -- c with distinct latencies/bandwidths."""
    net = Network(ctx=sim)
    net.add_link("a", "b", latency_s=0.010, bandwidth_bps=1e6)
    net.add_link("b", "c", latency_s=0.020, bandwidth_bps=2e6)
    return net


class TestTopology:
    def test_self_link_rejected(self):
        with pytest.raises(ConfigurationError):
            Network(ctx=Simulator()).add_link("a", "a", 0.01, 1e6)

    def test_path_and_latency(self):
        net = linear_network(Simulator())
        assert net.path("a", "c") == ["a", "b", "c"]
        assert net.path_latency("a", "c") == pytest.approx(0.030)

    def test_shortest_path_prefers_low_latency(self):
        net = linear_network(Simulator())
        net.add_link("a", "c", latency_s=0.005, bandwidth_bps=1e6)
        assert net.path("a", "c") == ["a", "c"]

    def test_unknown_host_raises(self):
        net = linear_network(Simulator())
        with pytest.raises(NotFoundError):
            net.path("a", "ghost")

    def test_disconnected_raises(self):
        net = linear_network(Simulator())
        net.add_host("island")
        with pytest.raises(NotFoundError):
            net.path("a", "island")

    def test_estimate_uses_bottleneck(self):
        net = linear_network(Simulator())
        # 1 MB over bottleneck 1e6 bps = 8 s + 30 ms latency.
        est = net.estimate_transfer_time("a", "c", 1_000_000)
        assert est == pytest.approx(8.030)

    def test_estimate_same_host_zero(self):
        net = linear_network(Simulator())
        assert net.estimate_transfer_time("a", "a", 12345) == 0.0


@st.composite
def mutated_topologies(draw):
    """A random connected graph plus a cut/degrade/restore sequence.

    Every effective latency is a distinct power of two, so every set of
    links has its own exact float sum and shortest paths never tie.
    """
    n = draw(st.integers(3, 6))
    hosts = [f"h{i}" for i in range(n)]
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edges = [(hosts[a], hosts[b]) for a, b in sorted(pairs)]
    exponents = draw(st.permutations(range(-30, 10)))
    ops = draw(st.lists(st.tuples(
        st.sampled_from(("cut", "degrade", "restore")),
        st.integers(0, len(edges) - 1)), max_size=10))
    return hosts, edges, exponents, ops


class TestPathTable:
    """``Network.path`` answers from one single-source Dijkstra per
    (topology generation, source) and must agree with networkx."""

    @staticmethod
    def _assert_matches_networkx(net, hosts):
        graph = nx.Graph()
        graph.add_nodes_from(hosts)
        for link in net.links:
            if link.up:
                graph.add_edge(link.a, link.b,
                               latency=link.effective_latency())
        for src in hosts:
            for dst in hosts:
                try:
                    expected = nx.shortest_path(graph, src, dst,
                                                weight="latency")
                except nx.NetworkXNoPath:
                    with pytest.raises(NotFoundError):
                        net.path(src, dst)
                    continue
                got = net.path(src, dst)
                assert got == expected
                got.reverse()
                got.append("mutated")
                assert net.path(src, dst) == expected

    @settings(max_examples=40, deadline=None)
    @given(mutated_topologies())
    def test_matches_networkx_under_link_mutations(self, scenario):
        hosts, edges, exponents, ops = scenario
        unused = iter(exponents[len(edges):])
        net = Network(ctx=Simulator())
        for (a, b), exponent in zip(edges, exponents):
            net.add_link(a, b, latency_s=2.0 ** exponent,
                         bandwidth_bps=1e6)
        self._assert_matches_networkx(net, hosts)
        for kind, index in ops:
            a, b = edges[index]
            if kind == "cut":
                net.set_link_state(a, b, up=False)
            elif kind == "restore":
                net.set_link_state(a, b, up=True)
            else:
                link = net.link(a, b)
                net.set_link_state(
                    a, b, latency_factor=2.0 ** next(unused)
                    / link.latency_s)
            self._assert_matches_networkx(net, hosts)


class TestTransfer:
    def test_transfer_takes_modelled_time(self):
        sim = Simulator()
        net = linear_network(sim)
        p = sim.process(net.transfer("a", "c", 100_000))
        result = sim.run(until=p)
        assert result.duration_s == pytest.approx(0.030 + 800_000 / 1e6)
        assert result.hops == 2

    def test_same_host_transfer_instant(self):
        sim = Simulator()
        net = linear_network(sim)
        p = sim.process(net.transfer("a", "a", 100_000))
        result = sim.run(until=p)
        assert result.duration_s == 0.0
        assert result.hops == 0

    def test_contention_slows_concurrent_flows(self):
        sim = Simulator()
        net = linear_network(sim)
        p1 = sim.process(net.transfer("a", "b", 100_000))
        p2 = sim.process(net.transfer("a", "b", 100_000))
        sim.run()
        solo_time = 0.010 + 800_000 / 1e6
        # First flow sees an empty link; second samples 1 active flow and
        # gets half the bandwidth.
        assert p1.value.duration_s == pytest.approx(solo_time)
        assert p2.value.duration_s > solo_time * 1.5

    def test_flow_counters_return_to_zero(self):
        sim = Simulator()
        net = linear_network(sim)
        sim.run(until=sim.process(net.transfer("a", "c", 1000)))
        assert all(link.active_flows == 0 for link in net.links)

    def test_bytes_accounted_per_link(self):
        sim = Simulator()
        net = linear_network(sim)
        sim.run(until=sim.process(net.transfer("a", "c", 1000,
                                               wire_overhead=100)))
        report = net.utilization_report()
        assert report[("a", "b")] == 1100
        assert report[("b", "c")] == 1100

    def test_hotspots_ranked(self):
        sim = Simulator()
        net = linear_network(sim)
        sim.run(until=sim.process(net.transfer("b", "c", 5000)))
        sim.run(until=sim.process(net.transfer("a", "b", 100)))
        hot = net.congestion_hotspots(top=1)
        assert hot[0].key() == ("b", "c")


class TestProtocols:
    def message(self):
        return Message(src="fpga-0", dst="gw-0", topic="telemetry",
                       payload={"util": 0.5, "temp": 41})

    def test_http_roundtrip(self):
        adapter = HttpAdapter()
        wire = adapter.frame(self.message())
        assert adapter.unframe(wire) == {"util": 0.5, "temp": 41}
        assert b"POST /telemetry" in wire

    def test_mqtt_roundtrip(self):
        adapter = MqttAdapter()
        assert adapter.unframe(adapter.frame(self.message())) == \
            self.message().payload

    def test_coap_roundtrip(self):
        adapter = CoapAdapter()
        assert adapter.unframe(adapter.frame(self.message())) == \
            self.message().payload

    def test_wire_bytes_exceed_payload(self):
        msg = self.message()
        for adapter in (HttpAdapter(), MqttAdapter(), CoapAdapter()):
            assert adapter.wire_bytes(msg) > len(msg.encode())

    def test_http_heaviest_overhead(self):
        msg = self.message()
        assert (HttpAdapter().wire_bytes(msg)
                > MqttAdapter().wire_bytes(msg))

    def test_handshake_latency_ordering(self):
        rtt = 0.05
        assert HttpAdapter().handshake_latency(rtt) > \
            MqttAdapter().handshake_latency(rtt) > \
            CoapAdapter().handshake_latency(rtt) == 0

    def test_negotiate_prefers_offered_order(self):
        adapter = negotiate(["mqtt", "http"], ["http", "mqtt", "coap"])
        assert adapter.name == "mqtt"

    def test_negotiate_no_common_raises(self):
        from repro.core.errors import ValidationError
        with pytest.raises(ValidationError):
            negotiate(["mqtt"], ["http"])

    def test_malformed_frame_rejected(self):
        from repro.core.errors import ValidationError
        with pytest.raises(ValidationError):
            HttpAdapter().unframe(b"garbage-without-separator")


class TestSlicing:
    def make(self):
        sim = Simulator()
        net = linear_network(sim)
        return net, SliceManager(net)

    def test_create_slice_reserves_fraction(self):
        net, mgr = self.make()
        mgr.create_slice("s1", "tenant", "a", "c", fraction=0.4)
        assert mgr.reserved_fraction("a", "b") == pytest.approx(0.4)
        assert mgr.reserved_fraction("b", "c") == pytest.approx(0.4)

    def test_slice_bandwidth_is_bottleneck_share(self):
        net, mgr = self.make()
        mgr.create_slice("s1", "t", "a", "c", fraction=0.5)
        assert mgr.slice_bandwidth("s1") == pytest.approx(0.5e6)

    def test_overcommit_rejected_atomically(self):
        net, mgr = self.make()
        mgr.create_slice("s1", "t", "a", "c", fraction=0.7)
        with pytest.raises(CapacityError):
            mgr.create_slice("s2", "t", "a", "b", fraction=0.5)
        # Nothing from the failed request may linger.
        assert mgr.reserved_fraction("a", "b") == pytest.approx(0.7)

    def test_release_restores_capacity(self):
        net, mgr = self.make()
        mgr.create_slice("s1", "t", "a", "c", fraction=0.7)
        mgr.release_slice("s1")
        assert mgr.reserved_fraction("a", "b") == pytest.approx(0.0)
        mgr.create_slice("s2", "t", "a", "b", fraction=0.9)

    def test_best_effort_bandwidth_shrinks(self):
        net, mgr = self.make()
        assert mgr.best_effort_bandwidth("a", "b") == pytest.approx(1e6)
        mgr.create_slice("s1", "t", "a", "b", fraction=0.25)
        assert mgr.best_effort_bandwidth("a", "b") == pytest.approx(0.75e6)

    def test_duplicate_name_rejected(self):
        net, mgr = self.make()
        mgr.create_slice("s1", "t", "a", "b", fraction=0.1)
        with pytest.raises(CapacityError):
            mgr.create_slice("s1", "t", "b", "c", fraction=0.1)

    def test_invalid_fraction_rejected(self):
        net, mgr = self.make()
        with pytest.raises(CapacityError):
            mgr.create_slice("s1", "t", "a", "b", fraction=1.5)

    def test_release_unknown_raises(self):
        net, mgr = self.make()
        with pytest.raises(NotFoundError):
            mgr.release_slice("ghost")
