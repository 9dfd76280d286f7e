"""``repro.core.graph`` against networkx, which stays as the test oracle.

Each property builds a networkx graph in the same insertion order as
the program's own structure and requires the same answer *and* the
same order, since task order, routes and findings feed byte-pinned
outputs. A last test imports every module, each as a process's first
``repro`` import, with networkx blocked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum.simulator import Simulator
from repro.continuum.workload import Application, Task
from repro.core.errors import NotFoundError
from repro.core.graph import (
    dijkstra_paths,
    is_connected,
    simple_cycles,
    topological_sort,
)
from repro.net import Network
from repro.tosca.model import NodeTemplate, Requirement, ServiceTemplate
from repro.tosca.validator import ToscaValidator

SRC = Path(__file__).resolve().parent.parent / "src"


@st.composite
def dag_builds(draw):
    """Add-node and add-edge steps, interleaved, that build a random DAG.

    Edges join nodes already added (some long after both endpoints)
    and point up a hidden ranking, so none closes a cycle; repeats are
    allowed.
    """
    n = draw(st.integers(1, 8))
    names = [f"t{i}" for i in draw(st.permutations(range(n)))]
    rank = {name: i for i, name in enumerate(draw(st.permutations(names)))}
    added, steps = [], []
    for _ in range(4 * n):
        if len(added) < n and (len(added) < 2 or draw(st.booleans())):
            added.append(names[len(added)])
            steps.append((added[-1],))
            continue
        a, b = draw(st.sampled_from(added)), draw(st.sampled_from(added))
        if a != b:
            steps.append(tuple(sorted((a, b), key=rank.__getitem__)))
    steps += [(name,) for name in names[len(added):]]
    return steps


class TestTopologicalSort:
    @settings(max_examples=150, deadline=None)
    @given(dag_builds())
    def test_kahn_order_matches_networkx(self, steps):
        graph, succ, app = nx.DiGraph(), {}, Application("dag")
        for step in steps:
            if len(step) == 1:
                graph.add_node(step[0])
                succ[step[0]] = {}
                app.add_task(Task(step[0], megaops=1))
            else:
                graph.add_edge(*step)
                succ[step[0]][step[1]] = None
                app.connect(*step)
        expected = list(nx.topological_sort(graph))
        assert topological_sort(succ) == expected
        assert [task.name for task in app.tasks] == expected
        for name in expected:
            assert app.predecessors(name) == list(graph.predecessors(name))
            assert app.successors(name) == list(graph.successors(name))

    def test_cycle_raises(self):
        with pytest.raises(ValueError):
            topological_sort({"a": ["b"], "b": ["a"], "c": []})
        with pytest.raises(ValueError):
            topological_sort({"a": ["a"]})


@st.composite
def tied_link_histories(draw):
    """A connected topology with latencies from {1, 2}, then random cuts,
    degrades (factor 1 or 2), restores and re-adds, so equal-latency
    paths abound and only the tie-break decides the route."""
    n = draw(st.integers(3, 7))
    hosts = [f"h{i}" for i in range(n)]
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=2 * n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edges = [(hosts[a], hosts[b]) for a, b in draw(st.permutations(
        sorted(pairs)))]
    latencies = draw(st.lists(st.sampled_from((1.0, 2.0)),
                              min_size=len(edges), max_size=len(edges)))
    ops = draw(st.lists(st.tuples(
        st.sampled_from(("cut", "degrade", "restore", "relink")),
        st.integers(0, len(edges) - 1), st.sampled_from((1.0, 2.0)),
        st.booleans()), max_size=12))
    return hosts, edges, latencies, ops


class TestDijkstra:
    @staticmethod
    def _assert_same_routes(net, graph, hosts):
        for src in hosts:
            expected = nx.single_source_dijkstra_path(graph, src,
                                                      weight="latency")
            assert dijkstra_paths(net.graph, src) == expected
            for dst in hosts:
                if dst in expected:
                    assert net.path(src, dst) == expected[dst]
                else:
                    with pytest.raises(NotFoundError):
                        net.path(src, dst)

    @settings(max_examples=150, deadline=None)
    @given(tied_link_histories())
    def test_network_paths_match_networkx_with_ties(self, history):
        """The networkx mirror applies each mutation as ``Network`` did
        on an ``nx.Graph``: a live edge is updated in place, a cut one
        removed, a restored one added back at the end."""
        hosts, edges, latencies, ops = history
        net, graph = Network(ctx=Simulator()), nx.Graph()
        graph.add_nodes_from(hosts)
        for (a, b), latency in zip(edges, latencies):
            net.add_link(a, b, latency_s=latency, bandwidth_bps=1e6)
            graph.add_edge(a, b, latency=latency)
        self._assert_same_routes(net, graph, hosts)
        for kind, index, value, flip in ops:
            a, b = edges[index][::-1] if flip else edges[index]
            if kind == "relink":
                net.add_link(a, b, latency_s=value, bandwidth_bps=1e6)
                graph.add_edge(a, b, latency=value)
            else:
                link = net.set_link_state(
                    a, b, up={"cut": False, "restore": True}.get(kind),
                    latency_factor=value if kind == "degrade" else None)
                if link.up:
                    graph.add_edge(link.a, link.b,
                                   latency=link.effective_latency())
                elif graph.has_edge(a, b):
                    graph.remove_edge(a, b)
            self._assert_same_routes(net, graph, hosts)


@st.composite
def small_graphs(draw, max_nodes=6):
    n = draw(st.integers(1, max_nodes))
    nodes = [f"n{i}" for i in draw(st.permutations(range(n)))]
    edges = draw(st.lists(st.tuples(st.sampled_from(nodes),
                                    st.sampled_from(nodes)),
                          max_size=3 * n))
    return nodes, edges


class TestConnectivity:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_matches_networkx(self, spec):
        nodes, edges = spec
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        assert is_connected(graph.nodes, graph.edges) == \
            nx.is_connected(graph)
        assert is_connected(nodes, edges) == nx.is_connected(graph)

    def test_no_nodes_is_not_connected(self):
        assert not is_connected([], [])


def _rotated(cycle):
    start = cycle.index(min(cycle))
    return tuple(cycle[start:] + cycle[:start])


class TestSimpleCycles:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_same_cycles_as_networkx(self, spec):
        nodes, edges = spec
        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        succ = {node: dict.fromkeys(graph.successors(node))
                for node in nodes}
        cycles = simple_cycles(succ)
        found = [_rotated(cycle) for cycle in cycles]
        assert len(found) == len(set(found))
        assert set(found) == {_rotated(c) for c in nx.simple_cycles(graph)}
        if len(cycles) == 1:
            assert cycles[0] == [u for u, _ in nx.find_cycle(graph)]

    def test_rotation_and_order_follow_the_graph(self):
        succ = {"c": {"d": None}, "d": {"c": None},
                "a": {"b": None}, "b": {"a": None, "b": None}}
        assert simple_cycles(succ) == [["c", "d"], ["a", "b"], ["b"]]


@st.composite
def host_templates(draw):
    """Templates in random order, each hosted on 0-2 random templates."""
    names = [f"n{i}" for i in draw(st.permutations(range(
        draw(st.integers(2, 7)))))]
    return [(name, draw(st.lists(st.sampled_from(names), max_size=2)))
            for name in names]


class TestHostingCycleText:
    @settings(max_examples=200, deadline=None)
    @given(host_templates())
    def test_single_cycle_keeps_find_cycle_text(self, templates):
        """With one HostedOn cycle the validator's problem follows
        networkx's ``find_cycle`` rotation, closed on its first member.
        A self-hosting template is the "targets itself" problem, not a
        cycle, so the oracle graph leaves self-loops out."""
        service = ServiceTemplate(name="hosts")
        graph = nx.DiGraph()
        for name, hosts in templates:
            template = NodeTemplate(name=name, type="myrtus.nodes.Container")
            for host in hosts:
                template.requirements.append(Requirement("host", host))
                if host != name:
                    graph.add_edge(name, host)
            service.add_node(template)
        problems = [p for p in ToscaValidator().check(service)
                    if p.startswith("requirement cycle")]
        assert len(problems) == len(list(nx.simple_cycles(graph)))
        if len(problems) == 1:
            cycle = [u for u, _ in nx.find_cycle(graph)]
            chain = " -> ".join(cycle + cycle[:1])
            assert problems == [f"requirement cycle: {chain}"]


def test_every_module_imports_without_networkx():
    """The runtime needs no networkx: with its import blocked, every
    module of the package still imports, and each one imports as the
    first ``repro`` module of a process (every ``repro`` entry is
    dropped from ``sys.modules`` before each import, so an import cycle
    that only some entry points close cannot hide behind walk order)."""
    probe = (
        "import importlib, json, pkgutil, sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "names = [m.name for m in pkgutil.walk_packages(repro.__path__,"
        " 'repro.') if not m.name.endswith('__main__')]\n"
        "failed = []\n"
        "for name in names:\n"
        "    for loaded in [m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.')]:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except ImportError as exc:\n"
        "        failed.append(f'{name}: {exc}')\n"
        "print(json.dumps([len(names), failed]))\n")
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    count, failed = json.loads(done.stdout)
    assert failed == []
    assert count > 100
