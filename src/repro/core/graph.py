"""The graph algorithms the program uses, on plain insertion-ordered dicts.

A directed graph is a mapping ``{node: successors}`` whose successors
are an iterable of nodes (a list, or a dict keyed by successor); an
undirected one is the same mapping with every edge listed at both
ends. Every successor must itself be a key and appear once per node.
Node order is key order and edge order is successor order. Each
function fixes the order of its answer by them, the way networkx does
for a graph built in the same order, because task order, routes and
findings that depend on it are pinned byte for byte; the tests hold
each function to networkx.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Hashable, Iterable, Mapping

Adjacency = Mapping[Hashable, Iterable[Hashable]]


def topological_sort(succ: Adjacency) -> list:
    """Kahn order, as ``networkx.topological_sort`` yields it.

    First the nodes with no predecessor, in node order; then each node
    in the order its last predecessor is removed, scanning finished
    nodes in order and their successors in edge order. Raises
    :class:`ValueError` if the graph has a cycle.
    """
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for node in targets:
            indegree[node] += 1
    order = [node for node, degree in indegree.items() if degree == 0]
    for node in order:  # grows while it is scanned: a FIFO queue
        for child in succ[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(child)
    if len(order) < len(indegree):
        raise ValueError("graph has a cycle")
    return order


def reachable(adj: Adjacency, source: Hashable) -> set:
    """Every node reachable from *source*, *source* included."""
    seen = {source}
    todo = [source]
    while todo:
        for node in adj[todo.pop()]:
            if node not in seen:
                seen.add(node)
                todo.append(node)
    return seen


def is_connected(nodes: Iterable[Hashable],
                 edges: Iterable[tuple[Hashable, Hashable]]) -> bool:
    """Whether the undirected graph of *nodes* and *edges* is connected
    (false for no nodes)."""
    adj: dict = {node: [] for node in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return bool(adj) and len(reachable(adj, next(iter(adj)))) == len(adj)


def dijkstra_paths(adj: Mapping[Hashable, Mapping[Hashable, float]],
                   source: Hashable) -> dict:
    """Lowest-weight path from *source* to every reachable node, as
    ``networkx.single_source_dijkstra_path`` finds it.

    *adj* maps each node to ``{neighbour: non-negative weight}``. Ties
    break as in networkx: the heap orders ``(distance, push count,
    node)``, neighbours are relaxed in adjacency order and a path is
    replaced only by a strictly shorter one. The table includes
    ``source: [source]``.
    """
    paths = {source: [source]}
    best = {source: 0}
    done = set()
    push = itertools.count()
    fringe = [(0, next(push), source)]
    while fringe:
        dist, _, node = heappop(fringe)
        if node in done:
            continue
        done.add(node)
        for neighbour, weight in adj[node].items():
            if neighbour in done:
                continue
            candidate = dist + weight
            if neighbour not in best or candidate < best[neighbour]:
                best[neighbour] = candidate
                heappush(fringe, (candidate, next(push), neighbour))
                paths[neighbour] = paths[node] + [neighbour]
    return paths


def _preorder(succ: Adjacency) -> dict:
    """Depth-first discovery rank of every node, roots in node order."""
    rank: dict = {}
    for root in succ:
        stack = [root]
        while stack:
            node = stack.pop()
            if node not in rank:
                rank[node] = len(rank)
                stack.extend(reversed(list(succ[node])))
    return rank


def simple_cycles(succ: Adjacency) -> list[list]:
    """Every elementary cycle, each once, as the list of its nodes.

    Each cycle starts at the member a depth-first search from the nodes
    in node order reaches first, which is where ``networkx.find_cycle``
    starts the cycle it returns; cycles come in the order of those first
    members. The answer depends only on the graph's orders, never on
    hashing. A self-loop is the cycle ``[node]``.
    """
    rank = _preorder(succ)
    pred: dict = {node: [] for node in succ}
    for node, targets in succ.items():
        for target in targets:
            pred[target].append(node)
    cycles = []
    for start in rank:
        # Search only nodes discovered after start that can reach it.
        back = reachable({node: [p for p in sources if rank[p] > rank[start]]
                          for node, sources in pred.items()}, start)
        path = [start]
        stack = [iter(succ[start])]
        while stack:
            for node in stack[-1]:
                if node == start:
                    cycles.append(list(path))
                elif node in back and node not in path:
                    path.append(node)
                    stack.append(iter(succ[node]))
                    break
            else:
                stack.pop()
                path.pop()
    return cycles
