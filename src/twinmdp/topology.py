"""Directed propagation graph: shortest-path distances and hub scores.

Edges point in the direction events propagate (cause -> effect). All
queries are deterministic; the graph is immutable after construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyGraphNoEdges, MalformedRecord, UnknownEntity
from .trajectories import Entity, entity_from_json, entity_to_json


@dataclass(frozen=True)
class TopologyGraph:
    nodes: tuple[Entity, ...]
    edges: frozenset[tuple[Entity, Entity]]

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise MalformedRecord("duplicate nodes in graph")
        node_set = set(self.nodes)
        for u, v in self.edges:
            if u == v:
                raise MalformedRecord(f"self-loop on {u}")
            if u not in node_set or v not in node_set:
                raise MalformedRecord(f"edge ({u}, {v}) references unknown node")

    @cached_property
    def _adjacency(self) -> tuple[dict, dict]:
        """Per node, its successors and its sorted undirected neighbours."""
        successors = {e: [] for e in self.nodes}
        undirected = {e: set() for e in self.nodes}
        for u, v in self.edges:
            successors[u].append(v)
            undirected[u].add(v)
            undirected[v].add(u)
        return successors, {e: sorted(nbrs) for e, nbrs in undirected.items()}

    def neighbors(self, e: Entity) -> list[Entity]:
        """Undirected neighborhood, deduplicated and sorted."""
        return list(self._adjacency[1].get(e, ()))


def make_graph(nodes, edges) -> TopologyGraph:
    return TopologyGraph(nodes=tuple(nodes), edges=frozenset(tuple(e) for e in edges))


def shortest_distance(g: TopologyGraph, src: Entity, dst: Entity) -> int | None:
    """Directed shortest-path length in edges, or None if unreachable."""
    dist = all_distances_from(g, src)
    if dst not in g._adjacency[0]:
        raise UnknownEntity(f"{dst} not in graph")
    return dist.get(dst)


def all_distances_from(g: TopologyGraph, src: Entity) -> dict[Entity, int]:
    """BFS distances from src to every reachable node (src included, 0)."""
    successors = g._adjacency[0]
    if src not in successors:
        raise UnknownEntity(f"{src} not in graph")
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in successors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def hubs_scores(
    g: TopologyGraph, max_iter: int = 100, tol: float = 1e-10
) -> dict[Entity, float]:
    """Hub scores of the HITS fixed point, unit Euclidean norm.

    Alternating power iteration a <- E^T h, h <- E a with L2 normalization,
    stopping once successive hub vectors differ by less than tol.
    """
    if not g.edges:
        raise EmptyGraphNoEdges("hub scores need at least one edge")
    nodes = list(g.nodes)
    index = {e: i for i, e in enumerate(nodes)}
    n = len(nodes)
    E = np.zeros((n, n))
    for u, v in g.edges:
        E[index[u], index[v]] = 1.0
    h = np.ones(n) / np.sqrt(n)
    for _ in range(max_iter):
        a = E.T @ h
        h_new = E @ a
        norm = np.linalg.norm(h_new)
        if norm == 0.0:
            break
        h_new /= norm
        if np.linalg.norm(h_new - h) < tol:
            h = h_new
            break
        h = h_new
    return {e: float(h[index[e]]) for e in nodes}


# --- file format --------------------------------------------------------------

def graph_to_json(g: TopologyGraph) -> dict:
    nodes = list(g.nodes)
    index = {e: i for i, e in enumerate(nodes)}
    return {
        "nodes": [entity_to_json(e) for e in nodes],
        "edges": sorted([index[u], index[v]] for u, v in g.edges),
    }


def graph_from_json(obj, entity=entity_from_json) -> TopologyGraph:
    nodes = [entity(e) for e in obj["nodes"]]
    edges = [(nodes[i], nodes[j]) for i, j in obj["edges"]]
    return make_graph(nodes, edges)
