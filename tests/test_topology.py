import json

import numpy as np
import pytest

from oracles import floyd_warshall, hubs_eigen
from twinmdp.abstraction import TopologyFeaturizer
from twinmdp.errors import EmptyGraphNoEdges, EntityNotInGraph, MalformedRecord, UnknownEntity
from twinmdp.simulator import SimScenario, load_scenarios, save_scenarios
from twinmdp.topology import (
    graph_from_json,
    graph_to_json,
    hubs_scores,
    make_graph,
    shortest_distance,
)
from twinmdp.trajectories import Entity


def nodes_named(n):
    return [Entity(name=f"n{i}", etype="Pod") for i in range(n)]


def random_graph(n, n_edges, rng):
    nodes = nodes_named(n)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    picked = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
    edges_idx = [pairs[k] for k in picked]
    return nodes, edges_idx, make_graph(nodes, [(nodes[i], nodes[j]) for i, j in edges_idx])


class TestGraphConstruction:
    def test_self_loops_rejected(self):
        nodes = nodes_named(2)
        with pytest.raises(MalformedRecord):
            make_graph(nodes, [(nodes[0], nodes[0])])

    def test_edges_must_reference_nodes(self):
        nodes = nodes_named(2)
        stranger = Entity(name="x", etype="Pod")
        with pytest.raises(MalformedRecord):
            make_graph(nodes, [(nodes[0], stranger)])

    def test_round_trip(self):
        nodes = nodes_named(4)
        g = make_graph(nodes, [(nodes[0], nodes[1]), (nodes[1], nodes[2])])
        g2 = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
        assert set(g2.nodes) == set(g.nodes)
        assert g2.edges == g.edges

    def test_truncated_file_raises_malformed_record_naming_it(self, tmp_path):
        # a graph is stored inside its scenario's line of a scenarios file
        nodes = nodes_named(4)
        graph = make_graph(nodes, [(nodes[0], nodes[1])])
        path = tmp_path / "scenarios.jsonl"
        save_scenarios([SimScenario("s0", graph, nodes[0], (nodes[0], nodes[1]), nodes[1],
                                    0.1, 3)], path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(MalformedRecord, match="scenarios.jsonl"):
            load_scenarios(path)


class TestNeighbors:
    def test_matches_an_edge_scan_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            nodes, _, g = random_graph(n, int(rng.integers(0, n * (n - 1) + 1)), rng)
            for e in nodes:
                want = sorted({v for u, v in g.edges if u == e}
                              | {u for u, v in g.edges if v == e})
                assert g.neighbors(e) == want

    def test_unknown_entity_has_no_neighbors(self):
        nodes = nodes_named(2)
        g = make_graph(nodes, [(nodes[0], nodes[1])])
        assert g.neighbors(Entity(name="zz", etype="Pod")) == []

    def test_returned_list_is_the_callers(self):
        nodes = nodes_named(3)
        g = make_graph(nodes, [(nodes[0], nodes[1]), (nodes[2], nodes[0])])
        g.neighbors(nodes[0]).clear()
        assert g.neighbors(nodes[0]) == [nodes[1], nodes[2]]
        assert shortest_distance(g, nodes[2], nodes[1]) == 2


class TestShortestDistance:
    def test_distance_to_self_is_zero(self):
        nodes = nodes_named(3)
        g = make_graph(nodes, [(nodes[0], nodes[1])])
        assert shortest_distance(g, nodes[0], nodes[0]) == 0

    def test_isolated_nodes_unreachable(self):
        nodes = nodes_named(2)
        g = make_graph(nodes, [])
        assert shortest_distance(g, nodes[0], nodes[1]) is None

    def test_direction_matters(self):
        nodes = nodes_named(2)
        g = make_graph(nodes, [(nodes[0], nodes[1])])
        assert shortest_distance(g, nodes[0], nodes[1]) == 1
        assert shortest_distance(g, nodes[1], nodes[0]) is None

    def test_unknown_entity_raises(self):
        nodes = nodes_named(2)
        g = make_graph(nodes, [(nodes[0], nodes[1])])
        with pytest.raises(UnknownEntity):
            shortest_distance(g, Entity(name="zz", etype="Pod"), nodes[0])

    def test_matches_floyd_warshall_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            n_edges = int(rng.integers(0, n * (n - 1) + 1))
            nodes, edges_idx, g = random_graph(n, n_edges, rng)
            oracle = floyd_warshall(n, edges_idx)
            for i in range(n):
                for j in range(n):
                    got = shortest_distance(g, nodes[i], nodes[j])
                    want = None if np.isinf(oracle[i, j]) else int(oracle[i, j])
                    assert got == want

    def test_rows_match_floyd_warshall(self):
        # a featurizer row is the node's distances in node order, the sentinel
        # (by default the diameter + 1) where unreachable, then one sentinel
        # column for "no entity"
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            nodes, edges_idx, g = random_graph(n, int(rng.integers(0, 2 * n)), rng)
            oracle = floyd_warshall(n, edges_idx)
            feat = TopologyFeaturizer(g)
            assert feat.sentinel == oracle[np.isfinite(oracle)].max() + 1
            for i in range(n):
                want = [float(d) if np.isfinite(d) else feat.sentinel for d in oracle[i]]
                assert feat.rows[nodes[i]] == want + [feat.sentinel]
        with pytest.raises(EntityNotInGraph):
            feat.state_features(Entity(name="zz", etype="Pod"), {})

    def test_triangle_inequality_on_reachable_triples(self):
        rng = np.random.default_rng(7)
        nodes, _, g = random_graph(8, 14, rng)
        feat = TopologyFeaturizer(g)
        dist = {a: dict(zip(nodes, feat.rows[a])) for a in nodes}
        for a in nodes:
            for b in nodes:
                for c in nodes:
                    ab, bc, ac = dist[a][b], dist[b][c], dist[a][c]
                    if ab < feat.sentinel and bc < feat.sentinel:
                        assert ac < feat.sentinel and ac <= ab + bc

    def test_diameter_of_chain(self):
        nodes = nodes_named(5)
        g = make_graph(nodes, list(zip(nodes[:-1], nodes[1:])))
        assert TopologyFeaturizer(g).sentinel == 4 + 1


class TestHubsScores:
    def test_single_edge_forces_unit_hub(self):
        nodes = nodes_named(2)
        g = make_graph(nodes, [(nodes[0], nodes[1])])
        hubs = hubs_scores(g)
        assert hubs[nodes[0]] == pytest.approx(1.0)
        assert hubs[nodes[1]] == pytest.approx(0.0)

    def test_symmetric_sources_get_equal_hubs(self):
        nodes = nodes_named(4)
        u, w, x, y = nodes
        g = make_graph(nodes, [(u, x), (u, y), (w, x), (w, y)])
        hubs = hubs_scores(g)
        assert hubs[u] == pytest.approx(hubs[w], abs=1e-12)

    def test_requires_an_edge(self):
        g = make_graph(nodes_named(3), [])
        with pytest.raises(EmptyGraphNoEdges):
            hubs_scores(g)

    def test_matches_dense_eigen_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            n_edges = int(rng.integers(1, n * (n - 1)))
            nodes, edges_idx, g = random_graph(n, n_edges, rng)
            hubs = hubs_scores(g, max_iter=5000, tol=1e-14)
            got = np.array([hubs[e] for e in nodes])
            want = hubs_eigen(n, edges_idx)
            assert np.linalg.norm(got - want) < 1e-8

    def test_unit_norm_and_nonnegative(self):
        rng = np.random.default_rng(11)
        nodes, _, g = random_graph(6, 10, rng)
        hubs = hubs_scores(g)
        vec = np.array(list(hubs.values()))
        assert np.all(vec >= 0)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_ranking_invariant_under_relabeling(self):
        rng = np.random.default_rng(5)
        nodes, edges_idx, g = random_graph(6, 9, rng)
        renamed = [Entity(name=f"zz{i}", etype="Service") for i in range(6)]
        g2 = make_graph(renamed, [(renamed[i], renamed[j]) for i, j in edges_idx])
        h1 = hubs_scores(g)
        h2 = hubs_scores(g2)
        order1 = np.argsort([h1[e] for e in nodes])
        order2 = np.argsort([h2[e] for e in renamed])
        assert list(order1) == list(order2)
