"""Tests for graph traversal utilities."""

import pytest

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.traversal import (
    ball,
    bfs_distances,
    dijkstra_distances,
    eccentricity_between,
    reachable_set,
)
from repro.workloads.synthetic import line_graph, star_graph


@pytest.fixture
def directed_path():
    g = Graph()
    nodes = [g.add_node(str(i)) for i in range(4)]
    for i in range(3):
        g.add_edge(nodes[i], nodes[i + 1], "e", weight=float(i + 1))
    return g


class TestBFS:
    def test_undirected(self, directed_path):
        distances = bfs_distances(directed_path, [0])
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_out_direction(self, directed_path):
        assert bfs_distances(directed_path, [3], "out") == {3: 0}
        assert bfs_distances(directed_path, [0], "out") == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_in_direction(self, directed_path):
        assert bfs_distances(directed_path, [3], "in") == {3: 0, 2: 1, 1: 2, 0: 3}

    def test_multi_source(self, directed_path):
        distances = bfs_distances(directed_path, [0, 3])
        assert distances[1] == 1 and distances[2] == 1

    def test_max_hops(self, directed_path):
        distances = bfs_distances(directed_path, [0], max_hops=1)
        assert set(distances) == {0, 1}

    @pytest.mark.parametrize("frozen", [False, True])
    def test_labels_admit_edges(self, frozen):
        # 0 -a- 1 -b- 2, and a longer all-a detour 0 -a- 3 -a- 4 -a- 2.
        g = Graph()
        nodes = [g.add_node(str(i)) for i in range(5)]
        for source, target, label in ((0, 1, "a"), (1, 2, "b"), (0, 3, "a"), (3, 4, "a"), (4, 2, "a")):
            g.add_edge(nodes[source], nodes[target], label)
        view = g.freeze() if frozen else g
        assert bfs_distances(view, [0])[2] == 2
        assert bfs_distances(view, [0], labels=frozenset({"a"})) == {0: 0, 1: 1, 3: 1, 4: 2, 2: 3}
        assert bfs_distances(view, [0], max_hops=2, labels=frozenset({"b"})) == {0: 0}
        assert bfs_distances(view, [2], "in", labels=frozenset({"b"})) == {2: 0, 1: 1}

    def test_unknown_direction(self, directed_path):
        with pytest.raises(GraphError):
            bfs_distances(directed_path, [0], "sideways")

    def test_unknown_source(self, directed_path):
        with pytest.raises(GraphError):
            bfs_distances(directed_path, [99])


class TestDijkstra:
    def test_weights(self, directed_path):
        distances = dijkstra_distances(directed_path, [0])
        assert distances == {0: 0.0, 1: 1.0, 2: 3.0, 3: 6.0}

    def test_prefers_light_detour(self):
        g = Graph()
        a, b, c = g.add_node("a"), g.add_node("b"), g.add_node("c")
        g.add_edge(a, b, weight=10.0)
        g.add_edge(a, c, weight=1.0)
        g.add_edge(c, b, weight=1.0)
        assert dijkstra_distances(g, [a])[b] == 2.0

    def test_directed(self, directed_path):
        assert dijkstra_distances(directed_path, [3], "out") == {3: 0.0}


class TestReachabilityHelpers:
    def test_reachable_set(self, directed_path):
        assert reachable_set(directed_path, 0) == {0, 1, 2, 3}
        assert reachable_set(directed_path, 3, "out") == {3}

    def test_ball_ordering(self):
        graph, _ = star_graph(3, 2)
        center_ball = ball(graph, 0, 1)
        assert center_ball[0] == 0
        assert len(center_ball) == 4  # center + 3 first arm nodes

    def test_ball_radius_zero(self, directed_path):
        assert ball(directed_path, 2, 0) == [2]


class TestEccentricity:
    def test_line(self):
        graph, seeds = line_graph(3, 2)
        # consecutive seeds are 3 edges apart; extremes are 6 apart, but
        # eccentricity uses nearest-seed distances per set pair
        assert eccentricity_between(graph, seeds) == 6

    def test_disconnected(self):
        g = Graph()
        a, b = g.add_node("a"), g.add_node("b")
        assert eccentricity_between(g, [[a], [b]]) is None

    def test_same_set_distance_ignored(self):
        g = Graph()
        a, b = g.add_node("a"), g.add_node("b")
        g.add_edge(a, b)
        assert eccentricity_between(g, [[a], [b]]) == 1
