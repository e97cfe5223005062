"""Graph substrate: the data model of Definition 2.1.

A :class:`~repro.graph.graph.Graph` is a directed multigraph whose nodes and
edges carry a label, optional types, and arbitrary properties.  Connection
search (Section 4 of the paper) traverses edges in **both** directions, so
adjacency is indexed bidirectionally.
"""

from repro.graph.graph import Edge, Graph, Node
from repro.graph.backend import CSRGraph, GraphBackend, freeze
from repro.graph.builder import GraphBuilder, graph_from_triples
from repro.graph.delta import GraphDelta, OverlayGraph
from repro.graph.io import load_graph_json, load_graph_tsv, save_graph_json, save_graph_tsv
from repro.graph.snapshot import ensure_snapshot, load_snapshot, save_snapshot
from repro.graph.stats import GraphStats, connected_components, graph_stats
from repro.graph.traversal import (
    ball,
    bfs_distances,
    dijkstra_distances,
    eccentricity_between,
    reachable_set,
)

__all__ = [
    "CSRGraph",
    "Edge",
    "Graph",
    "GraphBackend",
    "GraphBuilder",
    "GraphDelta",
    "GraphStats",
    "Node",
    "OverlayGraph",
    "ball",
    "freeze",
    "bfs_distances",
    "connected_components",
    "dijkstra_distances",
    "eccentricity_between",
    "ensure_snapshot",
    "graph_from_triples",
    "graph_stats",
    "load_graph_json",
    "load_graph_tsv",
    "load_snapshot",
    "reachable_set",
    "save_graph_json",
    "save_graph_tsv",
    "save_snapshot",
]
