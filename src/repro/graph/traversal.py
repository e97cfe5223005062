"""Graph traversal utilities: BFS/Dijkstra distances, balls, reachability.

Shared by the workload samplers, the baselines, and available to library
users for pre/post-processing around connection search (e.g. checking how
far apart the seeds of a CTP are before deciding on a ``MAX`` filter).

All functions take a ``direction``:

* ``"both"`` — undirected traversal (the CTP default, requirement R3);
* ``"out"`` — follow edge directions (the UNI/baseline regime);
* ``"in"`` — against edge directions (useful to reach a target set).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graph.graph import Graph

_DIRECTIONS = ("both", "out", "in")


def _check_direction(direction: str) -> None:
    if direction not in _DIRECTIONS:
        raise GraphError(f"unknown direction {direction!r}; use one of {_DIRECTIONS}")


def _follow(outgoing: bool, direction: str) -> bool:
    if direction == "both":
        return True
    if direction == "out":
        return outgoing
    return not outgoing


def bfs_distances(
    graph: Graph,
    sources: Iterable[int],
    direction: str = "both",
    max_hops: Optional[int] = None,
    labels: Optional[Iterable[str]] = None,
) -> Dict[int, int]:
    """Hop distance from the nearest source to every reachable node.

    Only edges whose label is in ``labels`` are followed (all when
    ``None``).  With ``max_hops`` this is the bounded BFS behind ``MAX k``:
    the CTP engines prune with it and the cross-CTP memo vets carried
    entries with it.
    """
    _check_direction(direction)
    distances: Dict[int, int] = {}
    queue = deque()
    for source in sources:
        graph.node(source)
        if source not in distances:
            distances[source] = 0
            queue.append(source)
    if labels is None and direction == "both" and getattr(graph, "frozen", False):
        # CSR fast path: the frozen backend caches the distinct-neighbor
        # tuple per node, so an undirected BFS never touches edge records.
        while queue:
            node = queue.popleft()
            depth = distances[node]
            if max_hops is not None and depth >= max_hops:
                continue
            for other in graph.neighbor_ids(node):
                if other not in distances:
                    distances[other] = depth + 1
                    queue.append(other)
        return distances
    while queue:
        node = queue.popleft()
        depth = distances[node]
        if max_hops is not None and depth >= max_hops:
            continue
        for _, other, outgoing in graph.adjacent_filtered(node, labels):
            if other not in distances and _follow(outgoing, direction):
                distances[other] = depth + 1
                queue.append(other)
    return distances


def dijkstra_distances(
    graph: Graph,
    sources: Iterable[int],
    direction: str = "both",
) -> Dict[int, float]:
    """Weighted distance from the nearest source to every reachable node."""
    _check_direction(direction)
    distances: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = []
    for source in sources:
        graph.node(source)
        distances[source] = 0.0
        heap.append((0.0, source))
    heapq.heapify(heap)
    while heap:
        distance, node = heapq.heappop(heap)
        if distance > distances.get(node, float("inf")):
            continue
        for edge_id, other, outgoing in graph.adjacent(node):
            if not _follow(outgoing, direction):
                continue
            candidate = distance + graph.edge_weight(edge_id)
            if candidate < distances.get(other, float("inf")):
                distances[other] = candidate
                heapq.heappush(heap, (candidate, other))
    return distances


def reachable_set(graph: Graph, source: int, direction: str = "both") -> Set[int]:
    """All nodes reachable from ``source``."""
    return set(bfs_distances(graph, [source], direction))


def ball(graph: Graph, center: int, radius: int, direction: str = "both") -> List[int]:
    """Nodes within ``radius`` hops of ``center``, in BFS order."""
    distances = bfs_distances(graph, [center], direction, max_hops=radius)
    return sorted(distances, key=lambda node: (distances[node], node))


def eccentricity_between(graph: Graph, seed_sets: Iterable[Iterable[int]], direction: str = "both") -> Optional[int]:
    """The largest pairwise nearest-seed distance between the seed sets.

    A cheap a-priori bound on the size of the smallest connecting tree:
    if the sets are far apart, a CTP with a small ``MAX`` filter cannot
    have results.  ``None`` when some pair of sets is disconnected.
    """
    seed_sets = [list(s) for s in seed_sets]
    worst = 0
    for index, seeds in enumerate(seed_sets):
        distances = bfs_distances(graph, seeds, direction)
        for other_index, other_seeds in enumerate(seed_sets):
            if other_index == index:
                continue
            best = min((distances.get(node) for node in other_seeds if node in distances), default=None)
            if best is None:
                return None
            worst = max(worst, best)
    return worst
