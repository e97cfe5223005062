"""DPBF — exact minimum-cost group Steiner trees [Ding et al., ICDE 2007].

DPBF runs a best-first dynamic program over states ``(v, X)``: the cheapest
tree rooted at node ``v`` covering the subset ``X`` of seed sets.  Two
transitions generate new states:

* *edge growth*: ``(v, X)`` plus an edge ``v - u`` gives ``(u, X)``;
* *tree merge*: ``(v, X1)`` and ``(v, X2)`` with ``X1 ∩ X2 = ∅`` give
  ``(v, X1 | X2)``.

The first time a state ``(v, FULL)`` is popped from the priority queue its
tree is optimal.  The paper cites DPBF as the engine under LANCET [40] and
the reference point QGSTP improved on; we use it both as a baseline and as
a test oracle: with unit weights its optimum must equal the size of the
smallest result found by the complete algorithms (BFT/GAM/MoLESP for
m <= 3).

Unlike the paper's CTP semantics, DPBF returns a single best tree and
depends on the cost function — precisely the limitations (R2)/(R4) the
paper's algorithms remove.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro._util import Deadline, full_mask
from repro.ctp.engine import normalize_seed_sets
from repro.ctp.idremap import IdRemap
from repro.ctp.results import ResultTree
from repro.errors import SearchError
from repro.graph.graph import Graph


def dpbf_optimal_tree(
    graph: Graph,
    seed_sets: Sequence[Sequence[int]],
    uni: bool = False,
    timeout: Optional[float] = None,
) -> Optional[ResultTree]:
    """The minimum-total-edge-weight connecting tree, or ``None``.

    ``uni=True`` restricts growth to reverse-directed edges so the returned
    tree is an arborescence rooted at the DP root (matching the ``UNI``
    filter semantics: the root reaches every seed along edge directions).

    The DP's ``best``/``parent``/``settled`` maps are keyed by packed
    small ints ``(compact(v) << m) | X`` through a search-local
    :class:`~repro.ctp.idremap.IdRemap` instead of ``(v, X)`` tuples — the
    same dense-identity discipline as the search engines (tuple keys cost
    ~72 bytes each and a tuple hash per probe, which dominates DPBF's
    footprint on large graphs).
    """
    normalized, wildcard = normalize_seed_sets(graph, seed_sets)
    if wildcard:
        raise SearchError("DPBF does not support wildcard seed sets")
    explicit: List[Tuple[int, ...]] = [s for s in normalized if s is not None]
    if any(not s for s in explicit):
        return None
    m = len(explicit)
    full = full_mask(m)
    deadline = Deadline(timeout)

    seed_mask: Dict[int, int] = {}
    for bit, nodes in enumerate(explicit):
        for node in nodes:
            seed_mask[node] = seed_mask.get(node, 0) | (1 << bit)

    # Packed state key: compact node index in the high bits, the m-bit
    # seed-coverage mask in the low bits.  Compact indexes are assigned in
    # first-touch order, which is deterministic for the fixed heap order.
    remap_index = IdRemap().index

    def state_key(node: int, mask: int) -> int:
        return (remap_index(node) << m) | mask

    # best[state_key(v, X)] = cost; provenance for tree reconstruction.
    best: Dict[int, float] = {}
    parent: Dict[int, Tuple[str, tuple]] = {}
    heap: List[Tuple[float, int, int, int]] = []
    counter = 0
    for node, mask in seed_mask.items():
        state = state_key(node, mask)
        best[state] = 0.0
        parent[state] = ("init", ())
        heapq.heappush(heap, (0.0, counter, node, mask))
        counter += 1

    # states by node, for merges
    settled_by_node: Dict[int, List[int]] = {}
    final_state: Optional[int] = None
    final_node: Optional[int] = None
    settled: set = set()
    while heap:
        if deadline.expired():
            return None
        cost, _, node, mask = heapq.heappop(heap)
        state = state_key(node, mask)
        if state in settled:
            continue
        settled.add(state)
        if mask == full:
            final_state = state
            final_node = node
            break
        settled_by_node.setdefault(node, []).append(mask)
        # edge growth
        for edge_id, other, outgoing in graph.adjacent(node):
            if uni and outgoing:
                # The DP root must *reach* the seeds: grow against edge
                # direction so paths run root -> ... -> seed.
                continue
            edge_weight = graph.edge_weight(edge_id)
            other_mask = mask | seed_mask.get(other, 0)
            other_state = state_key(other, other_mask)
            new_cost = cost + edge_weight
            if new_cost < best.get(other_state, float("inf")):
                best[other_state] = new_cost
                parent[other_state] = ("grow", (state, edge_id))
                heapq.heappush(heap, (new_cost, counter, other, other_mask))
                counter += 1
        # merges with settled sibling states at the same node
        for sibling_mask in settled_by_node.get(node, ()):
            if sibling_mask == mask or (sibling_mask & mask):
                continue
            sibling_state = state_key(node, sibling_mask)
            merged_mask = mask | sibling_mask
            merged_state = state_key(node, merged_mask)
            new_cost = cost + best[sibling_state]
            if new_cost < best.get(merged_state, float("inf")):
                best[merged_state] = new_cost
                parent[merged_state] = ("merge", (state, sibling_state))
                heapq.heappush(heap, (new_cost, counter, node, merged_mask))
                counter += 1
    if final_state is None:
        return None
    edges = _reconstruct(parent, final_state)
    nodes = set()
    for edge_id in edges:
        source, target = graph.edge_endpoints(edge_id)
        nodes.add(source)
        nodes.add(target)
    if not edges:
        nodes = {final_node}
    seeds: List[Optional[int]] = [None] * m
    for node in nodes:
        node_mask = seed_mask.get(node, 0)
        for bit in range(m):
            if node_mask & (1 << bit) and seeds[bit] is None:
                seeds[bit] = node
    weight = sum(graph.edge_weight(e) for e in edges)
    return ResultTree(edges=frozenset(edges), nodes=frozenset(nodes), seeds=tuple(seeds), weight=weight)


def _reconstruct(parent: Dict, state) -> set:
    """Collect the edge ids of a DP state's tree by unrolling provenance."""
    edges: set = set()
    stack = [state]
    while stack:
        current = stack.pop()
        kind, payload = parent[current]
        if kind == "init":
            continue
        if kind == "grow":
            previous, edge_id = payload
            edges.add(edge_id)
            stack.append(previous)
        else:  # merge
            left, right = payload
            stack.append(left)
            stack.append(right)
    return edges
