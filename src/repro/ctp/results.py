"""CTP results (Definition 2.8) and their validation.

A set-based CTP result is a tuple ``(s1, ..., sm, t)``: one seed per seed
set plus the minimal connecting subtree.  The root a search algorithm
happened to use is *not* part of the result (Section 4.4), so results are
identified — and deduplicated — by their edge set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.ctp.stats import SearchStats
from repro.graph.graph import Graph


@dataclass(frozen=True)
class ResultTree:
    """One CTP result: the connecting tree plus its per-set seeds.

    ``seeds[i]`` is the node matched for seed set ``i`` (``None`` for a
    wildcard set, whose match is any tree node — Section 4.9).  ``score`` is
    filled when the search ran with a ``SCORE`` filter.
    """

    edges: FrozenSet[int]
    nodes: FrozenSet[int]
    seeds: Tuple[Optional[int], ...]
    weight: float = 0.0
    score: Optional[float] = None

    @property
    def size(self) -> int:
        return len(self.edges)

    def describe(self, graph: Graph) -> str:
        seed_labels = ", ".join("*" if s is None else (graph.node(s).label or str(s)) for s in self.seeds)
        return f"[{seed_labels}] {graph.describe_tree(self.edges)}"


@dataclass
class CTPResultSet:
    """All results of one CTP evaluation, with provenance statistics.

    ``complete`` is ``True`` when the search space was exhausted — i.e. no
    timeout, LIMIT, or memory valve cut the exploration short.  Note that
    an exhausted search by an *incomplete algorithm* (e.g. ESP) still sets
    ``complete=True``: the flag describes the run, not the guarantee.
    """

    results: List[ResultTree]
    stats: SearchStats
    complete: bool
    timed_out: bool = False
    algorithm: str = ""

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def edge_sets(self) -> FrozenSet[FrozenSet[int]]:
        """The results as a set of edge sets (order-independent identity)."""
        return frozenset(result.edges for result in self.results)

    def best(self) -> Optional[ResultTree]:
        """Highest-scored result (falls back to smallest when unscored)."""
        if not self.results:
            return None
        if all(result.score is not None for result in self.results):
            return max(self.results, key=lambda r: r.score)
        return min(self.results, key=lambda r: r.size)

    def sorted_by_score(self) -> List[ResultTree]:
        return sorted(self.results, key=lambda r: (-(r.score or 0.0), r.size))


def materialize_seeds(
    num_positions: int,
    explicit_positions: Sequence[int],
    seed_mask: Dict[int, int],
    nodes: FrozenSet[int],
    sat: int,
    wildcard_positions: Sequence[int] = (),
    root: Optional[int] = None,
) -> Tuple[Optional[int], ...]:
    """The per-position seed tuple of a covering tree (Definition 2.8).

    Shared by the GAM-family and BFT reporters: walks the tree's (global-id)
    node set and assigns, for every sat bit the tree realizes, the matching
    node to that seed set's original query position.  Wildcard positions are
    bound to ``root`` — the tree's only possibly-non-seed leaf (Section
    4.9).  Iterates ``nodes`` in its native order: the recorded goldens
    pin the seed tuples that order produces.
    """
    seeds: List[Optional[int]] = [None] * num_positions
    for position in wildcard_positions:
        seeds[position] = root
    num_bits = len(explicit_positions)
    for node in nodes:
        mask = seed_mask.get(node, 0) & sat
        if mask:
            for bit in range(num_bits):
                if mask & (1 << bit):
                    seeds[explicit_positions[bit]] = node
    return tuple(seeds)


def tree_leaves(graph: Graph, edges: FrozenSet[int]) -> List[int]:
    """Nodes adjacent to exactly one edge of ``edges`` (Observation 1)."""
    edge_endpoints = graph.edge_endpoints
    degree: Dict[int, int] = {}
    for edge_id in edges:
        source, target = edge_endpoints(edge_id)
        degree[source] = degree.get(source, 0) + 1
        degree[target] = degree.get(target, 0) + 1
    return [node for node, d in degree.items() if d == 1]


def is_tree(graph: Graph, edges: FrozenSet[int]) -> bool:
    """True when ``edges`` form a connected acyclic subgraph."""
    if not edges:
        return True
    edge_endpoints = graph.edge_endpoints
    nodes = set()
    for edge_id in edges:
        source, target = edge_endpoints(edge_id)
        nodes.add(source)
        nodes.add(target)
    if len(nodes) != len(edges) + 1:
        return False
    # connectivity by union-find
    parent = {node: node for node in nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(nodes)
    for edge_id in edges:
        source, target = edge_endpoints(edge_id)
        ra, rb = find(source), find(target)
        if ra == rb:
            return False
        parent[ra] = rb
        components -= 1
    return components == 1


def validate_result(
    graph: Graph,
    result: ResultTree,
    seed_sets: Sequence[Sequence[int]],
    wildcard_positions: Sequence[int] = (),
) -> List[str]:
    """Check a result against Definition 2.8; return a list of violations.

    Verifies: the edge set is a tree; it contains exactly one node per
    (non-wildcard) seed set; every leaf is a seed (minimality — Observation
    1); and the recorded per-set seeds are consistent.
    An empty list means the result is valid.
    """
    problems: List[str] = []
    if not is_tree(graph, result.edges):
        problems.append("edge set is not a tree")
        return problems
    wildcard = set(wildcard_positions)
    seed_membership: Dict[int, List[int]] = {}
    for index, seed_set in enumerate(seed_sets):
        if index in wildcard:
            continue
        for node in seed_set:
            seed_membership.setdefault(node, []).append(index)
    all_seed_nodes = set(seed_membership)
    for index, seed_set in enumerate(seed_sets):
        if index in wildcard:
            continue
        matched = result.nodes & set(seed_set)
        if len(matched) != 1:
            problems.append(f"seed set {index}: expected exactly 1 node in tree, found {len(matched)}")
        elif result.seeds[index] not in matched:
            problems.append(f"seed set {index}: recorded seed {result.seeds[index]} not the matched node")
    if result.edges:
        non_seed_leaves = [leaf for leaf in tree_leaves(graph, result.edges) if leaf not in all_seed_nodes]
        # With wildcard (N) seed sets, each non-seed leaf may serve as the
        # bound match of one wildcard set (Section 4.9); otherwise every
        # leaf must be a seed (Observation 1).
        if len(non_seed_leaves) > len(wildcard):
            for leaf in non_seed_leaves[len(wildcard):]:
                problems.append(f"non-seed leaf {leaf}: tree is not minimal")
    return problems
