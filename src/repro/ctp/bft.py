"""The breadth-first baselines: BFT, BFT-M, BFT-AM (Sections 4.1 and 4.3).

BFT views a tree as a plain set of edges (no root).  Starting from one-node
trees on every seed, each generation grows every tree with every edge
adjacent to *any* of its nodes (conditions Grow1/Grow2).  When a tree covers
all seed sets it must be **minimized** — non-seed leaf branches stripped —
before being reported, because growth from arbitrary nodes adds edges that
later turn out useless; this minimization (and the much larger number of
ways to build the same tree) is what makes the BFT family slow (Figure 10).

``BFT-M`` additionally merges every grown tree once with all compatible
partners; ``BFT-AM`` merges aggressively (cascading).  All three variants
are complete; all three need result minimization.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro._util import Deadline, full_mask
from repro.ctp.config import DEFAULT_CONFIG, SearchConfig
from repro.ctp.engine import _StopSearch, normalize_seed_sets
from repro.ctp.context import SearchContext, adopt_pool, pool_stats_delta
from repro.ctp.idremap import IdRemap
from repro.ctp.results import CTPResultSet, ResultTree, materialize_seeds
from repro.ctp.stats import SearchStats
from repro.errors import SearchError
from repro.graph.graph import Graph


class _BFTTree:
    """An unrooted candidate tree: edge set, node set, seed coverage.

    ``eset`` is the edge set's pool handle (:mod:`repro.ctp.interning`) —
    BFT's ``memory`` is by far the biggest history structure in the paper's
    experiments (Figure 10), so O(1) membership matters most here.
    ``node_mask`` is the exact node bitmask used for the Merge1 analogue.
    """

    __slots__ = ("pool", "eset", "nodes", "node_mask", "sat", "weight")

    def __init__(self, pool, eset, nodes: FrozenSet[int], node_mask: int, sat: int, weight: float):
        self.pool = pool
        self.eset = eset
        self.nodes = nodes
        self.node_mask = node_mask
        self.sat = sat
        self.weight = weight

    @property
    def edges(self) -> FrozenSet[int]:
        return self.pool.edges(self.eset)

    @property
    def size(self) -> int:
        return self.pool.size(self.eset)


class BFTSearch:
    """Breadth-first CTP search (complete, needs result minimization).

    Shares the GAM engines' concurrency contract: per-call state lives in
    :class:`_BFTRun`, only the adopted pool is shared, so concurrent runs
    over one thread-safe context produce serial-identical results.
    """

    name = "bft"
    #: "none" (plain BFT), "merge" (BFT-M), "aggressive" (BFT-AM).
    merge_mode = "none"

    def run(
        self,
        graph: Graph,
        seed_sets: Sequence,
        config: Optional[SearchConfig] = None,
        context: Optional[SearchContext] = None,
    ) -> CTPResultSet:
        run = _BFTRun(graph, seed_sets, config or DEFAULT_CONFIG, self, context)
        return run.execute()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BFTMSearch(BFTSearch):
    """BFT + one level of Merge on each grown tree (Section 4.3)."""

    name = "bft-m"
    merge_mode = "merge"


class BFTAMSearch(BFTSearch):
    """BFT + aggressive (cascading) Merge (Section 4.3)."""

    name = "bft-am"
    merge_mode = "aggressive"


class _BFTRun:
    def __init__(
        self,
        graph: Graph,
        seed_sets: Sequence,
        config: SearchConfig,
        algo: BFTSearch,
        context: Optional[SearchContext] = None,
    ):
        self.graph = graph
        self.config = config
        self.algo = algo
        self.stats = SearchStats()
        normalized, self.wildcard_positions = normalize_seed_sets(graph, seed_sets)
        if self.wildcard_positions:
            raise SearchError(
                "the BFT baselines do not support N (wildcard) seed sets; "
                "use a GAM-family algorithm (Section 4.9)"
            )
        self.positions = normalized
        self.explicit_positions = [p for p, s in enumerate(normalized) if s is not None]
        self.explicit_sets: List[Tuple[int, ...]] = [normalized[p] for p in self.explicit_positions]
        self.full_sat = full_mask(len(self.explicit_sets))
        self.seed_mask: Dict[int, int] = {}
        for bit, nodes in enumerate(self.explicit_sets):
            for node in nodes:
                self.seed_mask[node] = self.seed_mask.get(node, 0) | (1 << bit)
        # Query-scoped pool sharing (see _GAMRun): BFT trees are unrooted,
        # so only the pool is adopted, not the rooted-result cache.
        self.pool, _, self._pool_baseline = adopt_pool(context, graph)
        # Dense per-search node identity (repro.ctp.idremap): BFT's merge
        # also needs the inverse (mask bit -> global node) to recover the
        # shared node.
        self.remap = IdRemap()
        self.memory: Set = set()  # every tree ever built (edge-set handles)
        self.trees_containing: Dict[int, List[_BFTTree]] = {}
        self.queue: deque = deque()
        self.result_keys: Set[FrozenSet[int]] = set()
        self.results: List[ResultTree] = []
        self.deadline = Deadline(config.timeout)
        self.timed_out = False

    # ------------------------------------------------------------------
    def execute(self) -> CTPResultSet:
        complete = True
        try:
            self._init_trees()
            self._main_loop()
        except _StopSearch as stop:
            complete = False
            self.timed_out = stop.timed_out
        self.stats.elapsed_seconds = self.deadline.elapsed()
        pool_stats_delta(self.stats, self.pool, self._pool_baseline)
        results = self.results
        if self.config.top_k is not None and len(results) > self.config.top_k:
            results = sorted(results, key=lambda r: (-(r.score or 0.0), r.size))[: self.config.top_k]
        return CTPResultSet(results=results, stats=self.stats, complete=complete, timed_out=self.timed_out, algorithm=self.algo.name)

    def _init_trees(self) -> None:
        if any(not seed_set for seed_set in self.explicit_sets):
            return
        pool = self.pool
        remap_bit = self.remap.bit
        for node, mask in self.seed_mask.items():
            tree = _BFTTree(pool, pool.EMPTY, frozenset((node,)), remap_bit(node), mask, 0.0)
            self.stats.init_trees += 1
            self._process(tree, allow_merge=False)

    def _main_loop(self) -> None:
        graph = self.graph
        seed_mask = self.seed_mask
        labels = self.config.labels
        max_edges = self.config.max_edges
        pool = self.pool
        memory = self.memory
        stats = self.stats
        remap_bit = self.remap.bit
        allow_merge = self.algo.merge_mode != "none"
        while self.queue:
            if self.deadline.expired():
                raise _StopSearch(timed_out=True)
            tree = self.queue.popleft()
            if max_edges is not None and tree.size + 1 > max_edges:
                continue
            nodes = tree.nodes
            sat = tree.sat
            for node in nodes:
                for edge_id, other, _ in graph.adjacent_filtered(node, labels):
                    if other in nodes:  # Grow1
                        continue
                    other_mask = seed_mask.get(other, 0)
                    if other_mask & sat:  # Grow2
                        continue
                    stats.grows += 1
                    # History check before construction: a duplicate grow
                    # costs one handle lookup, no sets and no _BFTTree.
                    eset = pool.union1(tree.eset, edge_id)
                    if eset in memory:
                        continue
                    grown = _BFTTree(
                        pool,
                        eset,
                        nodes | {other},
                        tree.node_mask | remap_bit(other),
                        sat | other_mask,
                        tree.weight + graph.edge_weight(edge_id),
                    )
                    self._process(grown, allow_merge=allow_merge)

    # ------------------------------------------------------------------
    def _process(self, tree: _BFTTree, allow_merge: bool) -> None:
        """Register a candidate tree (already absent from ``memory``);
        report/minimize, queue, and merge."""
        self.memory.add(tree.eset)
        self.stats.trees_kept += 1
        if self.config.max_trees is not None and self.stats.trees_kept > self.config.max_trees:
            raise _StopSearch()
        if tree.sat == self.full_sat:
            self._report(tree)
            return
        self.queue.append(tree)
        if self.algo.merge_mode != "none" and tree.eset:
            for node in tree.nodes:
                self.trees_containing.setdefault(node, []).append(tree)
        if allow_merge and tree.eset:
            self._merge(tree, cascade=self.algo.merge_mode == "aggressive")

    def _merge(self, tree: _BFTTree, cascade: bool) -> None:
        """Merge ``tree`` with all compatible partners (one level or cascade)."""
        work = deque([tree])
        max_edges = self.config.max_edges
        while work:
            if self.deadline.expired():
                raise _StopSearch(timed_out=True)
            t1 = work.popleft()
            candidates: List[_BFTTree] = []
            seen_ids: Set[int] = set()
            for node in t1.nodes:
                for partner in self.trees_containing.get(node, ()):
                    if id(partner) not in seen_ids:
                        seen_ids.add(id(partner))
                        candidates.append(partner)
            t1_mask = t1.node_mask
            t1_size = t1.size
            for tp in candidates:
                if tp is t1 or not tp.eset:
                    continue
                self.stats.merges_attempted += 1
                common_mask = t1_mask & tp.node_mask
                # Merge1 analogue: share exactly one node — exact bitmask
                # popcount-1 test, no set intersection built.
                if not common_mask or common_mask & (common_mask - 1):
                    continue
                # The lone set bit names the shared node in the search's id
                # space; the remap inverse takes it back to the global id.
                shared = self.remap.node(common_mask.bit_length() - 1)
                if (t1.sat & tp.sat) & ~self.seed_mask.get(shared, 0):  # Merge2
                    continue
                if max_edges is not None and t1_size + tp.size > max_edges:
                    continue
                eset = self.pool.union2(t1.eset, tp.eset)
                if eset in self.memory:
                    self.stats.pruned_history += 1
                    continue
                merged = _BFTTree(
                    self.pool,
                    eset,
                    t1.nodes | tp.nodes,
                    t1_mask | tp.node_mask,
                    t1.sat | tp.sat,
                    t1.weight + tp.weight,
                )
                self.stats.merges += 1
                self.memory.add(eset)
                self.stats.trees_kept += 1
                if merged.sat == self.full_sat:
                    self._report(merged)
                    continue
                self.queue.append(merged)
                for node in merged.nodes:
                    self.trees_containing.setdefault(node, []).append(merged)
                if cascade:
                    work.append(merged)

    # ------------------------------------------------------------------
    def _report(self, tree: _BFTTree) -> None:
        """Minimize a covering tree (Section 4.1) and record the result."""
        edges, nodes, weight = self._minimize(tree)
        if edges in self.result_keys:
            self.stats.duplicate_results += 1
            return
        if self.config.uni and edges and not self._is_arborescence(edges, nodes):
            self.stats.pruned_filters += 1
            return
        self.result_keys.add(edges)
        seeds = materialize_seeds(
            len(self.positions),
            self.explicit_positions,
            self.seed_mask,
            nodes,
            tree.sat,
        )
        score = None
        if self.config.score is not None:
            score = self.config.score(self.graph, edges, nodes)
        self.results.append(ResultTree(edges=edges, nodes=nodes, seeds=seeds, weight=weight, score=score))
        self.stats.results_found += 1
        if self.config.limit is not None and self.stats.results_found >= self.config.limit:
            raise _StopSearch()

    def _minimize(self, tree: _BFTTree) -> Tuple[FrozenSet[int], FrozenSet[int], float]:
        """Strip non-seed leaf branches until every leaf is a seed."""
        graph = self.graph
        edge_endpoints = graph.edge_endpoints
        tree_edges = tree.edges  # materialize the interned set once
        incident: Dict[int, List[int]] = {node: [] for node in tree.nodes}
        for edge_id in tree_edges:
            source, target = edge_endpoints(edge_id)
            incident[source].append(edge_id)
            incident[target].append(edge_id)
        removed_edges: Set[int] = set()
        removed_nodes: Set[int] = set()
        candidates = deque(
            node for node, edge_list in incident.items() if len(edge_list) == 1 and node not in self.seed_mask
        )
        while candidates:
            leaf = candidates.popleft()
            if leaf in removed_nodes:
                continue
            live = [e for e in incident[leaf] if e not in removed_edges]
            if len(live) != 1:
                continue
            (edge_id,) = live
            removed_edges.add(edge_id)
            removed_nodes.add(leaf)
            source, target = edge_endpoints(edge_id)
            other = target if source == leaf else source
            other_live = [e for e in incident[other] if e not in removed_edges]
            if len(other_live) == 1 and other not in self.seed_mask:
                candidates.append(other)
        edges = frozenset(e for e in tree_edges if e not in removed_edges)
        nodes = frozenset(n for n in tree.nodes if n not in removed_nodes)
        weight = sum(graph.edge_weight(e) for e in edges)
        return edges, nodes, weight

    def _is_arborescence(self, edges: FrozenSet[int], nodes: FrozenSet[int]) -> bool:
        """UNI post-filter: one node reaches all others along edge directions."""
        edge_target = self.graph.edge_target
        in_deg = {node: 0 for node in nodes}
        for edge_id in edges:
            in_deg[edge_target(edge_id)] += 1
        roots = [node for node, d in in_deg.items() if d == 0]
        return len(roots) == 1 and all(d <= 1 for d in in_deg.values())
