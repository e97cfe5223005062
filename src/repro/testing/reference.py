"""The paper's CTP search algorithms as an executable specification.

A plain transcription of Sections 4.1-4.7 of the paper (Algorithms 1-5 in
arXiv 2208.04802): Grow, Merge, the Algorithm 4 history check, MergeAll,
Mo injection, and the BFT / BFT-M / BFT-AM loops.  Nothing here is fast.
Trees carry their edge and node sets as frozensets, built with the same
``|`` unions as :mod:`repro.ctp.tree`, so a Mo injection and a BFT Grow walk
a tree's nodes in the engine's order.  Histories are plain sets and dicts.
Each queue is a ``heapq`` list popped in ``(size, ticket)`` order, holding
one entry per legal Grow.

:func:`reference_search` runs one algorithm by its registry name and
returns an :class:`Outcome`: the rows in emission order, ``complete``, and
the search's work as eleven counters named as in
:class:`repro.ctp.stats.SearchStats`.  Each counter is counted at the
pseudo-code step that defines it:

* ``init_trees``: Algorithm 1's Init loop, one per seed node;
* ``grows``: one per Grow taken off the queue (Algorithm 1's main loop);
* ``queue_pushes``: one per tree queued for Grow: Algorithm 2 lines 9-13
  in the GAM family (see :meth:`_GAMSearch.file_grows` for the reading),
  BFT's FIFO queue of unfinished trees;
* ``merges``: one per tree Merge builds (Algorithm 5, and BFT-M / BFT-AM);
* ``mo_copies``: Algorithm 3 lines 2-5, one per re-rooted copy;
* ``pruned_history``: one per grown or merged tree that Algorithm 4
  (isNew), or BFT's memory of built edge sets, rejects;
* ``pruned_filters``: one per Grow or Merge that UNI rejects
  (Section 4.8), and one per covering tree that is not a result;
* ``duplicate_results``: one per result whose edge set was reported before;
* ``trees_kept``: Algorithm 2 (processTree), one per tree it registers;
* ``results_found`` and ``provenances`` (``trees_kept + mo_copies``, the
  Figure 11 metric).

``tests/test_reference_spec.py`` pins all eight engines of
:mod:`repro.ctp` to it, rows and counters alike, and so do
``tests/test_interning_equivalence.py`` (the seed implementation's cases,
under its ``max_trees`` valve) and ``tests/test_dense_ids.py`` (graphs
relabelled into node ids up to 10^9).  Counters of the engines'
own data structures, such as ``merges_attempted`` or ``pool_sets``, are
not the paper's, so the spec does not count them;
``tests/test_provenance_golden.py`` pins those.

Where the paper leaves a choice open, the reading this library takes is
written out at the place it acts, under ``Reading:``.  None of them is a
parameter: each is what the engines do, and ``SearchConfig`` selects the
two that the engines expose as ablations (``strict_merge2`` and
``mo_inject_always``).

Out of scope: wildcard seed sets (Section 4.9 (i)), the ``score`` filter
and callable queue orders raise :class:`NotImplementedError`.  The spec has
no clock, so ``timeout`` and ``deadline`` are not read.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter, deque
from dataclasses import dataclass, fields
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.ctp.config import WILDCARD, SearchConfig
from repro.graph.traversal import bfs_distances

#: GAM-family switches by algorithm name: (edge-set pruning, Mo trees, LESP
#: guard) — ESP is Section 4.4, MoESP 4.5, LESP 4.6 and MoLESP 4.7.
GAM_FAMILY = {
    "gam": (False, False, False),
    "esp": (True, False, False),
    "moesp": (True, True, False),
    "lesp": (True, False, True),
    "molesp": (True, True, True),
}

#: BFT-family Merge modes (Sections 4.1 and 4.3): none, one level, cascading.
BFT_FAMILY = {"bft": None, "bft-m": "once", "bft-am": "cascade"}

#: One row: the result's edge set, its seed per seed set, its weight.
Row = Tuple[FrozenSet[int], Tuple[int, ...], float]


@dataclass
class Outcome:
    """What the spec pins: the rows in emission order, whether the search
    ran out of work, and the counters of the work it did."""

    rows: List[Row]
    complete: bool
    init_trees: int
    grows: int
    queue_pushes: int
    merges: int
    mo_copies: int
    pruned_history: int
    pruned_filters: int
    duplicate_results: int
    trees_kept: int
    results_found: int
    provenances: int


#: The counters of an :class:`Outcome`, named as in ``SearchStats``.
COUNTERS = tuple(spec.name for spec in fields(Outcome))[2:]


@dataclass(frozen=True, eq=False)
class Tree:
    """A search tree (Definition 4.1); BFT's trees have no root.

    ``sat`` has bit i set when the tree holds a seed of set i
    (Observation 1).  ``mo`` marks a provenance with a Mo step, which
    disables Grow (Section 4.5).  ``path_seed`` is s when the tree is an
    (root, s)-rooted path (Definition 4.4).
    """

    root: Optional[int]
    edges: FrozenSet[int]
    nodes: FrozenSet[int]
    sat: int
    weight: float
    mo: bool = False
    path_seed: Optional[int] = None


class _Cut(Exception):
    """LIMIT or ``max_trees`` ended the search before it ran out of work."""


class _Search:
    """What both families share: seed sets, filters, the bound, the results."""

    def __init__(self, graph, seed_sets: Sequence, config: SearchConfig):
        if any(seed_set is WILDCARD for seed_set in seed_sets):
            raise NotImplementedError("wildcard seed sets (Section 4.9 (i)) are outside the spec")
        if config.score is not None or config.order != "size":
            raise NotImplementedError("the spec has the size order and no score filter")
        self.graph = graph
        self.config = config
        self.sets = [tuple(dict.fromkeys(seed_set)) for seed_set in seed_sets]
        #: node -> bitmask of the seed sets it belongs to.
        self.seed_mask: Dict[int, int] = {}
        for index, seed_set in enumerate(self.sets):
            for node in seed_set:
                self.seed_mask[node] = self.seed_mask.get(node, 0) | 1 << index
        self.full = (1 << len(self.sets)) - 1
        self.count: Counter = Counter()  # the Outcome counters, by name
        self.rows: List[Row] = []
        self.result_edges: Set[FrozenSet[int]] = set()
        self.distances: Optional[List[Dict[int, int]]] = None

    def use_distance_bound(self) -> None:
        """Reading: ``MAX k`` is also a distance bound.

        A tree of s edges lies inside a result of at most k edges only if,
        for every seed set, one of its nodes is within k - s hops of it.
        A supertree only adds edges, so no result is built from a tree that
        fails.  Not applied under LIMIT or ``max_trees``: they cut the search
        at a count that the dropped trees would add to.
        """
        k = self.config.max_edges
        if k and self.config.limit is None and self.config.max_trees is None:
            self.distances = [
                bfs_distances(self.graph, seed_set, max_hops=k - 1, labels=self.config.labels)
                for seed_set in self.sets
            ]

    def within(self, nodes: FrozenSet[int], size: int) -> bool:
        """Whether a tree of ``size`` edges on ``nodes`` passes the bound."""
        if self.distances is None:
            return True
        slack = self.config.max_edges - size
        return all(any(hops.get(node, slack + 1) <= slack for node in nodes) for hops in self.distances)

    def unidirectional(self, edges: FrozenSet[int]) -> bool:
        """UNI (Section 4.8): one node reaches every other along the edges.

        On a tree that holds exactly when no node has two incoming edges.
        """
        targets = [self.graph.edge_target(edge) for edge in edges]
        return len(set(targets)) == len(targets)

    def minimal(self, edges: FrozenSet[int]) -> bool:
        """Every leaf is a seed (Observation 1)."""
        degree: Dict[int, int] = {}
        for edge in edges:
            for node in self.graph.edge_endpoints(edge):
                degree[node] = degree.get(node, 0) + 1
        return all(node in self.seed_mask for node, count in degree.items() if count == 1)

    def count_kept(self) -> None:
        """Algorithm 2 (processTree) registers a tree; ``max_trees`` is the
        valve on this count."""
        self.count["trees_kept"] += 1
        if self.config.max_trees is not None and self.count["trees_kept"] > self.config.max_trees:
            raise _Cut

    def report(self, edges: FrozenSet[int], nodes: FrozenSet[int], weight: float) -> None:
        """Record a result (Definition 2.8), once per edge set (Section 4.4).

        Results are minimal.  Only ``mo_inject_always`` ever offers a tree
        that is not: a Mo copy of a tree whose root is a non-seed leaf can
        merge into a covering tree.  Under the Section 4.5 gain condition
        every Mo copy comes from a tree whose root is a seed or branches.
        """
        if not self.minimal(edges) or (self.config.uni and not self.unidirectional(edges)):
            self.count["pruned_filters"] += 1
            return
        if edges in self.result_edges:
            self.count["duplicate_results"] += 1
            return
        self.result_edges.add(edges)
        seeds = tuple(
            next(node for node in nodes if self.seed_mask.get(node, 0) >> index & 1) for index in range(len(self.sets))
        )
        self.rows.append((edges, seeds, weight))
        if self.config.limit is not None and len(self.rows) >= self.config.limit:
            raise _Cut


class _GAMSearch(_Search):
    """GAM (Section 4.2) and its ESP / Mo / LESP refinements (4.4-4.7)."""

    def __init__(self, graph, seed_sets, config, esp: bool, mo: bool, lesp: bool):
        super().__init__(graph, seed_sets, config)
        self.esp, self.mo, self.lesp = esp, mo, lesp
        self.hist: Set[FrozenSet[int]] = set()  # ESP's edge-set history
        self.rooted: Set[Tuple[int, FrozenSet[int]]] = set()  # rooted trees built
        self.ss: Dict[int, int] = {}  # seed signatures (Section 4.6)
        self.rooted_in: Dict[int, List[Tree]] = {}  # TreesRootedIn, in registration order
        self.queues: Dict[int, list] = {}
        self.ticket = itertools.count()
        # Section 4.9 (ii): one queue per seed-coverage signature when the
        # seed sets' sizes are skewed.
        balanced = config.balanced_queues
        if balanced == "auto":
            sizes = [len(seed_set) for seed_set in self.sets]
            balanced = min(sizes) > 0 and max(sizes) / min(sizes) >= config.balance_ratio
        self.balanced = balanced
        # Reading: the distance bound is also off where the search reads
        # what the dropped Grows would change: the balanced queues' fill
        # counts, and the seed signatures the LESP guard reads once three or
        # more seed sets make the guard able to fire.
        if not balanced and not (lesp and len(self.sets) >= 3):
            self.use_distance_bound()

    def search(self) -> None:
        """Algorithm 1."""
        if not all(self.sets):
            return  # an empty seed set has no embeddings, hence no results
        for node, mask in self.seed_mask.items():  # Init
            self.count["init_trees"] += 1
            self.ss[node] = self.ss.get(node, 0) | mask
            if self.is_new(node, frozenset()):
                tree = Tree(node, frozenset(), frozenset((node,)), mask, 0.0, path_seed=node)
                self.merge_all(self.process(tree, True))
        while True:
            entry = self.pop()
            if entry is None:
                return
            tree, edge, other = entry[2:]
            self.count["grows"] += 1
            edges = tree.edges | {edge}
            if self.config.uni and not self.unidirectional(edges):
                self.count["pruned_filters"] += 1
                continue
            # Reading: the seed signature of the new root is updated before
            # any pruning decision (Algorithm 1 line 10).
            path_seed = tree.path_seed if other not in self.seed_mask else None
            if path_seed is not None:
                self.ss[other] = self.ss.get(other, 0) | self.seed_mask[path_seed]
            if not self.is_new(other, edges):
                self.count["pruned_history"] += 1
                continue
            grown = Tree(
                other,
                edges,
                tree.nodes | {other},
                tree.sat | self.seed_mask.get(other, 0),
                tree.weight + self.graph.edge_weight(edge),
                path_seed=path_seed,
            )
            self.merge_all(self.process(grown, grown.sat != tree.sat))

    def pop(self) -> Optional[tuple]:
        """The next Grow.

        Reading: smallest tree first, FIFO among equal sizes (the paper's
        experimental order, Section 5.4).  Balanced queues (Section 4.9
        (ii)) take the least-filled non-empty queue; ties go to the smaller
        sat mask.
        """
        live = [(len(queue), key) for key, queue in self.queues.items() if queue]
        if not live:
            return None
        return heapq.heappop(self.queues[min(live)[1]])

    def file_grows(self, tree: Tree) -> None:
        """Algorithm 2 lines 9-13: queue every legal Grow of ``tree``.

        Reading: ``queue_pushes`` counts the trees filed, not the Grows: a
        tree with at least one legal Grow is one push.  The engines file a
        tree once, with a cursor over its root's edges, and pop its Grows in
        the order one entry per Grow would give.
        """
        size = len(tree.edges) + 1
        if self.config.max_edges is not None and size > self.config.max_edges:
            return
        queue = self.queues.setdefault(tree.sat if self.balanced else 0, [])
        before = len(queue)
        for edge, other, _ in self.graph.adjacent_filtered(tree.root, self.config.labels):
            if other in tree.nodes or self.seed_mask.get(other, 0) & tree.sat:  # Grow1, Grow2
                continue
            if self.within(tree.nodes | {other}, size):
                heapq.heappush(queue, (size - 1, next(self.ticket), tree, edge, other))
        if len(queue) > before:
            self.count["queue_pushes"] += 1

    def is_new(self, root: int, edges: FrozenSet[int]) -> bool:
        """Algorithm 4 (isNew)."""
        if not self.esp or not edges:
            # GAM keeps every new rooted tree.  Reading: ESP keeps empty
            # edge sets (Definition 4.3), so every Init tree survives.
            return (root, edges) not in self.rooted
        if edges not in self.hist:
            return True
        # LESP (Section 4.6): a known edge set survives at a root of degree
        # >= 3 whose seed signature holds >= 3 seed sets.
        return (
            self.lesp
            and bin(self.ss.get(root, 0)).count("1") >= 3
            and self.graph.degree(root) >= 3
            and (root, edges) not in self.rooted
        )

    def process(self, tree: Tree, gained: bool) -> List[Tree]:
        """Algorithm 2 (processTree) with Algorithm 3's Mo injection.

        Returns the trees MergeAll starts from.
        """
        if self.esp:
            self.hist.add(tree.edges)
        self.rooted.add((tree.root, tree.edges))
        self.count_kept()
        if tree.sat == self.full:
            self.report(tree.edges, tree.nodes, tree.weight)
            return []
        work = [tree]
        if tree.edges:
            self.rooted_in.setdefault(tree.root, []).append(tree)
            # Reading: Mo copies only when seed coverage grew (the text of
            # Section 4.5), or on every tree under mo_inject_always
            # (Algorithm 3 read literally).
            if self.mo and (gained or self.config.mo_inject_always):
                work.extend(self.inject_mo(tree))
        if not tree.mo:
            self.file_grows(tree)
        return work

    def inject_mo(self, tree: Tree) -> List[Tree]:
        """Algorithm 3 lines 2-5: re-root ``tree`` at each seed it holds."""
        copies = []
        for node in tree.nodes:
            if node == tree.root or node not in self.seed_mask or (node, tree.edges) in self.rooted:
                continue
            copy = Tree(node, tree.edges, tree.nodes, tree.sat, tree.weight, mo=True)
            self.rooted.add((node, tree.edges))
            self.count["mo_copies"] += 1
            self.rooted_in.setdefault(node, []).append(copy)
            copies.append(copy)
        return copies

    def merge2(self, t1: Tree, t2: Tree) -> bool:
        """Merge2.

        Reading: ``sat(t1) ∩ sat(t2) ⊆ seed sets of the root``, so two
        trees share a seed set only through the root that realizes it.
        The literal disjointness of Section 4.2 (``strict_merge2``) would
        lose results whose branching node is a seed, against Property 1.
        """
        shared = 0 if self.config.strict_merge2 else self.seed_mask.get(t1.root, 0)
        return not (t1.sat & t2.sat) & ~shared

    def merge_all(self, work: List[Tree]) -> None:
        """Algorithm 5 (MergeAll): merge each tree with every partner, cascading."""
        work = deque(work)
        max_edges = self.config.max_edges
        while work:
            t1 = work.popleft()
            if not t1.edges:
                continue  # merging with a one-node tree changes nothing
            root = t1.root
            partners = [t2 for t2 in self.rooted_in.get(root, ()) if t2 is not t1 and self.merge2(t1, t2)]
            for t2 in partners:
                if t1.nodes & t2.nodes != {root}:  # Merge1
                    continue
                size = len(t1.edges) + len(t2.edges)
                nodes = t1.nodes | t2.nodes
                if max_edges is not None and size > max_edges or not self.within(nodes, size):
                    continue
                edges = t1.edges | t2.edges
                if self.config.uni and not self.unidirectional(edges):
                    self.count["pruned_filters"] += 1
                    continue
                if not self.is_new(root, edges):
                    self.count["pruned_history"] += 1
                    continue
                merged = Tree(root, edges, nodes, t1.sat | t2.sat, t1.weight + t2.weight, t1.mo or t2.mo)
                self.count["merges"] += 1
                work.extend(self.process(merged, merged.sat not in (t1.sat, t2.sat)))


class _BFTSearch(_Search):
    """BFT (Section 4.1), BFT-M and BFT-AM (Section 4.3)."""

    def __init__(self, graph, seed_sets, config, merge: Optional[str]):
        super().__init__(graph, seed_sets, config)
        self.merge = merge
        self.memory: Set[FrozenSet[int]] = set()  # every edge set built
        self.queue: deque = deque()
        self.containing: Dict[int, List[Tree]] = {}  # node -> trees holding it
        self.use_distance_bound()

    def search(self) -> None:
        """Breadth-first: a FIFO queue of trees, each grown by every legal edge."""
        if not all(self.sets):
            return
        for node, mask in self.seed_mask.items():
            self.count["init_trees"] += 1
            self.process(Tree(None, frozenset(), frozenset((node,)), mask, 0.0), merge=False)
        max_edges = self.config.max_edges
        while self.queue:
            tree = self.queue.popleft()
            size = len(tree.edges) + 1
            if max_edges is not None and size > max_edges:
                continue
            # Grow from every node of the tree, not only from a root.
            for node in tree.nodes:
                for edge, other, _ in self.graph.adjacent_filtered(node, self.config.labels):
                    if other in tree.nodes or self.seed_mask.get(other, 0) & tree.sat:  # Grow1, Grow2
                        continue
                    nodes = tree.nodes | {other}
                    if not self.within(nodes, size):
                        continue
                    self.count["grows"] += 1
                    edges = tree.edges | {edge}
                    if edges in self.memory:  # BFT's history: every edge set built
                        self.count["pruned_history"] += 1
                        continue
                    sat = tree.sat | self.seed_mask.get(other, 0)
                    grown = Tree(None, edges, nodes, sat, tree.weight + self.graph.edge_weight(edge))
                    self.process(grown, merge=self.merge is not None)

    def process(self, tree: Tree, merge: bool) -> None:
        """Register a built tree, grown or merged: remember its edge set,
        count it against ``max_trees``, report it or queue it."""
        self.memory.add(tree.edges)
        self.count_kept()
        if tree.sat == self.full:
            self.report_minimized(tree)
            return
        self.queue.append(tree)
        self.count["queue_pushes"] += 1
        if self.merge is not None and tree.edges:
            for node in tree.nodes:
                self.containing.setdefault(node, []).append(tree)
            if merge:
                self.merge_from(tree)

    def merge_from(self, tree: Tree) -> None:
        """Merge ``tree`` with every tree sharing exactly one node with it;
        BFT-AM merges the merged trees too."""
        work = deque([tree])
        max_edges = self.config.max_edges
        while work:
            t1 = work.popleft()
            # Every tree sharing a node with t1, once each, in first-seen order.
            partners = dict.fromkeys(t2 for node in t1.nodes for t2 in self.containing.get(node, ()))
            for t2 in partners:
                common = t1.nodes & t2.nodes
                if t2 is t1 or len(common) != 1:  # Merge1, at whichever node they share
                    continue
                (shared,) = common
                # Merge2, relaxed: strict_merge2 is a GAM-family ablation.
                if (t1.sat & t2.sat) & ~self.seed_mask.get(shared, 0):
                    continue
                size = len(t1.edges) + len(t2.edges)
                nodes = t1.nodes | t2.nodes
                if max_edges is not None and size > max_edges or not self.within(nodes, size):
                    continue
                edges = t1.edges | t2.edges
                if edges in self.memory:
                    self.count["pruned_history"] += 1
                    continue
                merged = Tree(None, edges, nodes, t1.sat | t2.sat, t1.weight + t2.weight)
                self.count["merges"] += 1
                self.process(merged, merge=False)
                if self.merge == "cascade" and merged.sat != self.full:
                    work.append(merged)

    def report_minimized(self, tree: Tree) -> None:
        """Strip non-seed leaves until every leaf is a seed (Section 4.1), then report."""
        edges, nodes = set(tree.edges), set(tree.nodes)
        while True:
            degree: Dict[int, List[int]] = {node: [] for node in nodes}
            for edge in edges:
                for node in self.graph.edge_endpoints(edge):
                    degree[node].append(edge)
            leaf = next((n for n, incident in degree.items() if len(incident) == 1 and n not in self.seed_mask), None)
            if leaf is None:
                break
            edges.remove(degree[leaf][0])
            nodes.remove(leaf)
        edges = frozenset(edge for edge in tree.edges if edge in edges)
        nodes = frozenset(node for node in tree.nodes if node in nodes)
        self.report(edges, nodes, sum(self.graph.edge_weight(edge) for edge in edges))


def reference_search(algorithm: str, graph, seed_sets: Sequence, config: Optional[SearchConfig] = None) -> Outcome:
    """Run ``algorithm`` (a :data:`repro.ctp.registry.ALGORITHMS` name) by the spec."""
    config = config or SearchConfig()
    name = algorithm.lower()
    if name in GAM_FAMILY:
        run: _Search = _GAMSearch(graph, seed_sets, config, *GAM_FAMILY[name])
    else:
        run = _BFTSearch(graph, seed_sets, config, BFT_FAMILY[name])
    complete = True
    try:
        run.search()
    except _Cut:
        complete = False
    count = run.count
    count["results_found"] = len(run.rows)
    count["provenances"] = count["trees_kept"] + count["mo_copies"]
    return Outcome(run.rows, complete, **{name: count[name] for name in COUNTERS})
