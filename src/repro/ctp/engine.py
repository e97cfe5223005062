"""The GAM-family search engine (Algorithms 1-5 of the paper).

One engine implements GAM (Section 4.2) and its refinements as three
orthogonal switches, combined by the named algorithm classes:

====================  ===================  =========  ==========
algorithm             edge_set_pruning     mo_trees   lesp_guard
====================  ===================  =========  ==========
GAM                   no                   no         no
ESP (Sec 4.4)         yes                  no         no
MoESP (Sec 4.5)       yes                  yes        no
LESP (Sec 4.6)        yes                  no         yes
MoLESP (Sec 4.7)      yes                  yes        yes
====================  ===================  =========  ==========

Faithfulness notes:

* **Merge2** is implemented as ``sat(t1) ∩ sat(t2) ⊆ seed_sets(root)``: two
  trees may share satisfied seed sets only when the shared root itself is
  the seed realizing them.  The strict disjointness stated in Section 4.2
  would contradict GAM's completeness (Property 1: results whose internal
  branching node is a seed require such merges) and the paper's own MoESP
  trace of Figure 3.
* **ESP** never prunes empty edge sets (Definition 4.3), so Init trees
  survive.
* **Mo trees** (Algorithm 3) are injected when a Grow/Merge strictly
  enlarges seed coverage; they bypass the history, are recorded for merging
  only, and Grow is disabled on any tree whose provenance contains Mo.
* **Seed signatures** ``ss_n`` (Section 4.6) are updated whenever a Grow
  builds an ``(n, s)``-rooted path, before the pruning decision, exactly as
  Algorithm 1 line 10 prescribes.
* The queue favours the smallest trees with FIFO tie-breaking (the paper's
  experimental order, Section 5.4); other orders are pluggable (Sec 4.8).
* Section 4.9: wildcard (``N``) seed sets contribute no Init trees and are
  satisfied by construction; unbalanced seed sets trigger per-signature
  priority queues, popping from the least-filled queue.

Performance: tree state is *interned* (:mod:`repro.ctp.interning`) — edge
sets are hash-consed handles, node sets carry exact bitmasks, merge
partners are bucketed by sat mask and found by probing the submasks of
the sats Merge2 allows (:func:`merge_partner_buckets`), and balanced pops
use a lazy size heap.
The Grow frontier is *lazy*: a kept tree files one heap entry whose
cursor walks the root's adjacency tuple, applying Grow1/Grow2 as it
advances.  Both depend only on the immutable tree and the fixed seed map,
and per-edge entries would share the tree's priority and hold consecutive
tickets, so Grows pop exactly as from a queue with one entry per legal
edge — but a search cut short by ``limit``/``max_trees`` never pays for
the hub adjacencies it did not reach.
``MAX k`` is also a distance bound (:func:`distance_bound`): a Grow or
Merge whose tree cannot reach its missing seed sets within the edges k
leaves it is never built, which drops no tree any result is built from.
Node bitmasks live in a dense per-search id space
(:mod:`repro.ctp.idremap`): masks are sized by |nodes this search
touched| instead of the graph's largest node id, which is what makes
million-node (and sparse-huge-id) graphs viable.
Runtime tracks the number of provenances built (Fig. 11), so the price of
each is kept to a few Python calls.  The construction contract: the UNI
filter and the Algorithm 4 history check are decided *before* a grown or
merged tree is built — the history check inlined at both call sites, a
pruned candidate costs a few int lookups and no allocation — and a kept
tree is then built in one positional call (:mod:`repro.ctp.tree`).  The
deadline is polled only when the search has one.  Rows in emission
order, ``complete`` and the search-work counters (Grows, queue pushes,
Merges, history prunes and the rest of
:data:`repro.testing.reference.COUNTERS`) are pinned to the paper's
algorithms run as a plain spec (:mod:`repro.testing.reference`,
``tests/test_reference_spec.py``); the implementation counters,
``merges_attempted`` and cut runs included, by
``tests/test_provenance_golden.py``.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro._util import Deadline, full_mask, popcount
from repro.ctp.config import DEFAULT_CONFIG, WILDCARD, SearchConfig
from repro.ctp.context import SearchContext, adopt_pool, pool_stats_delta
from repro.ctp.idremap import IdRemap
from repro.ctp.results import CTPResultSet, ResultTree, materialize_seeds
from repro.ctp.stats import SearchStats
from repro.ctp.tree import (
    SearchTree,
    make_grow,
    make_init,
    make_merge,
    make_mo,
    uni_grow_state,
    uni_merge_state,
)
from repro.errors import SearchError
from repro.graph.graph import Graph
from repro.graph.traversal import bfs_distances


class _StopSearch(Exception):
    """Internal: unwind the search on LIMIT / memory valve / deadline."""

    def __init__(self, timed_out: bool = False):
        self.timed_out = timed_out


#: Sort key for re-assembling merge partners from several sat buckets in
#: their global registration order.
_tree_seq = operator.attrgetter("seq")


def normalize_seed_sets(graph: Graph, seed_sets: Sequence) -> Tuple[List[Optional[Tuple[int, ...]]], List[int]]:
    """Validate seed sets; return (per-position node tuples or None, wildcard positions).

    Each non-wildcard entry is deduplicated and checked against the graph.
    """
    if len(seed_sets) < 1:
        raise SearchError("a CTP needs at least one seed set")
    normalized: List[Optional[Tuple[int, ...]]] = []
    wildcard_positions: List[int] = []
    for position, seed_set in enumerate(seed_sets):
        if seed_set is WILDCARD:
            normalized.append(None)
            wildcard_positions.append(position)
            continue
        seen: Set[int] = set()
        nodes: List[int] = []
        for node in seed_set:
            graph.node(node)  # raises GraphError on unknown ids
            if node not in seen:
                seen.add(node)
                nodes.append(node)
        normalized.append(tuple(nodes))
    if len(wildcard_positions) == len(seed_sets):
        raise SearchError("at least one seed set must be explicit (not WILDCARD)")
    return normalized, wildcard_positions


def distance_bound(
    graph: Graph, seed_sets: Sequence[Tuple[int, ...]], config: SearchConfig
) -> Optional[Tuple[Dict[int, int], List[int]]]:
    """The ``MAX k`` distance bound: per-node reach masks and per-size need masks.

    A tree of s edges that holds no seed of S_j lies in a tree of at most k
    edges covering S_j only if one of its nodes is within k - s hops of
    S_j: the path from the tree to that seed adds at least that many
    edges.  A supertree only adds edges, so a tree that fails the test is
    in no result and neither is anything built from it; the engines never
    build it.  Trees with the same edge set share the verdict, so the
    history checks see every surviving tree as before, and survivors keep
    their relative queue tickets: results and their order do not change.

    Bit ``j*k + t`` (``t < k``) of a node's reach mask says "within t hops
    of S_j" over the edges ``labels`` admits; a tree's reach is the OR
    over its nodes.  A tree of s >= 1 edges passes iff ``reach & need[s]
    == need[s]``; a seed of S_j sets all of S_j's bits, so covered sets
    pass by themselves.  One BFS of radius k - 1 per seed set.

    ``None`` (no bound) without ``MAX``, and where the search counts what
    the dropped trees would add to: ``max_trees`` cuts the search at a
    tree count, and the provenance counts of ``LIMIT``-cut searches are
    pinned by ``benchmarks/e2e/expected.json`` until it is re-recorded.
    The GAM engine adds its own exclusions (:class:`_GAMRun`).
    """
    k = config.max_edges
    if not k or config.limit is not None or config.max_trees is not None:
        return None
    reach: Dict[int, int] = {}
    for j, seeds in enumerate(seed_sets):
        for node, hops in bfs_distances(graph, seeds, max_hops=k - 1, labels=config.labels).items():
            reach[node] = reach.get(node, 0) | (((1 << (k - hops)) - 1) << (j * k + hops))
    need = [0] + [sum(1 << (j * k + k - size) for j in range(len(seed_sets))) for size in range(1, k + 1)]
    return reach, need


def merge_partner_buckets(
    index: Dict[int, List[SearchTree]], sat: int, root_mask: int, full_sat: int
) -> List[List[SearchTree]]:
    """The buckets of a root's sat -> trees ``index`` that pass Merge2 for ``sat``.

    A partner bucket passes when its sat shares no bit with ``sat`` outside
    ``root_mask`` (the root's own seed sets; 0 under ``strict_merge2``).
    Every bucket sat is a submask of ``full_sat``, so a bucket passes
    exactly when its sat is a submask of ``allowed = full_sat & ~(sat &
    ~root_mask)``.  When ``allowed`` has
    fewer submasks than the root has buckets, probe the index once per
    submask; otherwise scan the buckets.  Either way the same buckets come
    back, in an order the caller does not read (several buckets are
    re-sorted by ``seq``).
    """
    blocked = sat & ~root_mask
    allowed = full_sat & ~blocked
    if 1 << allowed.bit_count() < len(index):
        probe = index.get
        found = []
        sub = allowed
        while True:
            bucket = probe(sub)
            if bucket is not None:
                found.append(bucket)
            if not sub:
                return found
            sub = (sub - 1) & allowed
    return [bucket for bucket_sat, bucket in index.items() if not bucket_sat & blocked]


class GAMFamilySearch:
    """Base class: run one of the GAM-family algorithms on a CTP.

    Subclasses only set the three switches and a name.  Instances are
    stateless; all per-evaluation state lives in :class:`_GAMRun`.
    """

    name = "gam-family"
    edge_set_pruning = False
    mo_trees = False
    lesp_guard = False

    def run(
        self,
        graph: Graph,
        seed_sets: Sequence,
        config: Optional[SearchConfig] = None,
        context: Optional[SearchContext] = None,
    ) -> CTPResultSet:
        """Evaluate the CTP defined by ``seed_sets`` over ``graph``.

        ``seed_sets`` is a sequence of node-id collections (or ``WILDCARD``).
        Returns all minimal connecting trees found (Definition 2.8), subject
        to the filters in ``config``.  ``context`` is an optional
        query-scoped :class:`~repro.ctp.context.SearchContext`: when given
        (and bound to this run's graph lineage) the run adopts
        the context's shared edge-set pool instead of constructing pool
        state internally.

        Concurrency contract: all mutable *search* state lives in the
        per-call :class:`_GAMRun`, and the only shared structure a run
        touches is the context's pool — so concurrent runs
        over one ``SearchContext(thread_safe=True)`` (the request threads
        of :class:`~repro.serve.QueryServer`) are safe and produce exactly
        the rows a serial run would: handles are opaque identities, never
        ordered on, so interleaved handle numbering cannot change a search
        outcome.  Sharing a *non*-thread-safe context across threads is
        the caller's bug.
        """
        run = _GAMRun(graph, seed_sets, config or DEFAULT_CONFIG, self, context)
        return run.execute()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _GAMRun:
    """State and main loop of a single GAM-family evaluation."""

    def __init__(
        self,
        graph: Graph,
        seed_sets: Sequence,
        config: SearchConfig,
        algo: GAMFamilySearch,
        context: Optional[SearchContext] = None,
    ):
        self.graph = graph
        self.config = config
        self.algo = algo
        self.stats = SearchStats()
        normalized, self.wildcard_positions = normalize_seed_sets(graph, seed_sets)
        self.positions = normalized  # per original position: tuple or None
        # Bit i of every sat mask corresponds to explicit_positions[i].
        self.explicit_positions: List[int] = [p for p, s in enumerate(normalized) if s is not None]
        self.explicit_sets: List[Tuple[int, ...]] = [normalized[p] for p in self.explicit_positions]
        self.full_sat = full_mask(len(self.explicit_sets))
        self.seed_mask: Dict[int, int] = {}
        for bit, nodes in enumerate(self.explicit_sets):
            for node in nodes:
                self.seed_mask[node] = self.seed_mask.get(node, 0) | (1 << bit)
        # --- interned tree state (edge-set pool, see repro.ctp.interning) ---
        # A query-scoped context supplies a pool shared by all the query's
        # CTP runs (handles stay comparable across runs); a refusal — the
        # context is bound to another graph — falls back to a private pool.
        self.pool, self._pool_baseline = adopt_pool(context, graph)
        # Dense per-search node identity (repro.ctp.idremap): node-mask
        # bits are compact first-touch indexes, so masks scale with the
        # frontier, not with max(node_id).  Strictly run-local state.
        self.remap = IdRemap()
        # --- search state (Algorithms 1-5 globals) ---
        # History structures are keyed by pool handles (ints: O(1) hashing).
        self.hist: Set[int] = set()  # edge-set history (ESP)
        self.rooted_keys: Set[Tuple[int, int]] = set()  # rooted-tree history (GAM / LESP)
        #: Merge-partner index: root -> sat mask -> trees, so a cascade
        #: step finds Merge2-compatible partners a bucket at a time
        #: (merge_partner_buckets) instead of testing them one tree at a
        #: time (global insertion order is restored from the per-tree
        #: ``seq`` tickets when several buckets are compatible).
        self.trees_rooted_in: Dict[int, Dict[int, List[SearchTree]]] = {}
        self._seq = 0
        self.ss: Dict[int, int] = {}  # seed signatures (Section 4.6)
        self.result_keys: Set = set()
        self.results: List[ResultTree] = []
        self._ticket = itertools.count().__next__  # FIFO tie-breaking among equal priorities
        self.deadline = Deadline(config.timeout)
        self.timed_out = False
        # --- priority queues (queue 0, or one per sat signature: Sec 4.9),
        # holding one (priority, ticket, tree, cursor) entry per tree ---
        self.balanced = self._balanced_enabled()
        self.queues: Dict[int, list] = {}
        self.priority = self._priority_function()
        # Balanced mode (Section 4.9 (ii)) picks the least-filled queue per
        # pop, by legal Grows still held.  Scanning every queue per pop is
        # O(q); instead the counts are cached and a lazy heap of (size,
        # key) entries serves the minimum in O(log q) amortized (stale
        # entries are discarded on sight — stats.balanced_pop_scans).
        self._queue_sizes: Dict[int, int] = {}
        self._size_heap: List[Tuple[int, int]] = []
        # The MAX distance bound (see distance_bound), except where the
        # search reads what the dropped trees would change: the least-filled
        # pick of balanced queues counts Grows, and the LESP guard (three
        # or more seed sets) reads seed signatures their Grows would set.
        self.reach: Dict[int, int] = {}
        self.need: Optional[List[int]] = None
        if not self.balanced and not (algo.lesp_guard and len(self.explicit_sets) >= 3):
            self.reach, self.need = distance_bound(graph, self.explicit_sets, config) or ({}, None)

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------
    def _balanced_enabled(self) -> bool:
        mode = self.config.balanced_queues
        if mode is True or mode is False:
            return bool(mode)
        if self.wildcard_positions:
            return True
        sizes = [len(s) for s in self.explicit_sets]
        if not sizes or min(sizes) == 0:
            return False
        return max(sizes) / min(sizes) >= self.config.balance_ratio

    def _priority_function(self):
        order = self.config.order
        if order == "size":
            return operator.attrgetter("size")
        if order == "score":
            score = self.config.score
            graph = self.graph
            return lambda tree: -score(graph, tree.edges, tree.nodes)
        return order  # user-supplied callable

    # ------------------------------------------------------------------
    # main loop (Algorithm 1)
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
        results = self._final_results()
        return CTPResultSet(
            results=results,
            stats=self.stats,
            complete=complete,
            timed_out=self.timed_out,
            algorithm=self.algo.name,
        )

    def _init_trees(self) -> None:
        if any(not seed_set for seed_set in self.explicit_sets):
            return  # an empty seed set has no embeddings, hence no results
        uni = self.config.uni
        remap_bit = self.remap.bit
        reach_of = self.reach.get
        for node, mask in self.seed_mask.items():
            tree = make_init(self.pool, node, mask, uni, remap_bit(node), reach_of(node, 0))
            self.stats.init_trees += 1
            self.ss[node] = self.ss.get(node, 0) | mask
            work = self._absorb(tree, True)
            if work:
                self._merge_cascade(deque(work))

    def _main_loop(self) -> None:
        deadline = self.deadline
        bounded = deadline.bounded
        edge_weight = self.graph.edge_weight
        seed_mask = self.seed_mask
        uni = self.config.uni
        union1 = self.pool.union1
        stats = self.stats
        ss = self.ss
        remap_bit = self.remap.bit
        reach_of = self.reach.get
        esp = self.algo.edge_set_pruning
        lesp_guard = self.algo.lesp_guard
        hist = self.hist
        rooted_keys = self.rooted_keys
        absorb = self._absorb
        for tree, edge_id, other, outgoing in self._grows():
            if bounded and deadline.expired():
                raise _StopSearch(timed_out=True)
            stats.grows += 1
            # The UNI filter and the history check both precede tree
            # construction: a rejected Grow costs a couple of int lookups,
            # no frozenset and no SearchTree.
            uni_state = None
            if uni:
                uni_state = uni_grow_state(tree, other, outgoing)
                if uni_state is None:
                    stats.pruned_filters += 1
                    continue
            # Algorithm 1 line 10: update the seed signature of the new root
            # before any pruning decision.  The grown tree is an (n, s)-
            # rooted path iff the source tree was one and ``other`` is not
            # itself a seed (Definition 4.4).
            path_seed = tree.path_seed if other not in seed_mask else None
            if path_seed is not None:
                ss[other] = ss.get(other, 0) | seed_mask[path_seed]
            eset = union1(tree.eset, edge_id)
            # Algorithm 4 (isNew), inlined: an edge set new to the history
            # is new; only the empty set and the LESP guard need a second look.
            if esp:
                if not eset or eset in hist:
                    if (eset and not lesp_guard) or not self._is_new_rooted(other, eset):
                        stats.pruned_history += 1
                        continue
            elif (other, eset) in rooted_keys:
                stats.pruned_history += 1
                continue
            grown = make_grow(
                tree,
                edge_id,
                other,
                seed_mask.get(other, 0),
                other in seed_mask,
                edge_weight(edge_id),
                outgoing,
                uni,
                remap_bit(other),
                eset,
                uni_state,
                reach_of(other, 0),
            )
            work = absorb(grown, grown.sat != tree.sat)
            if work:
                self._merge_cascade(deque(work))

    # ------------------------------------------------------------------
    # queue management (single or balanced, Section 4.9 (ii))
    # ------------------------------------------------------------------
    def _queue_grows(self, tree: SearchTree) -> None:
        """File the Grow frontier of ``tree`` (Algorithm 2 l.9-13): one entry.

        Its cursor iterates the root's adjacency tuple; :meth:`_grows`
        applies Grow1/Grow2 as it advances.  A tree without a legal Grow
        files nothing — the check stops at the first legal edge, skipping
        only edges into the tree or to a covered seed set: a prefix bounded
        by the tree, not by the root's degree.  Balanced queues are ordered
        by the legal Grows they hold, so that mode counts them all.  Under
        the MAX distance bound a Grow into a node that does not bring the
        tree within reach of its missing seed sets is not legal either.
        """
        config = self.config
        if config.max_edges is not None and tree.size + 1 > config.max_edges:
            return
        adjacent = self.graph.adjacent_filtered(tree.root, config.labels)
        nodes, sat, seed_sat, balanced = tree.nodes, tree.sat, self.seed_mask.get, self.balanced
        # The reach bits a Grow must add to pass the MAX distance bound
        # (0: every Grow passes).
        need, reach_of = self.need, self.reach.get
        short = need[tree.size + 1] & ~tree.reach if need is not None else 0
        legal = 0
        for _, other, _ in adjacent:
            if other not in nodes and not seed_sat(other, 0) & sat:  # Grow1, Grow2
                if short and reach_of(other, 0) & short != short:
                    continue
                legal += 1
                if not balanced:
                    break
        if not legal:
            return
        key = 0
        if balanced:
            key = sat
            size = self._queue_sizes[key] = self._queue_sizes.get(key, 0) + legal
            heapq.heappush(self._size_heap, (size, key))
        entry = (self.priority(tree), self._ticket(), tree, iter(adjacent))
        heapq.heappush(self.queues.setdefault(key, []), entry)
        self.stats.queue_pushes += 1

    def _grows(self):
        """Yield the legal Grows ``(tree, edge_id, other, outgoing)`` in pop order.

        The next Grow is the next legal edge under the cursor of the queue's
        top entry; an exhausted entry is dropped.  The top is re-read after
        every Grow — the caller may have filed a tree that now precedes it.
        """
        seed_sat = self.seed_mask.get
        need, reach_of = self.need, self.reach.get
        pick = self._least_filled if self.balanced else None
        queue = self.queues.get(0)
        while True:
            if pick is not None:
                queue = pick()
            while queue:
                entry = queue[0]
                _, _, tree, cursor = entry
                nodes, sat = tree.nodes, tree.sat
                short = need[tree.size + 1] & ~tree.reach if need is not None else 0
                for edge_id, other, outgoing in cursor:
                    if other in nodes or seed_sat(other, 0) & sat:  # Grow1, Grow2
                        continue
                    if short and reach_of(other, 0) & short != short:  # the MAX distance bound
                        continue
                    yield tree, edge_id, other, outgoing
                    if pick is not None or queue[0] is not entry:
                        break
                else:
                    heapq.heappop(queue)
                    continue
                break
            else:
                return

    def _least_filled(self) -> Optional[list]:
        """The non-empty queue holding the fewest Grows (Section 4.9 (ii)),
        charged for the one about to be taken; ``None`` once all are drained.
        Size-heap entries whose recorded size is stale are discarded on sight.
        """
        size_heap = self._size_heap
        sizes = self._queue_sizes
        scans = 0
        while size_heap:
            scans += 1
            size, key = size_heap[0]
            if sizes[key] != size:
                heapq.heappop(size_heap)
                continue
            self.stats.balanced_pop_scans += scans
            sizes[key] = size - 1
            if size > 1:
                heapq.heapreplace(size_heap, (size - 1, key))
            else:
                heapq.heappop(size_heap)
            return self.queues[key]
        return None

    # ------------------------------------------------------------------
    # pruning (Algorithm 4: isNew)
    # ------------------------------------------------------------------
    def _is_new_rooted(self, root: int, eset) -> bool:
        """Algorithm 4 for the two ESP-family cases its call sites leave open.

        The Grow loop and the merge cascade settle the common cases inline,
        before any tree is built: GAM's rooted-key test, and an edge set new
        to the ESP history.  What is left comes here as a (root, edge-set
        handle) pair: an empty edge set, which ESP never discards
        (Definition 4.3), and — under the LESP guard only — an edge set
        already in the history, which LESP keeps at a root of degree >= 3
        whose seed signature holds >= 3 seed sets.  Either way the rooted
        tree itself must be new.
        """
        if eset and not (popcount(self.ss.get(root, 0)) >= 3 and self.graph.degree(root) >= 3):
            return False
        return (root, eset) not in self.rooted_keys

    # ------------------------------------------------------------------
    # tree registration (Algorithm 2: processTree / Algorithm 3)
    # ------------------------------------------------------------------
    def _absorb(self, tree: SearchTree, gained: bool) -> List[SearchTree]:
        """Register a tree that passed Algorithm 4; return merge-cascade work.

        Results are reported and not recorded for merging (Algorithm 2);
        other trees are indexed in ``TreesRootedIn``, get their Mo copies
        when they gained seed coverage (Section 4.5), and have their Grow
        frontier queued unless their provenance contains Mo.
        """
        if self.algo.edge_set_pruning:
            self.hist.add(tree.eset)
        self.rooted_keys.add((tree.root, tree.eset))
        self.stats.trees_kept += 1
        if self.config.max_trees is not None and self.stats.trees_kept > self.config.max_trees:
            raise _StopSearch()
        if tree.sat == self.full_sat:
            self._record_result(tree)
            if not self.wildcard_positions:
                return []
            # Section 4.9 (i): with an N seed set, any encountered node is a
            # valid match, so a covering tree is a result *and* every
            # extension of it yields further results — keep exploring.
        work = [tree]
        if tree.eset:
            self._index_partner(tree)
            if self.algo.mo_trees and (gained or self.config.mo_inject_always):
                work.extend(self._inject_mo_copies(tree))
        if not tree.mo_tainted:
            self._queue_grows(tree)
        return work

    def _index_partner(self, tree: SearchTree) -> None:
        """File ``tree`` in the root -> sat bucket index with a seq ticket."""
        tree.seq = self._seq
        self._seq += 1
        buckets = self.trees_rooted_in.get(tree.root)
        if buckets is None:
            buckets = self.trees_rooted_in[tree.root] = {}
        bucket = buckets.get(tree.sat)
        if bucket is None:
            buckets[tree.sat] = [tree]
        else:
            bucket.append(tree)

    def _inject_mo_copies(self, tree: SearchTree) -> List[SearchTree]:
        """Algorithm 3 lines 2-5: re-root the tree at each contained seed."""
        copies = []
        seed_mask = self.seed_mask
        uni = self.config.uni
        edges = tree.edges if uni else ()  # materialized once, interned
        edge_target = self.graph.edge_target
        for node in tree.nodes:
            if node == tree.root or node not in seed_mask:
                continue
            key = (node, tree.eset)
            if key in self.rooted_keys:
                continue  # an identical rooted tree already exists
            in_deg = 0
            if uni:
                # In-degree of the seed inside the tree, read off the
                # backend's flat endpoint columns (no Edge objects).
                in_deg = sum(1 for e in edges if edge_target(e) == node)
            copy = make_mo(tree, node, in_deg)
            self.stats.mo_copies += 1
            self.rooted_keys.add(key)
            self._index_partner(copy)
            copies.append(copy)
        return copies

    # ------------------------------------------------------------------
    # aggressive merging (Algorithm 5: MergeAll)
    # ------------------------------------------------------------------
    def _merge_cascade(self, work: deque) -> None:
        config = self.config
        uni = config.uni
        max_edges = config.max_edges
        need = self.need
        seed_mask = self.seed_mask
        stats = self.stats
        union2 = self.pool.union2
        full_sat = self.full_sat
        deadline = self.deadline
        bounded = deadline.bounded
        node_index = self.remap.indexes
        esp = self.algo.edge_set_pruning
        lesp_guard = self.algo.lesp_guard
        hist = self.hist
        rooted_keys = self.rooted_keys
        absorb = self._absorb
        while work:
            if bounded and deadline.expired():
                raise _StopSearch(timed_out=True)
            t1 = work.popleft()
            if not t1.eset:  # merging with a one-node tree is a no-op
                continue
            index = self.trees_rooted_in.get(t1.root)
            if not index:
                continue
            root_mask = 0 if config.strict_merge2 else seed_mask.get(t1.root, 0)
            sat = t1.sat
            # Merge2 (relaxed, see module docstring): overlapping seed sets
            # are only allowed through the shared root (under strict_merge2,
            # any overlap blocks).  The condition depends only on the
            # partner's sat mask, so whole buckets are skipped at once.
            if len(index) == 1:
                # Single-sat root (the common case on sparse graphs): one
                # compatibility test, no bucket assembly at all.
                bucket_sat, bucket = next(iter(index.items()))
                if (sat & bucket_sat) & ~root_mask:
                    stats.merge_buckets_skipped += 1
                    continue
                partners = bucket
            else:
                compat = merge_partner_buckets(index, sat, root_mask, full_sat)
                stats.merge_buckets_skipped += len(index) - len(compat)
                if not compat:
                    continue
                if len(compat) == 1:
                    # One compatible bucket: iterate it in place, bounded by
                    # its current length — absorbed merges may append behind
                    # us, exactly as they fell outside the seed's snapshot
                    # copy.
                    partners = compat[0]
                else:
                    # Several compatible buckets: concatenate and restore the
                    # global insertion order the seed iterated in (near-sorted
                    # runs, timsort merges them in ~linear time).
                    partners = [tree for bucket in compat for tree in bucket]
                    partners.sort(key=_tree_seq)
            length = len(partners)
            node_mask = t1.node_mask
            root = t1.root
            # The root is always already in the remap (it entered as an
            # Init seed or a Grow frontier node): read its bit off the dict.
            root_bit = 1 << node_index[root]
            t1_eset = t1.eset
            t1_size = t1.size
            for i in range(length):
                tp = partners[i]
                if tp is t1:
                    continue
                stats.merges_attempted += 1
                # Merge1: the trees share exactly the root.  Exact bitmask
                # test — nothing materialized for rejections.
                if node_mask & tp.node_mask != root_bit:
                    continue
                if max_edges is not None and t1_size + tp.size > max_edges:
                    continue
                if need is not None:  # the MAX distance bound
                    want = need[t1_size + tp.size]
                    if (t1.reach | tp.reach) & want != want:
                        continue
                # UNI filter and history check both precede construction —
                # a pruned merge never materializes a set or a SearchTree.
                uni_state = None
                if uni:
                    uni_state = uni_merge_state(t1, tp)
                    if uni_state is None:
                        stats.pruned_filters += 1
                        continue
                eset = union2(t1_eset, tp.eset)
                # Algorithm 4 (isNew), inlined as in the Grow loop.
                if esp:
                    if not eset or eset in hist:
                        if (eset and not lesp_guard) or not self._is_new_rooted(root, eset):
                            stats.pruned_history += 1
                            continue
                elif (root, eset) in rooted_keys:
                    stats.pruned_history += 1
                    continue
                merged = make_merge(t1, tp, uni, eset, uni_state)
                stats.merges += 1
                gained = merged.sat != t1.sat and merged.sat != tp.sat
                work.extend(absorb(merged, gained))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _record_result(self, tree: SearchTree) -> None:
        if self.config.mo_inject_always and not self._is_minimal(tree):
            # Algorithm 3 read literally (the mo_inject_always ablation)
            # re-roots trees whose old root is a non-seed leaf; merges of
            # those can cover all seed sets without being minimal.  Under
            # the Section 4.5 gain condition this cannot happen, so the
            # check lives only on this ablation path.
            self.stats.pruned_filters += 1
            return
        if tree.eset in self.result_keys:
            self.stats.duplicate_results += 1
            return
        self.result_keys.add(tree.eset)
        seeds = materialize_seeds(
            len(self.positions),
            self.explicit_positions,
            self.seed_mask,
            tree.nodes,
            tree.sat,
            wildcard_positions=self.wildcard_positions,
            root=tree.root,  # the N match: the only possibly-non-seed leaf
        )
        edges, nodes = tree.edges, tree.nodes
        score = None if self.config.score is None else self.config.score(self.graph, edges, nodes)
        self.results.append(ResultTree(edges=edges, nodes=nodes, seeds=seeds, weight=tree.weight, score=score))
        self.stats.results_found += 1
        if self.config.limit is not None and self.stats.results_found >= self.config.limit:
            raise _StopSearch()

    def _is_minimal(self, tree: SearchTree) -> bool:
        """Every leaf is a seed (wildcard trees may keep the root free)."""
        if not tree.eset:
            return True
        degrees: Dict[int, int] = {}
        edge_endpoints = self.graph.edge_endpoints
        for edge_id in tree.edges:
            source, target = edge_endpoints(edge_id)
            degrees[source] = degrees.get(source, 0) + 1
            degrees[target] = degrees.get(target, 0) + 1
        allowed_free = 1 if self.wildcard_positions else 0
        free = 0
        for node, degree in degrees.items():
            if degree == 1 and node not in self.seed_mask:
                free += 1
                if free > allowed_free:
                    return False
        return True

    def _final_results(self) -> List[ResultTree]:
        results = self.results
        if self.config.top_k is not None and len(results) > self.config.top_k:
            results = sorted(results, key=lambda r: (-(r.score or 0.0), r.size))[: self.config.top_k]
        return results
