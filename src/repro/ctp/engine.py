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
partners are bucketed by sat mask, and balanced pops use a lazy size heap.
The Grow frontier is *lazy*: a kept tree files one heap entry whose
cursor walks the root's adjacency tuple, applying Grow1/Grow2 as it
advances.  Both depend only on the immutable tree and the fixed seed map,
and per-edge entries would share the tree's priority and hold consecutive
tickets, so Grows pop exactly as from a queue with one entry per legal
edge — but a search cut short by ``limit``/``max_trees`` never pays for
the hub adjacencies it did not reach.
Node bitmasks live in a dense per-search id space
(:mod:`repro.ctp.idremap`): masks are sized by |nodes this search
touched| instead of the graph's largest node id, which is what makes
million-node (and sparse-huge-id) graphs viable.
Both the UNI filter and the Algorithm 4 history check run *before* a
grown/merged tree is constructed, so pruned candidates cost a few int
lookups and no allocation.  Result sets and order-sensitive counters are
pinned to the seed implementation's frozenset bookkeeping by recorded
goldens (see ``tests/test_interning_equivalence.py``).
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
        the context's shared edge-set pool and rooted-result cache instead
        of constructing pool state internally.

        Concurrency contract: all mutable *search* state lives in the
        per-call :class:`_GAMRun`, and the only shared structures a run
        touches are the context's pool and caches — so concurrent runs
        over one ``SearchContext(thread_safe=True)`` (the parallel
        dispatcher's setup, :mod:`repro.query.parallel`) are safe and
        produce exactly the rows a serial run would: handles are opaque
        identities, never ordered on, so interleaved handle numbering
        cannot change a search outcome.  Sharing a *non*-thread-safe
        context across threads is the caller's bug; the dispatcher
        downgrades that case to serial.
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
        self.pool, self.context, self._pool_baseline = adopt_pool(context, graph)
        # Dense per-search node identity (repro.ctp.idremap): node-mask
        # bits are compact first-touch indexes, so masks scale with the
        # frontier, not with max(node_id).  Strictly run-local state.
        self.remap = IdRemap()
        # Rooted-cache fingerprint: config identity plus the graph's size
        # (append-only graphs invalidate cached payloads by growing).
        self._cfg_fp = None
        if self.context is not None:
            self._cfg_fp = (
                SearchContext.config_fingerprint(config),
                SearchContext.graph_fingerprint(graph),
            )
        # --- search state (Algorithms 1-5 globals) ---
        # History structures are keyed by pool handles (ints: O(1) hashing).
        self.hist: Set[int] = set()  # edge-set history (ESP)
        self.rooted_keys: Set[Tuple[int, int]] = set()  # rooted-tree history (GAM / LESP)
        #: Merge-partner index: root -> sat mask -> trees, so a cascade
        #: step skips Merge2-incompatible partners one bucket at a time
        #: instead of testing them one tree at a time (global insertion
        #: order is restored from the per-tree ``seq`` tickets when
        #: several buckets are compatible).
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
        for node, mask in self.seed_mask.items():
            tree = make_init(self.pool, node, mask, uni, node_bit=remap_bit(node))
            self.stats.init_trees += 1
            self.ss[node] = self.ss.get(node, 0) | mask
            work = self._absorb(tree, gained=True)
            if work:
                self._merge_cascade(deque(work))

    def _main_loop(self) -> None:
        deadline = self.deadline
        graph = self.graph
        seed_mask = self.seed_mask
        uni = self.config.uni
        pool = self.pool
        stats = self.stats
        ss = self.ss
        remap_bit = self.remap.bit
        for tree, edge_id, other, outgoing in self._grows():
            if deadline.expired():
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
            eset = pool.union1(tree.eset, edge_id)
            if not self._is_new_rooted(other, eset):
                stats.pruned_history += 1
                continue
            grown = make_grow(
                tree,
                edge_id,
                other,
                seed_mask.get(other, 0),
                other in seed_mask,
                graph.edge_weight(edge_id),
                outgoing,
                uni,
                eset=eset,
                uni_state=uni_state,
                node_bit=remap_bit(other),
            )
            work = self._absorb(grown, gained=grown.sat != tree.sat)
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
        by the legal Grows they hold, so that mode counts them all.
        """
        config = self.config
        if config.max_edges is not None and tree.size + 1 > config.max_edges:
            return
        adjacent = self.graph.adjacent_filtered(tree.root, config.labels)
        nodes, sat, seed_sat, balanced = tree.nodes, tree.sat, self.seed_mask.get, self.balanced
        legal = 0
        for _, other, _ in adjacent:
            if other not in nodes and not seed_sat(other, 0) & sat:  # Grow1, Grow2
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
        pick = self._least_filled if self.balanced else None
        queue = self.queues.get(0)
        while True:
            if pick is not None:
                queue = pick()
            while queue:
                entry = queue[0]
                _, _, tree, cursor = entry
                nodes, sat = tree.nodes, tree.sat
                for edge_id, other, outgoing in cursor:
                    if other in nodes or seed_sat(other, 0) & sat:  # Grow1, Grow2
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
        """Algorithm 4 on the *identity* of a rooted tree.

        Takes the (root, edge-set handle) pair rather than a built tree so
        the engine can prune before constructing anything.
        """
        if not eset:
            # ESP never discards an empty edge set (Definition 4.3).
            return (root, eset) not in self.rooted_keys
        if not self.algo.edge_set_pruning:
            return (root, eset) not in self.rooted_keys
        if eset not in self.hist:
            return True
        if self.algo.lesp_guard:
            signature = self.ss.get(root, 0)
            if (
                popcount(signature) >= 3
                and self.graph.degree(root) >= 3
                and (root, eset) not in self.rooted_keys
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # tree registration (Algorithm 2: processTree / Algorithm 3)
    # ------------------------------------------------------------------
    def _absorb(self, tree: SearchTree, gained: bool) -> List[SearchTree]:
        """Register a tree that passed ``_is_new_rooted``; return merge-cascade work.

        Results are reported and not recorded for merging (Algorithm 2);
        other trees are indexed in ``TreesRootedIn``, get their Mo copies
        when they gained seed coverage (Section 4.5), and have their Grow
        frontier queued unless their provenance contains Mo.
        """
        if self.algo.edge_set_pruning:
            self.hist.add(tree.eset)
        self.rooted_keys.add(tree.rooted_key())
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
        seed_mask = self.seed_mask
        stats = self.stats
        pool = self.pool
        while work:
            if self.deadline.expired():
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
                compat = [
                    bucket
                    for bucket_sat, bucket in index.items()
                    if not (sat & bucket_sat) & ~root_mask
                ]
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
            # Init seed or a Grow frontier node), so this is a dict hit.
            root_bit = self.remap.bit(root)
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
                # UNI filter and history check both precede construction —
                # a pruned merge never materializes a set or a SearchTree.
                uni_state = None
                if uni:
                    uni_state = uni_merge_state(t1, tp)
                    if uni_state is None:
                        stats.pruned_filters += 1
                        continue
                eset = pool.union2(t1_eset, tp.eset)
                if not self._is_new_rooted(root, eset):
                    stats.pruned_history += 1
                    continue
                merged = make_merge(t1, tp, uni, eset=eset, uni_state=uni_state)
                stats.merges += 1
                gained = merged.sat != t1.sat and merged.sat != tp.sat
                work.extend(self._absorb(merged, gained))

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
        # The per-root result cache of the query context: a sibling CTP (or
        # an earlier run of this one) that reported the same rooted tree
        # under the same config fingerprint already materialized edge/node
        # sets and paid the score call — reuse its payload.  Seeds are
        # per-CTP (positions differ) and always rebuilt above.
        context = self.context
        cached = None
        cache_key = None
        if context is not None:
            cache_key = (tree.root, tree.eset, self._cfg_fp)
            cached = context.rooted_cache.get(cache_key)
        if cached is not None:
            edges, nodes, score = cached
            self.stats.ctx_rooted_hits += 1
        else:
            edges, nodes = tree.edges, tree.nodes
            score = None
            if self.config.score is not None:
                score = self.config.score(self.graph, edges, nodes)
            if cache_key is not None:
                context.rooted_cache.put(cache_key, (edges, nodes, score))
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
