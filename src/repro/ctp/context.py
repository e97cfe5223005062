"""Query-scoped search state: one pool and two bounded caches per query.

Section 3's pipeline runs one connection search per CTP.
:class:`SearchContext` scopes the edge-set pool
(:class:`~repro.ctp.interning.EdgeSetPool`) to a *query* instead of a
single CTP evaluation: all CTPs of a query intern into the same pool — so
edge sets a sibling CTP already built are found by fingerprint instead of
built again, and handles are comparable across runs — and two bounded
caches ride on top of the shared handles: a per-root cache of materialized
rooted-tree results keyed by ``(root, eset handle, config fingerprint)``,
and the evaluator's cross-CTP memo of whole result sets keyed by graph
lineage, seed sets, and config fingerprint and stamped with the
generation they are exact at.  Both caches are bounded LRU
(:class:`ResultCache`) — by entry count and, optionally, by approximate
payload bytes — and own every reference they hold, so a long-lived context
cannot grow without limit.

``SearchContext(thread_safe=True)`` makes all of that state safe to share
across the worker threads of a parallel dispatch
(:mod:`repro.query.parallel`): the pool is built thread-safe (its
exact-interning step serialized per fingerprint shard) and both caches
take a lock around their LRU mutations.  Sharing stays
representation-only either way: a search never reads another run's
private state, so results are identical no matter how runs interleave.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from contextlib import nullcontext
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.ctp.interning import EdgeSetPool

#: Containers :func:`approx_bytes` descends into element-wise.
_SIZED_CONTAINERS = (list, tuple, set, frozenset)
#: Leaves whose ``getsizeof`` is already their full footprint.
_ATOMIC_TYPES = (str, bytes, bytearray, int, float, complex, bool, type(None))


def approx_bytes(value: Any, _seen: Optional[set] = None) -> int:
    """Approximate deep memory footprint of ``value`` in bytes.

    The size-aware eviction measure of :class:`ResultCache`: a
    ``sys.getsizeof`` walk over containers, dicts, and object attributes
    (``__dict__`` and ``__slots__``), deduplicating shared sub-objects
    *within one value* by identity.  Approximate by design — objects shared
    *between* cache entries are charged to each entry (a conservative
    overestimate), and exotic C-level layouts fall back to their shallow
    size — the point is a stable, cheap eviction signal, not an accountant.

    The walk keeps an explicit stack instead of recursing: cached payloads
    are caller-supplied, and a deeply nested one (a few thousand levels of
    tuples is enough) must not blow the interpreter's recursion limit from
    inside a cache ``put`` mid-query.  Depth is bounded by memory, not by
    ``sys.getrecursionlimit()``.
    """
    seen = set() if _seen is None else _seen
    total = 0
    stack = [value]
    while stack:
        obj = stack.pop()
        oid = id(obj)
        if oid in seen:
            continue
        seen.add(oid)
        total += sys.getsizeof(obj)
        if isinstance(obj, _ATOMIC_TYPES):
            continue
        if isinstance(obj, dict):
            for key, item in obj.items():
                stack.append(key)
                stack.append(item)
            continue
        if isinstance(obj, _SIZED_CONTAINERS):
            stack.extend(obj)
            continue
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None:
            stack.append(attrs)
        for name in getattr(type(obj), "__slots__", ()):
            try:
                stack.append(getattr(obj, name))
            except AttributeError:
                continue
    return total


class ResultCache:
    """A bounded LRU map — the eviction bound of the context caches.

    Bounded two ways: by entry count (``maxsize``, always) and — when
    ``max_bytes`` is set — by the *approximate payload bytes* of the stored
    values (:func:`approx_bytes`), so a long-lived context is limited by
    memory rather than by how many entries its results happen to span.
    Eviction pops least-recently-used entries until both bounds hold; a
    single value larger than ``max_bytes`` is therefore never retained.

    ``None`` is never a legal value (``get`` uses it as the miss marker).
    Hits refresh recency.  ``thread_safe=True`` takes a lock around every
    LRU mutation (the ``OrderedDict`` reorder on hit makes even ``get`` a
    write).  Counters are plain attributes so callers can fold them into
    reports without extra accessors; ``size_walks`` counts
    :func:`approx_bytes` deep walks — exactly one per *distinct inserted
    value*, because re-putting the identical object under its key (the
    memo-replay path) reuses the size cached at first insertion.
    """

    __slots__ = (
        "maxsize",
        "max_bytes",
        "total_bytes",
        "_data",
        "_nbytes",
        "_lock",
        "hits",
        "misses",
        "evictions",
        "size_walks",
    )

    def __init__(self, maxsize: int, max_bytes: Optional[int] = None, thread_safe: bool = False):
        if maxsize < 1:
            raise ValueError("ResultCache needs maxsize >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("ResultCache needs max_bytes >= 1 (or None)")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self.total_bytes = 0
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._nbytes: Dict[Any, int] = {}
        self._lock = threading.Lock() if thread_safe else None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.size_walks = 0

    def get(self, key, check=None):
        """The value under ``key``, or ``None`` (counted as a miss).

        ``check`` vets a stored value before it counts as a hit: it is
        called outside the lock and returns the value to serve, or
        ``None`` to count the probe as a miss.
        """
        value = None
        if check is not None:
            value = self._data.get(key)
            if value is not None:
                value = check(value)
        lock = self._lock
        if lock is None:
            return self._get(key, value, check)
        with lock:
            return self._get(key, value, check)

    def _get(self, key, value, check):
        if check is None:
            value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        if key in self._data:  # a vetted value may have been evicted since
            self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value, keep=None) -> None:
        """File ``value`` under ``key``; ``keep(held)`` true leaves a value
        already held under ``key`` in place (a recency refresh only)."""
        if value is None:
            raise ValueError("ResultCache cannot store None")
        lock = self._lock
        if lock is None:
            return self._put(key, value, keep)
        with lock:
            return self._put(key, value, keep)

    def _put(self, key, value, keep) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
            held = data[key]
            if held is value or (keep is not None and keep(held)):
                # Re-filing the identical object (memo replay runs once
                # per fan-out, batch evaluation once per query): the
                # cached deep size is still exact, so this is a recency
                # refresh only — no second size walk.
                return
            self.total_bytes -= self._nbytes.get(key, 0)
        data[key] = value
        # Sizing is skipped entirely for unbounded-bytes caches: the walk
        # is the expensive part, the counters are just ints.
        if self.max_bytes is not None:
            nbytes = approx_bytes(value)
            self.size_walks += 1
        else:
            nbytes = 0
        self._nbytes[key] = nbytes
        self.total_bytes += nbytes
        max_bytes = self.max_bytes
        while data and (
            len(data) > self.maxsize or (max_bytes is not None and self.total_bytes > max_bytes)
        ):
            evicted_key, _ = data.popitem(last=False)
            self.total_bytes -= self._nbytes.pop(evicted_key, 0)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def clear(self) -> None:
        """Drop every entry (hit/miss/eviction counters are kept).

        Used when the graph a context is bound to mutates: every cached
        payload references pre-mutation state, so the whole cache is stale
        at once and entry-by-entry invalidation would be wasted work.
        """
        lock = self._lock
        if lock is None:
            return self._clear()
        with lock:
            return self._clear()

    def _clear(self) -> None:
        self._data.clear()
        self._nbytes.clear()
        self.total_bytes = 0


class SearchContext:
    """Query-scoped search state shared by the per-CTP evaluations.

    One context owns one pool; every engine run of the query *adopts* it
    (:meth:`adopt`) instead of constructing pool state internally, so

    * edge-set handles are stable across the query's CTPs — a set one CTP
      interned is found, not rebuilt, by the next, and handle-keyed caches
      survive from run to run;
    * ``rooted_cache`` maps ``(root, eset handle, config fingerprint)`` to
      the materialized payload of a reported rooted tree (edges, nodes,
      score), so a CTP that re-discovers a tree a sibling already reported
      skips re-materialization and re-scoring;
    * ``ctp_cache`` memoizes whole *complete* CTP result sets under
      ``(lineage, algorithm, seed sets, config fingerprint)`` — the
      evaluator's cross-CTP memo for repeated CTPs (same seeds, same
      filters), e.g. the same CONNECT under several tree variables or
      repeated evaluations across BGP embeddings.  The lineage rides in
      the key by *identity*, so an explicit context reused across queries
      can never serve one graph's results for another, and the LRU owns
      every reference (evicting an entry frees its seed tuples and result
      set).  Entries are stamped with the generation they are exact at
      (:meth:`memo_put` / :meth:`memo_get`), one per CTP.

    Sharing is strictly representational: per-run search state (``hist``,
    ``rooted_keys``, queues, seed masks) stays inside each engine run, so a
    shared context changes no search outcome — only how much work each run
    repeats.  Adoption is refused (the engine falls back to a private
    pool) when the run's graph is not of the context's graph lineage;
    refusals are counted, never raised.

    ``thread_safe=True`` builds the concurrency-safe variant for the
    parallel dispatcher (:mod:`repro.query.parallel`): the pool is an
    ``EdgeSetPool(thread_safe=True)``, both caches lock their LRU
    mutations, and one context lock serializes :meth:`adopt`'s
    graph-binding check and the ``memo_carried`` count.  ``*_cache_bytes``
    optionally bound each cache by approximate payload bytes
    (:func:`approx_bytes`) on top of the entry-count bound — the memory
    bound that matters for explicit long-lived contexts.
    """

    __slots__ = (
        "thread_safe",
        "pool",
        "rooted_cache",
        "ctp_cache",
        "runs",
        "rejects",
        "generation_flushes",
        "rebinds",
        "memo_carried",
        "_graph",
        "_graph_generation",
        "_lock",
    )

    def __init__(
        self,
        ctp_cache_size: int = 64,
        rooted_cache_size: int = 8192,
        thread_safe: bool = False,
        ctp_cache_bytes: Optional[int] = None,
        rooted_cache_bytes: Optional[int] = None,
    ):
        self.thread_safe = thread_safe
        self.pool = EdgeSetPool(thread_safe)
        self.rooted_cache = ResultCache(
            rooted_cache_size, max_bytes=rooted_cache_bytes, thread_safe=thread_safe
        )
        self.ctp_cache = ResultCache(
            ctp_cache_size, max_bytes=ctp_cache_bytes, thread_safe=thread_safe
        )
        self.runs = 0
        self.rejects = 0
        self.generation_flushes = 0
        self.rebinds = 0
        #: Memo entries re-stamped across a mutation and served (each is
        #: also an ordinary memo hit).
        self.memo_carried = 0
        self._graph: Optional[object] = None  # strong ref: pins id() validity
        self._graph_generation: Optional[int] = None
        self._lock = threading.Lock() if thread_safe else None

    # ------------------------------------------------------------------
    def adopt(self, graph):
        """The shared pool for an engine run, or ``None`` to refuse.

        ``graph`` is the graph the run searches: handles and
        cached payloads reference edge ids of exactly one graph, so the
        context binds itself to the first graph it sees and refuses any
        other.  Under ``thread_safe`` the first-graph binding is
        serialized so two concurrent first adoptions cannot both bind.
        """
        lock = self._lock
        if lock is None:
            return self._adopt(graph)
        with lock:
            return self._adopt(graph)

    def _adopt(self, graph):
        if self._graph is None:
            self._graph = graph
            self._graph_generation = getattr(graph, "generation", 0)
        elif self._graph is not graph:
            # MVCC views: a server pins one immutable read view per request
            # (base CSR or delta overlay), so the resolved graph object
            # changes per generation while the underlying graph — and the
            # edge-id space the interned sets reference — stays the same.
            # Views of the bound graph's lineage (shared ``view_source``,
            # or the source itself) REBIND instead of refusing: edge ids
            # are never reused across generations, so the interned sets
            # stay valid, and no flush is needed — rooted-cache keys carry
            # the generation, and memo_get vets each memo entry's stamp.
            mine = getattr(self._graph, "view_source", None) or self._graph
            theirs = getattr(graph, "view_source", None) or graph
            if mine is not theirs:
                self.rejects += 1
                return None
            self._graph = graph
            self._graph_generation = getattr(graph, "generation", 0)
            self.rebinds += 1
        else:
            generation = getattr(graph, "generation", 0)
            if generation != self._graph_generation:
                # The bound graph mutated since the last run: every cached
                # result set references pre-mutation state.  The interned
                # edge *sets* stay valid — edge ids are never reused, a set
                # of ids means the same set after an append or a weight
                # update — but the result caches must flush wholesale.
                # (A mutable graph records nothing memo_get could vet an
                # older memo entry against, so every one would miss.)
                self.rooted_cache.clear()
                self.ctp_cache.clear()
                self.generation_flushes += 1
                self._graph_generation = generation
        self.runs += 1
        return self.pool

    # ------------------------------------------------------------------
    def memo_get(self, key):
        """The memoized result set for ``key``, or ``None`` (a counted miss).

        A :class:`MemoKey` entry stamped at the view's generation is a hit;
        one stamped earlier is re-stamped and served (``memo_carried``)
        when :func:`_untouched` proves it still exact on the view, checked
        on the caller's thread; a newer one misses.  Other keys are plain
        LRU probes.
        """
        if not isinstance(key, MemoKey):
            return self.ctp_cache.get(key)
        now = _stamp(key.view)

        def current(entry: "_Stamped") -> Any:
            stamp = entry.stamp
            if stamp == now:
                return entry.result_set
            if stamp[0] < now[0] and _untouched(key, stamp):
                # A racing carry may write an older stamp back: harmless,
                # the entry is exact at every stamp it is given.
                entry.stamp = now
                with self._lock or nullcontext():
                    self.memo_carried += 1
                return entry.result_set
            return None

        return self.ctp_cache.get(key[:4], current)

    def memo_put(self, key, result_set) -> None:
        """File a complete result set, stamped with a :class:`MemoKey`'s view
        generation and never over an entry stamped at it or later."""
        if not isinstance(key, MemoKey):
            return self.ctp_cache.put(key, result_set)
        stamp = _stamp(key.view)
        self.ctp_cache.put(
            key[:4], _Stamped(stamp, result_set), keep=lambda held: held.stamp[0] >= stamp[0]
        )

    # ------------------------------------------------------------------
    @staticmethod
    def config_fingerprint(config) -> Tuple:
        """The search-relevant identity of a :class:`SearchConfig`.

        Every field that can change a result set (or its truncation) is
        included; ``parallelism`` and ``parallelism_mode`` are
        dispatch-only and deliberately absent — a parallel evaluation may
        serve (and file) the same memo entries as a serial one.
        """
        return (
            config.uni,
            config.labels,
            config.max_edges,
            config.timeout,
            config.limit,
            config.score,
            config.top_k,
            config.order,
            config.balanced_queues,
            config.balance_ratio,
            config.max_trees,
            config.strict_merge2,
            config.mo_inject_always,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def graph_fingerprint(graph) -> Tuple[int, int, int]:
        """Mutation fingerprint of a graph: counts + mutation generation.

        The count pair catches growth, but it misses *same-size* mutations
        (update an edge weight; in a future delta overlay, delete one edge
        and add another) — two different graphs with identical counts
        would collide and serve stale cached results.  The monotonic
        :attr:`~repro.graph.graph.Graph.generation` counter is bumped by
        every mutator, so folding it in invalidates entries cached before
        *any* mutation; the counts are kept for objects that predate the
        counter (``getattr`` default 0).
        """
        return (graph.num_nodes, graph.num_edges, getattr(graph, "generation", 0))

    # ------------------------------------------------------------------
    def stats_dict(self) -> Dict[str, int]:
        """Counters for the evaluator's query report / the CLI."""
        pool = self.pool
        return {
            "runs": self.runs,
            "rejects": self.rejects,
            "generation_flushes": self.generation_flushes,
            "rebinds": self.rebinds,
            "memo_carried": self.memo_carried,
            "pool_sets": len(pool),
            "pool_union_hits": pool.union_hits,
            "pool_union_misses": pool.union_misses,
            "ctp_cache_hits": self.ctp_cache.hits,
            "ctp_cache_misses": self.ctp_cache.misses,
            "ctp_cache_evictions": self.ctp_cache.evictions,
            "rooted_cache_hits": self.rooted_cache.hits,
            "rooted_cache_misses": self.rooted_cache.misses,
            "rooted_cache_evictions": self.rooted_cache.evictions,
            "ctp_cache_bytes": self.ctp_cache.total_bytes,
            "rooted_cache_bytes": self.rooted_cache.total_bytes,
        }


# ----------------------------------------------------------------------
# cross-generation memo survival
# ----------------------------------------------------------------------
class MemoKey(NamedTuple):
    """A memo key — lineage (the graph a view was pinned from, or the graph
    itself), algorithm, seed sets (node-id tuples, ``"*"`` for a wildcard)
    and config fingerprint — plus the view it is probed from, which vets
    the entry and is never cached."""

    lineage: Any
    algorithm: str
    seeds: Tuple[Any, ...]
    config: Tuple[Any, ...]
    view: Any


class _Stamped:
    """A memoized result set and the (generation, edge count) it is exact at."""

    __slots__ = ("stamp", "result_set")

    def __init__(self, stamp: Tuple[int, int], result_set: Any):
        self.stamp, self.result_set = stamp, result_set


def _stamp(view) -> Tuple[int, int]:
    return getattr(view, "generation", 0), view.num_edges


def _untouched(key: MemoKey, stamp: Tuple[int, int]) -> bool:
    """The carry rule: is the complete result set filed at ``stamp`` exact on ``key.view``?

    Cut a tree of at most k edges at one of its edges e = (u, v): the side
    holding u has a edges, the side holding v has b, a + b <= k-1, and a
    seed of S_i on u's side is within a hops of u (else within b of v).
    A minimal tree has a seed on both sides; only the BFT family also
    builds covering trees with a seedless side, which it strips before
    reporting.  So an edge appended or re-weighted since ``stamp`` for
    which no split ``a`` places a seed of every set that way (hops over
    the edges ``LABEL`` admits) lies in no tree the search reports, and
    changes no result — an edge missing the (k-1)-hop ball of some seed
    set never does.  Trees through it only take later queue tickets, so
    the old ones keep their emission order.  Excluded where the engine
    reads what new edges move — balanced queues (the least-filled pick
    counts their Grows), the LESP guard with three or more seed sets
    (seed signatures, degrees) — and without ``MAX``, with a wildcard, a
    score, ``max_trees`` or a non-size order.  One BFS per seed set,
    never wider than the complete search it replaces.
    """
    from repro.ctp.bft import BFTSearch  # the engines import this module
    from repro.ctp.registry import get_algorithm

    (_uni, labels, max_edges, _timeout, _limit, score, top_k, order, balanced, ratio,
     max_trees, _strict, _mo) = key.config
    sizes = [len(set(seeds)) for seeds in key.seeds if seeds != "*"]
    if (max_edges is None or score is not None or top_k is not None or max_trees is not None
            or order != "size" or len(sizes) < len(key.seeds)):
        return False
    if balanced is True or (balanced == "auto" and min(sizes) and max(sizes) / min(sizes) >= ratio):
        return False  # as _GAMRun._balanced_enabled resolves it
    algo = get_algorithm(key.algorithm)
    if len(sizes) >= 3 and getattr(algo, "lesp_guard", False):
        return False
    view = key.view
    touched = _touched_edges(view, stamp)
    if touched is None:
        return False
    ends = [view.edge_endpoints(e) for e in touched if labels is None or view.edge_label(e) in labels]
    radius, dists = max_edges - 1, []
    for seeds in key.seeds:
        if not ends:
            return True
        dists.append(_hops(view, seeds, radius, labels))
        ends = [(source, target) for source, target in ends if source in dists[-1] or target in dists[-1]]
    one_sided, m, far = isinstance(algo, BFTSearch), len(dists), radius + 1
    for source, target in ends:
        for a in range(radius + 1):
            near_source = {i for i, dist in enumerate(dists) if dist.get(source, far) <= a}
            near_target = {i for i, dist in enumerate(dists) if dist.get(target, far) <= radius - a}
            if len(near_source | near_target) == m and (
                one_sided or (near_source and near_target and m > 1)
            ):
                return False
    return True


def _touched_edges(view, stamp: Tuple[int, int]) -> Optional[List[int]]:
    """Edges appended or re-weighted after ``stamp`` up to ``view``, or
    ``None`` when ``view`` cannot tell.

    Only a frozen MVCC view can: its delta lists every edge re-weighted
    since its base froze, and a base a compaction built records the
    generation of the base before it and the edges re-weighted in
    between (``folded_weights``).  An entry older than that previous base
    is past the two-delta horizon and is recomputed.
    """
    generation, num_edges = stamp
    delta = getattr(view, "delta", None)
    base = view if delta is None else view.base
    if not getattr(view, "frozen", False) or getattr(base, "base_generation", None) is None:
        return None
    reweighted = set(delta.weight_overrides) if delta is not None else set()
    if generation < base.base_generation:
        folded = getattr(base, "folded_weights", None)
        if folded is None or generation < folded[0]:
            return None
        reweighted |= folded[1]
    return [*range(num_edges, view.num_edges), *(edge for edge in reweighted if edge < num_edges)]


def _hops(view, seeds: Sequence[int], radius: int, labels: Any) -> Dict[int, int]:
    """Hop distance from ``seeds`` of every node within ``radius`` undirected
    hops, over the edges ``labels`` admits."""
    hops = dict.fromkeys(seeds, 0)
    frontier = list(hops)
    for hop in range(1, radius + 1):
        reached = []
        for node in frontier:
            for _edge, other, _outgoing in view.adjacent_filtered(node, labels):
                if other not in hops:
                    hops[other] = hop
                    reached.append(other)
        frontier = reached
    return hops


def adopt_pool(context: Optional[SearchContext], graph):
    """Shared pool adoption for an engine run.

    Returns ``(pool, adopted_context, baseline)``: the pool to use (the
    context's when adoption succeeds, a fresh private one otherwise), the
    context iff adopted (``None`` tells the engine to skip context
    caches), and the pool-counter baseline for :func:`pool_stats_delta` —
    the shared pool's current state, or zeros for a private pool so the
    per-run stats keep the seed semantics (absolute values).
    """
    pool = context.adopt(graph) if context is not None else None
    if pool is None:
        return EdgeSetPool(), None, (0, 0, 0)
    return pool, context, (len(pool), pool.union_hits, pool.union_misses)


def pool_stats_delta(stats, pool, baseline) -> None:
    """Fill a run's pool counters as deltas against its adoption baseline.

    When several runs share one pool *concurrently* (a thread-safe context
    under the parallel dispatcher) the deltas attribute overlapping
    activity: counters stay monotone, so values are non-negative, but a
    run's delta includes sibling workers' interning.  Per-run pool
    attribution is only exact under serial dispatch — search-outcome
    counters (grows, merges, results) are unaffected either way.
    """
    len0, hits0, misses0 = baseline
    stats.pool_sets = len(pool) - len0
    stats.pool_union_hits = pool.union_hits - hits0
    stats.pool_union_misses = pool.union_misses - misses0
