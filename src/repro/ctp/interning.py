"""Interned tree state: hash-consed edge sets with Zobrist fingerprints.

PR 1 made adjacency cheap; after it, the GAM-family engines (Sections
4.2-4.7 of the paper) spend their time on *tree bookkeeping*: every Grow /
Merge builds a fresh ``frozenset`` of edge ids, and every history check
(``hist`` / ``rooted_keys`` / ``result_keys`` in Algorithm 4) re-hashes
those sets from scratch — O(|tree|) per event, on sets that are heavily
shared between trees.

:class:`EdgeSetPool` removes that cost by *hash-consing*: each distinct
edge set is interned once and identified by a stable small-int handle.
The two hot constructors are memoized —

``union1(set_id, edge_id)``
    the Grow step (add one edge);

``union2(id1, id2)``
    the Merge step (union two sets);

— so rebuilding a set the search has already produced is a single dict
lookup, and *membership* of a set in any history structure is an int
lookup instead of an O(|tree|) frozenset hash.  Each set carries a
deterministic Zobrist-style fingerprint — the XOR of its edges' 64-bit
codes; an edge's code is the pure function ``splitmix64(edge_id)``,
evaluated per memo miss (no code table sized by the graph's id space) —
so interning a newly materialized union needs no re-hash of the frozenset
in the common no-collision case; fingerprint collisions are resolved
exactly by set comparison, never silently.

Handles are engine-local: every search run owns one pool, ids from
different pools are unrelated (see the isolation property tests).  The
``EMPTY`` handle is 0 — deliberately falsy, mirroring ``frozenset()``
truthiness, so engine code can say ``if tree.eset:`` under either
representation.

:class:`FlatEdgeSetPool` (the ``SearchConfig(dense_ids=True)`` default)
keeps the same handles and counters but moves the pool's hot maps —
``_by_key`` and both union memos — into flat open-addressed ``array``
tables (:class:`_FpTable` / :class:`_IntTable`): at million-node scale the
dict pools spend ~100 bytes of boxed-int entry per memo, and the flat
lanes collapse that to 16 bytes per slot of contiguous storage.  Handle
numbering is identical to the dict pool for any operation sequence, so
dense and legacy searches stay bit-identical.

:class:`FrozenEdgeSets` is the identity-shim counterpart used when
``SearchConfig(interning=False)``: handles *are* frozensets and every
operation is the seed implementation's frozenset arithmetic.  It exists so
the engines keep a single code path and so the micro-bench
(``python -m repro.bench interning``) can measure exactly what the pool
buys on identical workloads.

:class:`SearchContext` scopes the pool to a *query* instead of a single
CTP evaluation (Section 3's pipeline runs one search per CTP): all CTPs of
a query intern into the same pool — so edge sets a sibling CTP already
built are memo hits instead of fresh allocations, and handles are
comparable across runs — and two bounded caches ride on top of the shared
handles: a per-root cache of materialized rooted-tree results keyed by
``(root, eset handle, config fingerprint)``, and the evaluator's
cross-CTP memo of whole result sets keyed by graph, seed sets, and config
fingerprint.  Both caches are bounded LRU (:class:`ResultCache`) — by
entry count and, optionally, by approximate payload bytes — and own every
reference they hold, so a long-lived context cannot grow without limit.

``SearchContext(thread_safe=True)`` makes all of that state safe to share
across the worker threads of a parallel dispatch
(:mod:`repro.query.parallel`): the pool becomes a
:class:`ShardedEdgeSetPool` — the exact-interning step is serialized per
*fingerprint shard*, so two threads interning different sets almost never
contend, while two threads interning the *same* set are forced through one
shard lock and get one handle — and both caches take a lock around their
LRU mutations.  Sharing stays representation-only either way: a search
never reads another run's private state, so results are identical no
matter how runs interleave.
"""

from __future__ import annotations

import sys
import threading
from array import array
from collections import OrderedDict
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.errors import SearchError

_MASK64 = (1 << 64) - 1


def splitmix64(index: int) -> int:
    """The splitmix64 mix of ``index`` — the Zobrist code of edge ``index``.

    Deterministic (no process-level randomness), well-distributed, and a
    pure function: pools evaluate it per memo miss and keep no table.
    """
    x = (index * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def fingerprint_of(edges: Iterable[int]) -> int:
    """The Zobrist fingerprint of an edge set: the XOR of its edges' codes."""
    fp = 0
    for edge_id in edges:
        fp ^= splitmix64(edge_id)
    return fp


class EdgeSetPool:
    """Hash-consing pool assigning small-int handles to edge sets.

    Invariants:

    * handle 0 is the empty set (``EMPTY``), so handles are falsy exactly
      when the set is empty;
    * interning is *exact* — two handles are equal iff the sets are equal
      (fingerprint collisions fall back to set comparison);
    * ``union1``/``union2`` accept any operands (overlap included); the
      disjointness the engines guarantee (Grow never re-adds a tree edge,
      Merge1 operands share only the root) only makes the memoized fast
      path cheaper, it is not a correctness requirement.
    """

    EMPTY = 0

    #: Memo/bucket keys are packed into single ints (``a << SHIFT | b``)
    #: instead of tuples — one small-int hash beats a tuple allocation in
    #: the hot constructors.  Handles and edge ids must stay below 2**32:
    #: :func:`adopt_pool` refuses graphs whose edge ids would alias.
    _SHIFT = 32

    __slots__ = (
        "_recs",
        "_by_key",
        "_union1",
        "_union2",
        "union_hits",
        "collisions",
    )

    def __init__(self) -> None:
        #: Per-handle record ``(edges, fingerprint, size)`` — fused into
        #: one list so the hot constructors do a single index per operand.
        self._recs: List[Tuple[FrozenSet[int], int, int]] = [(frozenset(), 0, 0)]
        #: packed (fingerprint, size) -> handle, or list of handles when
        #: distinct sets collide on the full 64-bit fingerprint.
        self._by_key: Dict[int, Union[int, List[int]]] = {0: 0}
        self._union1: Dict[int, int] = {}
        self._union2: Dict[int, int] = {}
        self.union_hits = 0
        self.collisions = 0

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def edges(self, set_id: int) -> FrozenSet[int]:
        """The interned set behind ``set_id`` (shared, do not mutate)."""
        return self._recs[set_id][0]

    def size(self, set_id: int) -> int:
        return self._recs[set_id][2]

    def fingerprint(self, set_id: int) -> int:
        """The 64-bit Zobrist fingerprint (XOR of per-edge codes)."""
        return self._recs[set_id][1]

    @property
    def union_misses(self) -> int:
        """Memo misses so far — every miss files exactly one memo entry,
        so the count is the combined memo size (no hot-path counter)."""
        return len(self._union1) + len(self._union2)

    def __len__(self) -> int:
        """Number of distinct edge sets interned so far."""
        return len(self._recs)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _intern(self, edges: FrozenSet[int], fp: int, size: int) -> int:
        """Exact interning of a *materialized* set (slow path)."""
        bkey = (fp << self._SHIFT) | size
        existing = self._by_key.get(bkey)
        if existing is None:
            set_id = self._new_id(edges, fp, size)
            self._by_key[bkey] = set_id
            return set_id
        if isinstance(existing, int):
            if self._recs[existing][0] == edges:
                return existing
            # Genuine 64-bit fingerprint collision: resolve exactly.
            self.collisions += 1
            set_id = self._new_id(edges, fp, size)
            self._by_key[bkey] = [existing, set_id]
            return set_id
        for candidate in existing:
            if self._recs[candidate][0] == edges:
                return candidate
        self.collisions += 1
        set_id = self._new_id(edges, fp, size)
        existing.append(set_id)
        return set_id

    def _new_id(self, edges: FrozenSet[int], fp: int, size: int) -> int:
        recs = self._recs
        set_id = len(recs)
        recs.append((edges, fp, size))
        return set_id

    def intern(self, edge_ids: Iterable[int]) -> int:
        """Intern an arbitrary edge collection; returns its handle."""
        edges = frozenset(edge_ids)
        fp = fingerprint_of(edges)
        return self._intern(edges, fp, len(edges))

    def union1(self, set_id: int, edge_id: int) -> int:
        """Handle of ``set(set_id) | {edge_id}`` — the memoized Grow step.

        Miss-path discipline: the result's fingerprint is one XOR away, so
        a set the pool has *already interned* (reached through a different
        Grow/Merge path) is found by fingerprint and verified with
        allocation-free subset checks — no union is built, nothing is
        re-hashed.  Only genuinely new sets are materialized.
        """
        key = (set_id << self._SHIFT) | edge_id
        memo = self._union1
        out = memo.get(key)
        if out is not None:
            self.union_hits += 1
            return out
        recs = self._recs
        base, base_fp, base_size = recs[set_id]
        if edge_id in base:
            memo[key] = set_id
            return set_id
        fp = base_fp ^ splitmix64(edge_id)
        size = base_size + 1
        bkey = (fp << self._SHIFT) | size
        existing = self._by_key.get(bkey)
        out = self._match_union1(existing, base, edge_id)
        if out is None:
            out = self._store_new(base | {edge_id}, fp, size, bkey, existing)
        memo[key] = out
        return out

    def _match_union1(self, existing, base: FrozenSet[int], edge_id: int) -> Optional[int]:
        """Verified candidate under a bucket key: base ⊆ c ∧ e ∈ c ∧
        |c| = |base|+1 ⟹ c = base ∪ {e}, without materializing the union."""
        if existing is None:
            return None
        recs = self._recs
        if type(existing) is int:
            candidate_set = recs[existing][0]
            if edge_id in candidate_set and base <= candidate_set:
                return existing
            return None
        for candidate in existing:
            candidate_set = recs[candidate][0]
            if edge_id in candidate_set and base <= candidate_set:
                return candidate
        return None

    def union2(self, id1: int, id2: int) -> int:
        """Handle of the union of two interned sets — the memoized Merge.

        Same miss-path discipline as :meth:`union1`: for disjoint operands
        (what Merge1 hands us) the union's fingerprint is ``fp1 ^ fp2``,
        and an already-interned result is recognized by two subset checks
        instead of building and hashing a frozenset.
        """
        if id1 == id2:
            return id1
        if id1 > id2:
            id1, id2 = id2, id1
        if not id1:  # union with the empty set
            return id2
        key = (id1 << self._SHIFT) | id2
        memo = self._union2
        out = memo.get(key)
        if out is not None:
            self.union_hits += 1
            return out
        recs = self._recs
        a, a_fp, a_size = recs[id1]
        b, b_fp, b_size = recs[id2]
        if a.isdisjoint(b):
            fp = a_fp ^ b_fp
            size = a_size + b_size
            bkey = (fp << self._SHIFT) | size
            existing = self._by_key.get(bkey)
            out = self._match_union2(existing, a, b)
            if out is None:
                out = self._store_new(a | b, fp, size, bkey, existing)
        else:
            # Overlapping operands (never produced by the engines' Merge1,
            # but the pool stays total): XOR cancelled the shared edges
            # twice; fold them back in and intern the materialized union.
            edges = a | b
            fp = a_fp ^ b_fp ^ fingerprint_of(a & b)
            out = self._intern(edges, fp, len(edges))
        memo[key] = out
        return out

    def _match_union2(self, existing, a: FrozenSet[int], b: FrozenSet[int]) -> Optional[int]:
        """Verified candidate for a disjoint union: a ⊆ c ∧ b ⊆ c ∧
        |c| = |a|+|b| ⟹ c = a ∪ b."""
        if existing is None:
            return None
        recs = self._recs
        if type(existing) is int:
            candidate_set = recs[existing][0]
            if a <= candidate_set and b <= candidate_set:
                return existing
            return None
        for candidate in existing:
            candidate_set = recs[candidate][0]
            if a <= candidate_set and b <= candidate_set:
                return candidate
        return None

    def _store_new(self, edges: FrozenSet[int], fp: int, size: int, bkey: int, existing) -> int:
        """Register a set that failed candidate verification under ``bkey``."""
        set_id = self._new_id(edges, fp, size)
        if existing is None:
            self._by_key[bkey] = set_id
        elif isinstance(existing, int):
            self.collisions += 1
            self._by_key[bkey] = [existing, set_id]
        else:
            self.collisions += 1
            existing.append(set_id)
        return set_id


class ShardedEdgeSetPool(EdgeSetPool):
    """A thread-safe :class:`EdgeSetPool`: exact interning sharded by fingerprint.

    The pool's one correctness-critical race is the check-then-insert of
    ``_by_key`` — two threads interning the *same* new set must not both
    miss the lookup and allocate two handles.  Equal sets always have equal
    fingerprints, so serializing that step per **fingerprint shard**
    (``fp & (shards-1)`` picks the lock) closes the race while letting
    threads interning different sets proceed without contention; the shard
    lock is taken only on the slow path (memo miss + unverified bucket),
    never on a memo hit.

    Remaining shared state, and why it needs no shard lock under CPython:

    * ``_union1`` / ``_union2`` memo reads and writes are single dict ops
      (atomic under the GIL); concurrent writers racing on one key always
      write the *same* canonical handle, because the handle itself came out
      of the serialized interning step — the write is idempotent;
    * ``_recs`` appends go through one allocation lock so handle numbering
      is gap-free; published records are immutable, and a reader can only
      hold a handle that was published *after* its record was appended;
    * edge codes are the pure function :func:`splitmix64` — no shared
      table, so two threads always compute one fingerprint for one set;
    * ``union_hits`` / ``collisions`` are telemetry: lost increments under
      contention are tolerated, counters stay approximate lower bounds.

    Handle *numbering* depends on thread interleaving (unlike the serial
    pool), but handles are opaque identities — the engines never order by
    them — so search results are unaffected; see tests/test_parallel.py.
    """

    #: Power of two; 16 shards keep contention negligible at the worker
    #: counts the dispatcher uses (≤ CPU count) without a lock per bucket.
    NUM_SHARDS = 16

    __slots__ = ("_shard_locks", "_alloc_lock")

    def __init__(self) -> None:
        super().__init__()
        self._shard_locks = [threading.Lock() for _ in range(self.NUM_SHARDS)]
        self._alloc_lock = threading.Lock()

    # -- locked primitives ---------------------------------------------
    def _new_id(self, edges: FrozenSet[int], fp: int, size: int) -> int:
        with self._alloc_lock:
            return super()._new_id(edges, fp, size)

    # -- sharded constructors ------------------------------------------
    def intern(self, edge_ids: Iterable[int]) -> int:
        edges = frozenset(edge_ids)
        fp = fingerprint_of(edges)
        with self._shard_locks[fp & (self.NUM_SHARDS - 1)]:
            return self._intern(edges, fp, len(edges))

    def union1(self, set_id: int, edge_id: int) -> int:
        key = (set_id << self._SHIFT) | edge_id
        memo = self._union1
        out = memo.get(key)
        if out is not None:
            self.union_hits += 1
            return out
        base, base_fp, base_size = self._recs[set_id]
        if edge_id in base:
            memo[key] = set_id
            return set_id
        fp = base_fp ^ splitmix64(edge_id)
        size = base_size + 1
        bkey = (fp << self._SHIFT) | size
        with self._shard_locks[fp & (self.NUM_SHARDS - 1)]:
            existing = self._by_key.get(bkey)
            out = self._match_union1(existing, base, edge_id)
            if out is None:
                out = self._store_new(base | {edge_id}, fp, size, bkey, existing)
        memo[key] = out
        return out

    def union2(self, id1: int, id2: int) -> int:
        if id1 == id2:
            return id1
        if id1 > id2:
            id1, id2 = id2, id1
        if not id1:
            return id2
        key = (id1 << self._SHIFT) | id2
        memo = self._union2
        out = memo.get(key)
        if out is not None:
            self.union_hits += 1
            return out
        recs = self._recs
        a, a_fp, a_size = recs[id1]
        b, b_fp, b_size = recs[id2]
        if a.isdisjoint(b):
            fp = a_fp ^ b_fp
            size = a_size + b_size
            bkey = (fp << self._SHIFT) | size
            with self._shard_locks[fp & (self.NUM_SHARDS - 1)]:
                existing = self._by_key.get(bkey)
                out = self._match_union2(existing, a, b)
                if out is None:
                    out = self._store_new(a | b, fp, size, bkey, existing)
        else:
            edges = a | b
            fp = a_fp ^ b_fp ^ fingerprint_of(a & b)
            with self._shard_locks[fp & (self.NUM_SHARDS - 1)]:
                out = self._intern(edges, fp, len(edges))
        memo[key] = out
        return out


#: Empty-slot byte pattern: an ``array('q')`` of -1s marks every slot free
#: (keys/handles are always >= 0, so -1 can never collide with a live entry;
#: 0 cannot serve as the marker because key 0 and handle 0 are both legal).
def _minus_ones(capacity: int) -> array:
    return array("q", b"\xff" * (8 * capacity))


class _IntTable:
    """Flat open-addressed int→int map: the pool's memo lanes.

    Two parallel ``array('q')`` lanes (keys / values) with linear probing —
    the cache-dense replacement for the ``_union1``/``_union2`` dicts,
    whose boxed-int entries scatter ~100 bytes per memo across the heap.
    Slot choice is Fibonacci hashing folded over both halves of the packed
    64-bit key (``set_id << 32 | operand``): consecutive handle/edge pairs
    land on unrelated slots instead of clustering a linear-probe run.

    Writes publish value-before-key so a lock-free reader (the sharded
    pool's memo-hit fast path) either misses a half-written entry or sees
    it complete; growth builds a whole new table for the owner to swap in
    one reference assignment.  ``put`` assumes a free slot exists — owners
    grow at 3/4 load *before* inserting.
    """

    __slots__ = ("keys", "vals", "mask", "filled", "limit")

    def __init__(self, capacity: int = 1024) -> None:
        # capacity must be a power of two (mask-wrapped probing).
        self.keys = _minus_ones(capacity)
        self.vals = array("q", bytes(8 * capacity))
        self.mask = capacity - 1
        self.filled = 0
        self.limit = capacity - (capacity >> 2)

    def get(self, key: int) -> int:
        """The stored value, or -1 (values are handles, always >= 0)."""
        keys = self.keys
        mask = self.mask
        h = (key * 0x9E3779B97F4A7C15) & _MASK64
        slot = (h ^ (h >> 32)) & mask
        while True:
            k = keys[slot]
            if k == key:
                return self.vals[slot]
            if k == -1:
                return -1
            slot = (slot + 1) & mask

    def put(self, key: int, val: int) -> None:
        keys = self.keys
        mask = self.mask
        h = (key * 0x9E3779B97F4A7C15) & _MASK64
        slot = (h ^ (h >> 32)) & mask
        while True:
            k = keys[slot]
            if k == -1:
                self.vals[slot] = val
                keys[slot] = key  # publish after the value is in place
                self.filled += 1
                return
            if k == key:
                self.vals[slot] = val
                return
            slot = (slot + 1) & mask

    def grown(self) -> "_IntTable":
        new = _IntTable(2 * (self.mask + 1))
        keys = self.keys
        vals = self.vals
        for slot, k in enumerate(keys):
            if k != -1:
                new.put(k, vals[slot])
        return new


class _FpTable:
    """Flat open-addressed fingerprint→handle *multimap*: ``_by_key`` flattened.

    Parallel ``array('Q')`` fingerprints and ``array('q')`` handles.  Unlike
    the dict, colliding sets (same fingerprint — or same fingerprint and
    size) are not chained in a side list: they simply occupy successive
    probe slots, and a lookup walks **every** slot whose fingerprint
    matches until the probe run ends, exactly verifying each candidate
    against the caller's set — the dict pool's exact-verification fallback,
    preserved slot by slot.  Fingerprints are splitmix64 XORs (uniform), so
    the raw fingerprint is its own hash.

    Writes publish fingerprint-before-handle (a probe only considers slots
    with ``handle >= 0``); occupancy is monotone (no deletions), so a
    lock-free probe that ends at a free slot has seen every published entry
    of its fingerprint.
    """

    __slots__ = ("fps", "ids", "mask", "filled", "limit")

    def __init__(self, capacity: int = 1024) -> None:
        self.fps = array("Q", bytes(8 * capacity))
        self.ids = _minus_ones(capacity)
        self.mask = capacity - 1
        self.filled = 0
        self.limit = capacity - (capacity >> 2)

    def insert(self, fp: int, set_id: int) -> None:
        """File ``fp -> set_id`` in the first free probe slot (no growth)."""
        fps = self.fps
        ids = self.ids
        mask = self.mask
        slot = fp & mask
        while ids[slot] >= 0:
            slot = (slot + 1) & mask
        fps[slot] = fp
        ids[slot] = set_id  # publish after the fingerprint is in place
        self.filled += 1

    def grown(self) -> "_FpTable":
        new = _FpTable(2 * (self.mask + 1))
        fps = self.fps
        ids = self.ids
        for slot, sid in enumerate(ids):
            if sid >= 0:
                new.insert(fps[slot], sid)
        return new


class FlatEdgeSetPool(EdgeSetPool):
    """An :class:`EdgeSetPool` whose hot maps live in flat arrays.

    Same handles, same counters, same exact-interning guarantees — given
    one operation sequence this pool assigns the identical handle numbering
    and hit/miss/collision counts as the dict pool, so searches over either
    are bit-identical.  What changes is the storage: the ``_by_key`` dict
    becomes an open-addressed fingerprint table (:class:`_FpTable`) and the
    two union memos become flat int lanes (:class:`_IntTable`) — contiguous
    ``array`` storage instead of one boxed-int dict entry per memo, which
    is what keeps the pool's footprint sane when a million-node search
    interns hundreds of thousands of sets.  Selected by
    ``SearchConfig(dense_ids=True)`` (the default); the dict pool remains
    the ``dense_ids=False`` A/B baseline.
    """

    __slots__ = ("_fp_t", "_u1", "_u2")

    def __init__(self) -> None:
        super().__init__()
        # The dict maps are dead weight here; None them so any base-class
        # path that was missed fails loudly instead of diverging silently.
        self._by_key = None
        self._union1 = None
        self._union2 = None
        self._fp_t = _FpTable()
        self._fp_t.insert(0, 0)  # the EMPTY record (fp 0, handle 0)
        self._u1 = _IntTable()
        self._u2 = _IntTable()

    @property
    def union_misses(self) -> int:
        """Memo misses = memo entries filed, as in the dict pool."""
        return self._u1.filled + self._u2.filled

    # -- flat-table plumbing -------------------------------------------
    def _insert_fp(self, fp: int, set_id: int) -> None:
        t = self._fp_t
        if t.filled >= t.limit:
            self._fp_t = t = t.grown()
        t.insert(fp, set_id)

    def _u1_put(self, key: int, val: int) -> None:
        t = self._u1
        if t.filled >= t.limit:
            self._u1 = t = t.grown()
        t.put(key, val)

    def _u2_put(self, key: int, val: int) -> None:
        t = self._u2
        if t.filled >= t.limit:
            self._u2 = t = t.grown()
        t.put(key, val)

    # -- interning over the fingerprint table --------------------------
    def _intern(self, edges: FrozenSet[int], fp: int, size: int) -> int:
        t = self._fp_t
        fps = t.fps
        ids = t.ids
        mask = t.mask
        recs = self._recs
        slot = fp & mask
        bucket_seen = False
        while True:
            sid = ids[slot]
            if sid < 0:
                break
            if fps[slot] == fp:
                rec = recs[sid]
                if rec[2] == size:
                    if rec[0] == edges:
                        return sid
                    bucket_seen = True  # same (fp, size), different set
            slot = (slot + 1) & mask
        if bucket_seen:
            self.collisions += 1
        set_id = self._new_id(edges, fp, size)
        self._insert_fp(fp, set_id)
        return set_id

    def _union1_slow(self, base: FrozenSet[int], edge_id: int, fp: int, size: int) -> int:
        """Find-or-create ``base | {edge_id}`` by fingerprint (memo missed).

        Candidate verification is the dict pool's, with the bucket's size
        component checked explicitly (the dict packed it into the key):
        ``|c| = |base|+1 ∧ e ∈ c ∧ base ⊆ c ⟹ c = base ∪ {e}``.
        """
        t = self._fp_t
        fps = t.fps
        ids = t.ids
        mask = t.mask
        recs = self._recs
        slot = fp & mask
        bucket_seen = False
        while True:
            sid = ids[slot]
            if sid < 0:
                break
            if fps[slot] == fp:
                rec = recs[sid]
                if rec[2] == size:
                    candidate = rec[0]
                    if edge_id in candidate and base <= candidate:
                        return sid
                    bucket_seen = True
            slot = (slot + 1) & mask
        if bucket_seen:
            self.collisions += 1
        set_id = self._new_id(base | {edge_id}, fp, size)
        self._insert_fp(fp, set_id)
        return set_id

    def _union2_slow(self, a: FrozenSet[int], b: FrozenSet[int], fp: int, size: int) -> int:
        """Find-or-create the disjoint union ``a | b`` by fingerprint."""
        t = self._fp_t
        fps = t.fps
        ids = t.ids
        mask = t.mask
        recs = self._recs
        slot = fp & mask
        bucket_seen = False
        while True:
            sid = ids[slot]
            if sid < 0:
                break
            if fps[slot] == fp:
                rec = recs[sid]
                if rec[2] == size:
                    candidate = rec[0]
                    if a <= candidate and b <= candidate:
                        return sid
                    bucket_seen = True
            slot = (slot + 1) & mask
        if bucket_seen:
            self.collisions += 1
        set_id = self._new_id(a | b, fp, size)
        self._insert_fp(fp, set_id)
        return set_id

    # -- memoized constructors -----------------------------------------
    def union1(self, set_id: int, edge_id: int) -> int:
        key = (set_id << self._SHIFT) | edge_id
        out = self._u1.get(key)
        if out >= 0:
            self.union_hits += 1
            return out
        base, base_fp, base_size = self._recs[set_id]
        if edge_id in base:
            self._u1_put(key, set_id)
            return set_id
        fp = base_fp ^ splitmix64(edge_id)
        out = self._union1_slow(base, edge_id, fp, base_size + 1)
        self._u1_put(key, out)
        return out

    def union2(self, id1: int, id2: int) -> int:
        if id1 == id2:
            return id1
        if id1 > id2:
            id1, id2 = id2, id1
        if not id1:
            return id2
        key = (id1 << self._SHIFT) | id2
        out = self._u2.get(key)
        if out >= 0:
            self.union_hits += 1
            return out
        recs = self._recs
        a, a_fp, a_size = recs[id1]
        b, b_fp, b_size = recs[id2]
        if a.isdisjoint(b):
            out = self._union2_slow(a, b, a_fp ^ b_fp, a_size + b_size)
        else:
            edges = a | b
            fp = a_fp ^ b_fp ^ fingerprint_of(a & b)
            out = self._intern(edges, fp, len(edges))
        self._u2_put(key, out)
        return out


class ShardedFlatEdgeSetPool(FlatEdgeSetPool):
    """The thread-safe :class:`FlatEdgeSetPool` — flat storage under the
    sharded pool's locking discipline.

    The *decision* "no equal set exists, allocate a handle" is serialized
    per fingerprint shard exactly as in :class:`ShardedEdgeSetPool` (equal
    sets have equal fingerprints, so same-set racers share a shard lock).
    What flat storage adds is that the physical structures are shared
    arrays, so every **mutation** — fingerprint-table insert, memo put,
    growth — additionally funnels through one table lock (writes are
    miss-path-only, so this lock sees a small fraction of traffic).
    Readers stay lock-free: they snapshot the table object once (growth
    swaps in a whole new table, never mutates a published one), probes see
    entries only after their value-before-key publication completes, and
    occupancy is monotone — a probe ending at a free slot has seen every
    published entry of its fingerprint.  A racing reader that misses an
    in-flight entry simply falls to the locked slow path and re-resolves.

    Shard-probe staleness is harmless for correctness for the same reason
    it is in the dict pool: only same-fingerprint inserts could invalidate
    a "not found" decision, and those are serialized by the shard lock.
    """

    NUM_SHARDS = 16

    __slots__ = ("_shard_locks", "_alloc_lock", "_table_lock")

    def __init__(self) -> None:
        super().__init__()
        self._shard_locks = [threading.Lock() for _ in range(self.NUM_SHARDS)]
        self._alloc_lock = threading.Lock()
        self._table_lock = threading.Lock()

    # -- locked primitives ---------------------------------------------
    def _new_id(self, edges: FrozenSet[int], fp: int, size: int) -> int:
        with self._alloc_lock:
            return EdgeSetPool._new_id(self, edges, fp, size)

    def _insert_fp(self, fp: int, set_id: int) -> None:
        with self._table_lock:
            super()._insert_fp(fp, set_id)

    def _u1_put(self, key: int, val: int) -> None:
        with self._table_lock:
            super()._u1_put(key, val)

    def _u2_put(self, key: int, val: int) -> None:
        with self._table_lock:
            super()._u2_put(key, val)

    # -- sharded constructors ------------------------------------------
    def intern(self, edge_ids: Iterable[int]) -> int:
        edges = frozenset(edge_ids)
        fp = fingerprint_of(edges)
        with self._shard_locks[fp & (self.NUM_SHARDS - 1)]:
            return self._intern(edges, fp, len(edges))

    def union1(self, set_id: int, edge_id: int) -> int:
        key = (set_id << self._SHIFT) | edge_id
        out = self._u1.get(key)
        if out >= 0:
            self.union_hits += 1
            return out
        base, base_fp, base_size = self._recs[set_id]
        if edge_id in base:
            self._u1_put(key, set_id)
            return set_id
        fp = base_fp ^ splitmix64(edge_id)
        with self._shard_locks[fp & (self.NUM_SHARDS - 1)]:
            out = self._union1_slow(base, edge_id, fp, base_size + 1)
        self._u1_put(key, out)
        return out

    def union2(self, id1: int, id2: int) -> int:
        if id1 == id2:
            return id1
        if id1 > id2:
            id1, id2 = id2, id1
        if not id1:
            return id2
        key = (id1 << self._SHIFT) | id2
        out = self._u2.get(key)
        if out >= 0:
            self.union_hits += 1
            return out
        recs = self._recs
        a, a_fp, a_size = recs[id1]
        b, b_fp, b_size = recs[id2]
        if a.isdisjoint(b):
            fp = a_fp ^ b_fp
            with self._shard_locks[fp & (self.NUM_SHARDS - 1)]:
                out = self._union2_slow(a, b, fp, a_size + b_size)
        else:
            edges = a | b
            fp = a_fp ^ b_fp ^ fingerprint_of(a & b)
            with self._shard_locks[fp & (self.NUM_SHARDS - 1)]:
                out = self._intern(edges, fp, len(edges))
        self._u2_put(key, out)
        return out


class FrozenEdgeSets:
    """The identity pool: handles *are* frozensets (the seed representation).

    Selected with ``SearchConfig(interning=False)``; used as the baseline of
    the interning micro-bench and the live half of the equivalence suite.
    Stateless apart from telemetry counters, so one instance is safe to
    share across threads as-is (lost counter increments tolerated).
    """

    EMPTY: FrozenSet[int] = frozenset()

    __slots__ = ("union_hits", "union_misses", "collisions")

    def __init__(self) -> None:
        self.union_hits = 0
        self.union_misses = 0
        self.collisions = 0

    def edges(self, set_id: FrozenSet[int]) -> FrozenSet[int]:
        return set_id

    def size(self, set_id: FrozenSet[int]) -> int:
        return len(set_id)

    def __len__(self) -> int:
        return 0  # nothing is interned

    def intern(self, edge_ids: Iterable[int]) -> FrozenSet[int]:
        return frozenset(edge_ids)

    def union1(self, set_id: FrozenSet[int], edge_id: int) -> FrozenSet[int]:
        return set_id | {edge_id}

    def union2(self, id1: FrozenSet[int], id2: FrozenSet[int]) -> FrozenSet[int]:
        return id1 | id2


def make_pool(interning: bool, thread_safe: bool = False, dense_ids: bool = True):
    """The pool implementation for a run: interned (sharded when shared
    across threads) or the frozenset fallback (inherently shareable).

    ``dense_ids`` picks the flat-array pool storage (the default); the dict
    pools remain the ``dense_ids=False`` A/B baseline.  Both assign the
    same handle numbering for a given operation sequence."""
    if not interning:
        return FrozenEdgeSets()
    if dense_ids:
        return ShardedFlatEdgeSetPool() if thread_safe else FlatEdgeSetPool()
    return ShardedEdgeSetPool() if thread_safe else EdgeSetPool()


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

    def get(self, key):
        lock = self._lock
        if lock is None:
            return self._get(key)
        with lock:
            return self._get(key)

    def _get(self, key):
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        if value is None:
            raise ValueError("ResultCache cannot store None")
        lock = self._lock
        if lock is None:
            return self._put(key, value)
        with lock:
            return self._put(key, value)

    def _put(self, key, value) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
            if data[key] is value:
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
      interned is a memo hit for the next, and handle-keyed caches survive
      from run to run;
    * ``rooted_cache`` maps ``(root, eset handle, config fingerprint)`` to
      the materialized payload of a reported rooted tree (edges, nodes,
      score), so a CTP that re-discovers a tree a sibling already reported
      skips re-materialization and re-scoring;
    * ``ctp_cache`` memoizes whole *complete* CTP result sets under
      ``(graph, algorithm, seed sets, config fingerprint)`` — the
      evaluator's cross-CTP memo for repeated CTPs (same seeds, same
      filters), e.g. the same CONNECT under several tree variables or
      repeated evaluations across BGP embeddings.  The graph rides in the
      key by *identity*, so an explicit context reused across queries can
      never serve one graph's results for another, and the LRU owns every
      reference (evicting an entry frees its seed tuples and result set).

    Sharing is strictly representational: per-run search state (``hist``,
    ``rooted_keys``, queues, seed masks) stays inside each engine run, so a
    shared context changes no search outcome — only how much work each run
    repeats.  Adoption is refused (the engine falls back to a private
    pool) when the run's graph or interning mode differs from the
    context's; refusals are counted, never raised.

    ``thread_safe=True`` builds the concurrency-safe variant for the
    parallel dispatcher (:mod:`repro.query.parallel`): the pool is a
    :class:`ShardedEdgeSetPool`, both caches lock their LRU mutations, and
    :meth:`adopt` serializes its graph-binding check.  ``*_cache_bytes``
    optionally bound each cache by approximate payload bytes
    (:func:`approx_bytes`) on top of the entry-count bound — the memory
    bound that matters for explicit long-lived contexts.
    """

    __slots__ = (
        "interning",
        "dense_ids",
        "thread_safe",
        "pool",
        "rooted_cache",
        "ctp_cache",
        "runs",
        "rejects",
        "generation_flushes",
        "rebinds",
        "_graph",
        "_graph_generation",
        "_adopt_lock",
    )

    def __init__(
        self,
        interning: bool = True,
        ctp_cache_size: int = 64,
        rooted_cache_size: int = 8192,
        thread_safe: bool = False,
        ctp_cache_bytes: Optional[int] = None,
        rooted_cache_bytes: Optional[int] = None,
        dense_ids: bool = True,
    ):
        self.interning = interning
        self.dense_ids = dense_ids
        self.thread_safe = thread_safe
        self.pool = make_pool(interning, thread_safe, dense_ids)
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
        self._graph: Optional[object] = None  # strong ref: pins id() validity
        self._graph_generation: Optional[int] = None
        self._adopt_lock = threading.Lock() if thread_safe else None

    # ------------------------------------------------------------------
    def adopt(self, graph, interning: bool, dense_ids: bool = True):
        """The shared pool for an engine run, or ``None`` to refuse.

        ``graph`` must be the run's *resolved* backend graph: handles and
        cached payloads reference edge ids of exactly one graph, so the
        context binds itself to the first graph it sees and refuses any
        other (and any run whose interning or dense-ids mode differs from
        the pool's — the pool's physical storage is one or the other).
        Under ``thread_safe`` the first-graph binding is serialized so two
        concurrent first adoptions cannot both bind.
        """
        lock = self._adopt_lock
        if lock is None:
            return self._adopt(graph, interning, dense_ids)
        with lock:
            return self._adopt(graph, interning, dense_ids)

    def _adopt(self, graph, interning: bool, dense_ids: bool):
        if interning != self.interning or dense_ids != self.dense_ids:
            self.rejects += 1
            return None
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
            # stay valid, and both result caches carry graph identity
            # and/or generation fingerprints in their keys, so no flush is
            # needed — entries for other generations simply stop hitting.
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
                # (Cross-CTP memo keys also carry graph_fingerprint, so
                # they would miss anyway; the rooted-result cache has no
                # graph component in its key and relies on this flush.)
                self.rooted_cache.clear()
                self.ctp_cache.clear()
                self.generation_flushes += 1
                self._graph_generation = generation
        self.runs += 1
        return self.pool

    # ------------------------------------------------------------------
    @staticmethod
    def config_fingerprint(config) -> Tuple:
        """The search-relevant identity of a :class:`SearchConfig`.

        Every field that can change a result set (or its truncation) is
        included; ``shared_context``, ``parallelism``, and ``scheduling``
        are representation/dispatch-only and deliberately absent — a
        parallel (or cost-model-scheduled) evaluation may serve (and
        file) the same memo entries as a serial one.
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
            config.backend,
            config.interning,
            config.strict_merge2,
            config.mo_inject_always,
            config.dense_ids,
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


def adopt_pool(context: Optional[SearchContext], graph, interning: bool, dense_ids: bool = True):
    """Shared pool adoption for an engine run.

    Returns ``(pool, adopted_context, baseline)``: the pool to use (the
    context's when adoption succeeds, a fresh private one otherwise), the
    context iff adopted (``None`` tells the engine to skip context
    caches), and the pool-counter baseline for :func:`pool_stats_delta` —
    the shared pool's current state, or zeros for a private pool so the
    per-run stats keep the seed semantics (absolute values).  Raises
    :class:`~repro.errors.SearchError` when the graph's edge ids do not fit
    the pool's packed memo keys (they would alias silently otherwise).
    """
    shift = EdgeSetPool._SHIFT
    if interning and graph.num_edges > 1 << shift:
        raise SearchError(f"graph has {graph.num_edges} edges; pool memo keys pack ids into {shift} bits")
    pool = context.adopt(graph, interning, dense_ids) if context is not None else None
    if pool is None:
        return make_pool(interning, dense_ids=dense_ids), None, (0, 0, 0)
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
