"""Interned tree state: hash-consed edge sets with Zobrist fingerprints.

With adjacency cheap (the CSR backend), the GAM-family engines (Sections
4.2-4.7 of the paper) spend their time on *tree bookkeeping*: every Grow /
Merge produces an edge set, and every history check (``hist`` /
``rooted_keys`` / ``result_keys`` in Algorithm 4) asks whether that set
was seen before — on sets that are heavily shared between trees.

:class:`EdgeSetPool` answers both by *hash-consing*: each distinct edge
set is interned once and identified by a stable small-int handle.  The two
hot constructors are memoized —

``union1(set_id, edge_id)``
    the Grow step (add one edge);

``union2(id1, id2)``
    the Merge step (union two sets);

— so rebuilding a set the search has already produced is one probe of a
flat memo lane, and *membership* of a set in any history structure is an
int lookup instead of an O(|tree|) frozenset hash.  Each set carries a
deterministic Zobrist-style fingerprint — the XOR of its edges' 64-bit
codes; an edge's code is the pure function ``splitmix64(edge_id)``,
evaluated per memo miss (no code table sized by the graph's id space) —
so a union the memo has not seen is looked up by fingerprint without
being built or hashed; fingerprint hits are verified exactly by set
comparison, never trusted.

Storage is flat: the fingerprint index and both union memos are
open-addressed ``array`` tables (:class:`_FpTable` / :class:`_IntTable`),
16 bytes of contiguous storage per slot instead of a boxed-int dict entry,
which keeps a long-lived pool (a server's, a pool worker's) small.

Handles are pool-local: ids from different pools are unrelated (see the
isolation property tests).  The ``EMPTY`` handle is 0 — deliberately
falsy, so engine code can say ``if tree.eset:``.

A pool is private to one search unless a query-scoped
:class:`~repro.ctp.context.SearchContext` lends it to every CTP of a
query (or, ``thread_safe=True``, to the worker threads of a parallel
dispatch).
"""

from __future__ import annotations

import threading
from array import array
from typing import FrozenSet, Iterable, List, Tuple

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


#: Empty-slot byte pattern: an ``array('q')`` of -1s marks every slot free
#: (keys/handles are always >= 0, so -1 can never collide with a live entry;
#: 0 cannot serve as the marker because key 0 and handle 0 are both legal).
def _minus_ones(capacity: int) -> array:
    return array("q", b"\xff" * (8 * capacity))


class _IntTable:
    """Flat open-addressed int→int map: the pool's memo lanes.

    Two parallel ``array('q')`` lanes (keys / values) with linear probing:
    contiguous storage where a dict would scatter ~100 bytes of boxed-int
    entry per memo across the heap.  Slot choice is Fibonacci hashing
    folded over both halves of the packed 64-bit key (``set_id << 32 |
    operand``): consecutive handle/edge pairs land on unrelated slots
    instead of clustering a linear-probe run.

    Writes publish value-before-key so a lock-free reader (the pool's
    memo-hit fast path) either misses a half-written entry or sees it
    complete; growth builds a whole new table for the owner to swap in
    one reference assignment.  ``put`` assumes a free slot exists — the
    owner grows at 3/4 load *before* inserting.
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
    """Flat open-addressed fingerprint→handle *multimap*: the pool's index.

    Parallel ``array('Q')`` fingerprints and ``array('q')`` handles.  Sets
    that collide (same fingerprint — or same fingerprint and size) simply
    occupy successive probe slots, and a lookup walks **every** slot whose
    fingerprint matches until the probe run ends, exactly verifying each
    candidate against the caller's set.  Fingerprints are splitmix64 XORs
    (uniform), so the raw fingerprint is its own hash.

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

    def put(self, fp: int, set_id: int) -> None:
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
                new.put(fps[slot], sid)
        return new


class EdgeSetPool:
    """Hash-consing pool assigning small-int handles to edge sets.

    Invariants:

    * handle 0 is the empty set (``EMPTY``), so handles are falsy exactly
      when the set is empty;
    * interning is *exact* — two handles are equal iff the sets are equal
      (a fingerprint hit is verified by set comparison, and distinct sets
      that collide on the full 64-bit fingerprint get distinct handles);
    * ``union1``/``union2`` accept any operands (overlap included); the
      disjointness the engines guarantee (Grow never re-adds a tree edge,
      Merge1 operands share only the root) only makes the memoized fast
      path cheaper, it is not a correctness requirement;
    * handles are numbered in first-interned order, so one operation
      sequence always yields one numbering (and one set of counters).

    ``thread_safe=True`` makes one pool shareable by the worker threads of
    a parallel dispatch (:mod:`repro.query.parallel`).  All three locks it
    creates are ``None`` otherwise, and all are taken on the memo-*miss*
    path only — a memo hit never locks:

    * the one correctness-critical race is the check-then-insert of the
      fingerprint index: two threads interning the *same* new set must not
      both miss the lookup and allocate two handles.  Equal sets have equal
      fingerprints, so the decision "no equal set exists, allocate a
      handle" is serialized per **fingerprint shard** (``fp & (NUM_SHARDS
      - 1)`` picks the lock): same-set racers share a lock, threads
      interning different sets almost never contend.  A probe that is
      stale with respect to *other* shards is harmless — only
      same-fingerprint inserts could invalidate a "not found";
    * ``_recs`` appends go through one allocation lock so handle numbering
      is gap-free; published records are immutable, and a reader can only
      hold a handle that was published *after* its record was appended;
    * the tables are shared arrays, so every table **write** — fingerprint
      insert, memo put, growth — funnels through one table lock.  Readers
      stay lock-free: they read the table reference once (growth swaps in
      a whole new table, never mutates a published one), entries become
      visible only when their publication completes, and occupancy is
      monotone.  A racing reader that misses an in-flight memo entry falls
      to the miss path and re-resolves under the shard lock; concurrent
      writers of one memo key always write the *same* canonical handle,
      because the handle came out of the serialized step;
    * edge codes are the pure function :func:`splitmix64` — no shared
      table, so two threads always compute one fingerprint for one set;
    * ``union_hits`` / ``collisions`` are telemetry: lost increments under
      contention are tolerated, counters stay approximate lower bounds.

    Under threads handle *numbering* depends on the interleaving, but
    handles are opaque identities — the engines never order by them — so
    search results are unaffected (``tests/test_parallel.py``).
    """

    EMPTY = 0

    #: Memo keys are packed into single ints (``a << SHIFT | b``) instead
    #: of tuples — one flat-lane probe, no allocation in the hot
    #: constructors.  Handles and edge ids must stay below 2**32:
    #: :func:`repro.ctp.context.adopt_pool` refuses graphs whose edge ids
    #: would alias.
    _SHIFT = 32

    #: Power of two; 16 shards keep contention negligible at the worker
    #: counts the dispatcher uses (≤ CPU count) without a lock per bucket.
    NUM_SHARDS = 16

    __slots__ = (
        "_recs",
        "_index",
        "_union1",
        "_union2",
        "union_hits",
        "collisions",
        "_shard_locks",
        "_alloc_lock",
        "_table_lock",
    )

    def __init__(self, thread_safe: bool = False) -> None:
        #: Per-handle record ``(edges, fingerprint, size)`` — fused into
        #: one list so the hot constructors do a single index per operand.
        self._recs: List[Tuple[FrozenSet[int], int, int]] = [(frozenset(), 0, 0)]
        self._index = _FpTable()
        self._index.put(0, 0)  # the EMPTY record (fp 0, handle 0)
        self._union1 = _IntTable()
        self._union2 = _IntTable()
        self.union_hits = 0
        self.collisions = 0
        self._shard_locks = self._alloc_lock = self._table_lock = None
        if thread_safe:
            self._shard_locks = [threading.Lock() for _ in range(self.NUM_SHARDS)]
            self._alloc_lock = threading.Lock()
            self._table_lock = threading.Lock()

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
        return self._union1.filled + self._union2.filled

    def __len__(self) -> int:
        """Number of distinct edge sets interned so far."""
        return len(self._recs)

    # ------------------------------------------------------------------
    # the miss path: find-or-add by fingerprint, table writes
    # ------------------------------------------------------------------
    def _find_or_add(self, fp: int, size: int, a: FrozenSet[int], b: FrozenSet[int]) -> int:
        """Handle of ``a | b``, whose fingerprint is ``fp`` and size ``size``.

        An already-interned union (reached through a different Grow/Merge
        path) is recognized without being built: ``|c| = size ∧ a ⊆ c ∧
        b ⊆ c ⟹ c = a ∪ b``, two allocation-free subset checks on the
        candidates filed under ``fp``.  Only a genuinely new set is
        materialized.
        """
        recs = self._recs
        shards = self._shard_locks
        lock = None if shards is None else shards[fp & (self.NUM_SHARDS - 1)]
        if lock is not None:
            lock.acquire()
        try:
            t = self._index
            fps = t.fps
            ids = t.ids
            mask = t.mask
            slot = fp & mask
            collided = False
            while True:
                sid = ids[slot]
                if sid < 0:
                    break
                if fps[slot] == fp:
                    edges, _, candidate_size = recs[sid]
                    if candidate_size == size:
                        if a <= edges and b <= edges:
                            return sid
                        collided = True  # same (fp, size), different set
                slot = (slot + 1) & mask
            if collided:
                self.collisions += 1
            rec = (a | b, fp, size)
            alloc = self._alloc_lock
            if alloc is None:
                set_id = len(recs)
                recs.append(rec)
            else:
                with alloc:
                    set_id = len(recs)
                    recs.append(rec)
            self._put("_index", fp, set_id)
            return set_id
        finally:
            if lock is not None:
                lock.release()

    def _put(self, table: str, key: int, val: int) -> None:
        """Write ``key -> val`` into the named table, growing it at 3/4 load."""
        lock = self._table_lock
        if lock is not None:
            lock.acquire()
        try:
            t = getattr(self, table)
            if t.filled >= t.limit:
                t = t.grown()
                setattr(self, table, t)
            t.put(key, val)
        finally:
            if lock is not None:
                lock.release()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def intern(self, edge_ids: Iterable[int]) -> int:
        """Intern an arbitrary edge collection; returns its handle."""
        edges = frozenset(edge_ids)
        return self._find_or_add(fingerprint_of(edges), len(edges), edges, edges)

    def union1(self, set_id: int, edge_id: int) -> int:
        """Handle of ``set(set_id) | {edge_id}`` — the memoized Grow step.

        On a memo miss the result's fingerprint is one XOR away, so the
        set is looked up by fingerprint (:meth:`_find_or_add`) — no union
        is built and nothing is re-hashed unless the set is new.
        """
        key = (set_id << self._SHIFT) | edge_id
        out = self._union1.get(key)
        if out >= 0:
            self.union_hits += 1
            return out
        base, base_fp, base_size = self._recs[set_id]
        if edge_id in base:
            out = set_id
        else:
            out = self._find_or_add(
                base_fp ^ splitmix64(edge_id), base_size + 1, base, frozenset((edge_id,))
            )
        self._put("_union1", key, out)
        return out

    def union2(self, id1: int, id2: int) -> int:
        """Handle of the union of two interned sets — the memoized Merge.

        Same miss-path discipline as :meth:`union1`: for disjoint operands
        (what Merge1 hands us) the union's fingerprint is ``fp1 ^ fp2``.
        """
        if id1 == id2:
            return id1
        if id1 > id2:
            id1, id2 = id2, id1
        if not id1:  # union with the empty set
            return id2
        key = (id1 << self._SHIFT) | id2
        out = self._union2.get(key)
        if out >= 0:
            self.union_hits += 1
            return out
        recs = self._recs
        a, a_fp, a_size = recs[id1]
        b, b_fp, b_size = recs[id2]
        if a.isdisjoint(b):
            out = self._find_or_add(a_fp ^ b_fp, a_size + b_size, a, b)
        else:
            # Overlapping operands (never produced by the engines' Merge1,
            # but the pool stays total): XOR cancelled the shared edges
            # twice; fold them back in and intern the materialized union.
            edges = a | b
            out = self._find_or_add(a_fp ^ b_fp ^ fingerprint_of(a & b), len(edges), edges, edges)
        self._put("_union2", key, out)
        return out
