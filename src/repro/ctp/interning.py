"""Interned tree state: hash-consed edge sets with Zobrist fingerprints.

With adjacency cheap (the CSR backend), the GAM-family engines (Sections
4.2-4.7 of the paper) spend their time on *tree bookkeeping*: every Grow /
Merge produces an edge set, and every history check (``hist`` /
``rooted_keys`` / ``result_keys`` in Algorithm 4) asks whether that set
was seen before — on sets that are heavily shared between trees.

:class:`EdgeSetPool` answers both by *hash-consing*: each distinct edge
set is interned once and identified by a stable small-int handle, so
*membership* of a set in any history structure is an int lookup instead
of an O(|tree|) frozenset hash.  The two hot constructors —

``union1(set_id, edge_id)``
    the Grow step (add one edge);

``union2(id1, id2)``
    the Merge step (union two sets);

— never build the set to find out whether it exists.  Each set carries a
deterministic Zobrist-style fingerprint — the XOR of its edges' 64-bit
codes; an edge's code is the pure function ``splitmix64(edge_id)``,
evaluated per union (no code table sized by the graph's id space) — so a
union's fingerprint is one XOR away from its operands' and the union is
*one probe* of the fingerprint index; fingerprint hits are verified
exactly by set comparison, never trusted.  Only a set the pool has never
held is materialized, so a pool's footprint follows the distinct sets it
holds, not the unions it answered.

Storage is flat: the fingerprint index is an open-addressed ``array``
table (:class:`_FpTable`), 16 bytes of contiguous storage per slot
instead of a boxed-int dict entry, which keeps a long-lived pool (a
server's, a pool worker's) small.

Handles are pool-local: ids from different pools are unrelated (see the
isolation property tests).  The ``EMPTY`` handle is 0 — deliberately
falsy, so engine code can say ``if tree.eset:``.

A pool is private to one search unless a query-scoped
:class:`~repro.ctp.context.SearchContext` lends it to every CTP of a
query (or, ``thread_safe=True``, to every thread sharing that context).
"""

from __future__ import annotations

import threading
from array import array
from typing import FrozenSet, Iterable, List, Tuple

_MASK64 = (1 << 64) - 1


def splitmix64(index: int) -> int:
    """The splitmix64 mix of ``index`` — the Zobrist code of edge ``index``.

    Deterministic (no process-level randomness), well-distributed, and a
    pure function: pools evaluate it per union and keep no table.
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
        # capacity must be a power of two (mask-wrapped probing).
        self.fps = array("Q", bytes(8 * capacity))
        # -1 marks a free slot (handle 0 is legal, so 0 cannot).
        self.ids = array("q", b"\xff" * (8 * capacity))
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
      Merge1 operands share only the root) only makes the fingerprint
      cheaper to derive, it is not a correctness requirement;
    * handles are numbered in first-interned order, so one operation
      sequence always yields one numbering (and one set of counters).

    Every constructor is **probe, then lock**: :meth:`_find_or_add` probes
    the fingerprint index without a lock and returns an already-interned
    set at once; only when nothing is found does it take the locks, probe
    again, and add.  ``thread_safe=True`` makes one pool shareable by
    threads that share a context (a :class:`~repro.serve.QueryServer`'s
    request threads); all three locks it creates are ``None`` otherwise:

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
    * the index is a shared pair of arrays, so every **write** — insert or
      growth — funnels through one table lock.  Probes stay lock-free:
      they read the table reference once (growth swaps in a whole new
      table, never mutates a published one), an entry becomes visible only
      when its publication completes, and occupancy is monotone.  A probe
      that races an in-flight insert or a growth can only *miss*; it then
      re-probes under the shard lock, where the answer is final;
    * edge codes are the pure function :func:`splitmix64` — no shared
      table, so two threads always compute one fingerprint for one set;
    * ``union_hits`` / ``collisions`` are telemetry: lost increments under
      contention are tolerated, counters stay approximate lower bounds.

    Under threads handle *numbering* depends on the interleaving, but
    handles are opaque identities — the engines never order by them — so
    search results are unaffected (``tests/test_parallel.py``).
    """

    EMPTY = 0

    #: Power of two; 16 shards keep contention negligible at the worker
    #: counts the dispatcher uses (≤ CPU count) without a lock per bucket.
    NUM_SHARDS = 16

    __slots__ = (
        "_recs",
        "_index",
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
        #: Unions/interns answered by a set the pool already held.
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
        """Sets materialized so far: every union/intern that was not
        answered by an existing set added exactly one (no hot-path counter)."""
        return len(self._recs) - 1

    def __len__(self) -> int:
        """Number of distinct edge sets interned so far."""
        return len(self._recs)

    # ------------------------------------------------------------------
    # find-or-add by fingerprint
    # ------------------------------------------------------------------
    def _find_or_add(
        self, fp: int, size: int, a: FrozenSet[int], b: FrozenSet[int], locked: bool = False
    ) -> int:
        """Handle of ``a | b``, whose fingerprint is ``fp`` and size ``size``.

        An already-interned union (reached through a different Grow/Merge
        path, or by an earlier run on a shared pool) is recognized without
        being built: ``|c| = size ∧ a ⊆ c ∧ b ⊆ c ⟹ c = a ∪ b``, two
        allocation-free subset checks on the candidates filed under
        ``fp``.  Only a genuinely new set is materialized — under the
        fingerprint's shard lock when the pool has one, after this same
        body probed once more (``locked``).
        """
        recs = self._recs
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
                        self.union_hits += 1
                        return sid
                    collided = True  # same (fp, size), different set
            slot = (slot + 1) & mask
        shards = self._shard_locks
        if shards is not None and not locked:
            with shards[fp & (self.NUM_SHARDS - 1)]:
                return self._find_or_add(fp, size, a, b, True)
        if collided:
            self.collisions += 1
        rec = (a | b, fp, size)
        if shards is None:
            set_id = len(recs)
            recs.append(rec)
            if t.filled >= t.limit:
                t = self._index = t.grown()
            t.put(fp, set_id)
        else:
            with self._alloc_lock:
                set_id = len(recs)
                recs.append(rec)
            with self._table_lock:
                t = self._index
                if t.filled >= t.limit:
                    t = self._index = t.grown()
                t.put(fp, set_id)
        return set_id

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def intern(self, edge_ids: Iterable[int]) -> int:
        """Intern an arbitrary edge collection; returns its handle."""
        edges = frozenset(edge_ids)
        return self._find_or_add(fingerprint_of(edges), len(edges), edges, edges)

    def union1(self, set_id: int, edge_id: int) -> int:
        """Handle of ``set(set_id) | {edge_id}`` — the Grow step.

        The result's fingerprint is one XOR away, so the set is looked up
        by fingerprint (:meth:`_find_or_add`) — no union is built and
        nothing is re-hashed unless the set is new.
        """
        base, base_fp, base_size = self._recs[set_id]
        if edge_id in base:
            return set_id
        return self._find_or_add(
            base_fp ^ splitmix64(edge_id), base_size + 1, base, frozenset((edge_id,))
        )

    def union2(self, id1: int, id2: int) -> int:
        """Handle of the union of two interned sets — the Merge step.

        For disjoint operands (what Merge1 hands us) the union's
        fingerprint is ``fp1 ^ fp2``.
        """
        if id1 == id2:
            return id1
        if id1 > id2:  # one operand order, so a new set is built one way
            id1, id2 = id2, id1
        if not id1:  # union with the empty set
            return id2
        recs = self._recs
        a, a_fp, a_size = recs[id1]
        b, b_fp, b_size = recs[id2]
        if a.isdisjoint(b):
            return self._find_or_add(a_fp ^ b_fp, a_size + b_size, a, b)
        # Overlapping operands (never produced by the engines' Merge1, but
        # the pool stays total): XOR cancelled the shared edges twice; fold
        # them back in and intern the materialized union.
        edges = a | b
        return self._find_or_add(a_fp ^ b_fp ^ fingerprint_of(a & b), len(edges), edges, edges)
