"""Dense per-search node identity (the million-node ROADMAP item).

Every GAM-family / BFT tree carries ``node_mask``, an exact node bitmask
used by the Merge1 compatibility test.  Setting bit ``n`` for *global*
node id ``n`` would make the mask a Python big-int sized by the **largest
node id the search touches**, not by how many nodes it touches.  On a
10^6-node graph that is ~125 KB per tree and every Merge1 test is
O(max_id/64); on a graph with sparse huge ids (external datasets routinely
carry 10^9-range ids) the masks explode long before memory is "used" for
anything.

:class:`IdRemap` fixes the unit of account: a search-local bijection
global id → compact index, assigned lazily in first-touch order as the
frontier reaches nodes, with an inverse array for the one place a search
must go *back* from a mask bit to a node (the BFT merge recovers the shared
node from ``common_mask``).  Masks become sized by |nodes touched by this
search| — typically a few dozen bits under a ``MAX n`` filter — regardless
of the graph's id space.

Correctness is structural: the remap is injective, so for any two trees of
one search ``mask(t1) & mask(t2)`` has exactly the image bits of the node
intersection, and Merge1's single-bit-equality test is preserved verbatim.
Node *sets* (``tree.nodes``, result rows, seed materialization) keep global
ids throughout — only the mask representation is compact — so rows are
those of a search over global-id masks (pinned by recorded digests of
that implementation) and depend only on the graph's shape, never on the
magnitude of its node ids (a metamorphic property of the dense-id suite).
"""

from __future__ import annotations

from typing import Dict, List


class IdRemap:
    """Lazily-built dense bijection: global node id ↔ compact index.

    Compact indexes are assigned in first-call order, which is
    deterministic for a deterministic search (seeds first, then frontier
    nodes as they are reached); they are private to one search run and
    never appear in results.
    """

    __slots__ = ("_fwd", "_inv")

    def __init__(self) -> None:
        self._fwd: Dict[int, int] = {}
        self._inv: List[int] = []

    def index(self, node: int) -> int:
        """The compact index of ``node``, assigning the next one if new."""
        fwd = self._fwd
        compact = fwd.get(node)
        if compact is None:
            compact = len(fwd)
            fwd[node] = compact
            self._inv.append(node)
        return compact

    def bit(self, node: int) -> int:
        """``1 << index(node)`` — the node's mask bit in this search."""
        fwd = self._fwd
        compact = fwd.get(node)
        if compact is None:
            compact = len(fwd)
            fwd[node] = compact
            self._inv.append(node)
        return 1 << compact

    @property
    def indexes(self) -> Dict[int, int]:
        """The live global id -> compact index dict (read it, do not write it)."""
        return self._fwd

    def node(self, compact: int) -> int:
        """Inverse: the global node id behind a compact index."""
        return self._inv[compact]

    def __len__(self) -> int:
        return len(self._inv)
