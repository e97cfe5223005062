"""Rooted search trees with provenance (Definition 4.1).

A :class:`SearchTree` is immutable.  Besides the rooted tree itself (root +
edge set + node set) it carries the derived state every algorithm in the GAM
family needs in its hot path:

``eset``
    the tree's edge set as a pool handle (:mod:`repro.ctp.interning`): a
    small int.  Handles are falsy exactly when the set is empty, and equal
    iff the edge sets are equal, so history membership (Algorithm 4) is an
    O(1) lookup.  ``edges`` materializes the actual frozenset (free: the
    pool stores it interned);

``size``
    the number of edges (read per tree by the queue priority and the
    ``max_edges`` checks): Grow adds one, Merge the operands' — exact
    under Grow1 / Merge1, which the engine guarantees;

``node_mask``
    the node set as an exact bitmask.  Merge1 — "the trees share exactly
    their root" — becomes ``t1.node_mask & t2.node_mask == root_bit``, a
    big-int test that rejects incompatible partners before any set is
    built.  Which bit a node occupies is the *engine's* unit of account
    (:mod:`repro.ctp.idremap`): the engine passes ``node_bit`` from its
    search-local remap, so masks are sized by |nodes touched|, not by the
    largest node id in the tree;

``sat``
    bitmask of the seed sets satisfied by the tree (Observation 1);

``path_seed``
    if the tree is an ``(root, s)``-rooted path (Definition 4.4) this is the
    seed ``s``; used to maintain LESP seed signatures;

``mo_tainted``
    true when the provenance contains a ``Mo`` step — Grow is disabled on
    such trees (Section 4.5);

``arb_root`` / ``root_in_deg``
    arborescence bookkeeping for the ``UNI`` filter (Section 4.8): under
    unidirectional search every tree must have a node from which a directed
    path reaches every other node; both fields are maintained in O(1) per
    Grow/Merge.

``seq``
    registration ticket assigned by the engine when the tree enters
    ``TreesRootedIn``; it restores global insertion order when merge
    partners are re-assembled from several sat buckets.  Engine-owned
    bookkeeping, not part of the tree's identity.

Construction goes through :func:`make_init`, :func:`make_grow`,
:func:`make_merge` and :func:`make_mo`; the *semantic* pre-conditions
(Grow1/Grow2, Merge1/Merge2, filters) are the engine's responsibility, while
the UNI arborescence rules live here because they are intrinsically about
tree shape.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

#: Provenance kinds (Definition 4.1 plus the Mo step of Section 4.5).
INIT, GROW, MERGE, MO = "init", "grow", "merge", "mo"


class SearchTree:
    """An immutable rooted tree built during CTP search."""

    __slots__ = (
        "pool",
        "root",
        "eset",
        "size",
        "nodes",
        "node_mask",
        "sat",
        "weight",
        "kind",
        "mo_tainted",
        "path_seed",
        "arb_root",
        "root_in_deg",
        "seq",
    )

    def __init__(
        self,
        pool,
        root: int,
        eset,
        size: int,
        nodes: FrozenSet[int],
        node_mask: int,
        sat: int,
        weight: float,
        kind: str,
        mo_tainted: bool,
        path_seed: Optional[int],
        arb_root: Optional[int],
        root_in_deg: int,
    ):
        self.pool = pool
        self.root = root
        self.eset = eset
        self.size = size
        self.nodes = nodes
        self.node_mask = node_mask
        self.sat = sat
        self.weight = weight
        self.kind = kind
        self.mo_tainted = mo_tainted
        self.path_seed = path_seed
        self.arb_root = arb_root
        self.root_in_deg = root_in_deg
        self.seq = -1

    @property
    def edges(self) -> FrozenSet[int]:
        """The edge set as a frozenset (interned — shared, do not mutate)."""
        return self.pool.edges(self.eset)

    def rooted_key(self):
        """Identity of the *rooted tree* (root + edge set), Section 4.2."""
        return (self.root, self.eset)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SearchTree(root={self.root}, edges={sorted(self.edges)}, "
            f"sat={bin(self.sat)}, kind={self.kind})"
        )


def make_init(pool, node: int, sat: int, uni: bool, node_bit: int) -> SearchTree:
    """``Init(n)`` — a one-node tree for a seed (Definition 4.1 case 1).

    ``node_bit`` is the node's mask bit under the engine's id remap
    (:mod:`repro.ctp.idremap`).
    """
    return SearchTree(
        pool=pool,
        root=node,
        eset=pool.EMPTY,
        size=0,
        nodes=frozenset((node,)),
        node_mask=node_bit,
        sat=sat,
        weight=0.0,
        kind=INIT,
        mo_tainted=False,
        path_seed=node,
        arb_root=node if uni else None,
        root_in_deg=0,
    )


def uni_grow_state(tree: SearchTree, new_root: int, outgoing: bool) -> Optional[Tuple[Optional[int], int]]:
    """UNI arborescence state of ``Grow(tree, e)``: ``(arb_root, root_in_deg)``.

    ``None`` means the grown tree would not be an arborescence.  Exposed so
    the engine can apply the UNI filter *before* paying for the grown tree
    (the decision depends only on provenance scalars, not on any set).
    """
    if outgoing:
        # root -> new_root keeps the current arborescence root.
        return (tree.arb_root if tree.eset else tree.root), 1
    # new_root -> root: only legal if the old root was the arborescence
    # root (in-degree 0); the new node takes over.
    if tree.eset and tree.arb_root != tree.root:
        return None
    return new_root, 0


def uni_merge_state(t1: SearchTree, t2: SearchTree) -> Optional[Tuple[Optional[int], int]]:
    """UNI arborescence state of ``Merge(t1, t2)``: ``(arb_root, root_in_deg)``.

    The merged tree is an arborescence iff at least one operand is rooted
    (in the arborescence sense) at the shared node, and the shared node
    keeps in-degree <= 1.  ``None`` means the merge violates UNI.
    """
    root = t1.root
    if t1.arb_root == root:
        arb_root = t2.arb_root
    elif t2.arb_root == root:
        arb_root = t1.arb_root
    else:
        return None
    root_in_deg = t1.root_in_deg + t2.root_in_deg
    if root_in_deg > 1:
        return None
    return arb_root, root_in_deg


def make_grow(
    tree: SearchTree,
    edge_id: int,
    new_root: int,
    new_root_sat: int,
    new_root_is_seed: bool,
    edge_weight: float,
    outgoing: bool,
    uni: bool,
    node_bit: int,
    eset=None,
    uni_state: Optional[Tuple[Optional[int], int]] = None,
) -> Optional[SearchTree]:
    """``Grow(t, e)`` — extend ``tree`` from its root along ``edge_id``.

    ``outgoing`` tells whether the edge leaves the current root (i.e. is
    directed root -> new_root).  Returns ``None`` when ``uni`` is set and the
    extended tree would not be an arborescence.  ``node_bit`` is
    ``new_root``'s mask bit under the engine's id remap
    (:mod:`repro.ctp.idremap`).  ``eset`` / ``uni_state`` may carry the
    already-computed edge-set handle and :func:`uni_grow_state` result (the
    engine derives both for its pre-construction pruning); otherwise they
    are derived here.
    """
    if uni:
        state = uni_state if uni_state is not None else uni_grow_state(tree, new_root, outgoing)
        if state is None:
            return None
        arb_root, root_in_deg = state
    else:
        arb_root = None
        root_in_deg = 0
    # A tree stays an (n, s)-rooted path while it grows from the root of a
    # path and does not pick up a second seed (Definition 4.4).
    if tree.path_seed is not None and not new_root_is_seed:
        path_seed = tree.path_seed
    else:
        path_seed = None
    pool = tree.pool
    return SearchTree(
        pool=pool,
        root=new_root,
        eset=eset if eset is not None else pool.union1(tree.eset, edge_id),
        size=tree.size + 1,
        nodes=tree.nodes | {new_root},
        node_mask=tree.node_mask | node_bit,
        sat=tree.sat | new_root_sat,
        weight=tree.weight + edge_weight,
        kind=GROW,
        mo_tainted=tree.mo_tainted,
        path_seed=path_seed,
        arb_root=arb_root,
        root_in_deg=root_in_deg,
    )


def make_merge(
    t1: SearchTree,
    t2: SearchTree,
    uni: bool,
    eset=None,
    uni_state: Optional[Tuple[Optional[int], int]] = None,
) -> Optional[SearchTree]:
    """``Merge(t1, t2)`` — union of two trees sharing exactly their root.

    The engine has already verified Merge1/Merge2; here we combine the
    derived state and enforce the UNI arborescence rule: the merged tree is
    an arborescence iff at least one operand is rooted (in the arborescence
    sense) at the shared node.  ``eset`` / ``uni_state`` may carry the
    already-computed union handle and :func:`uni_merge_state` result (the
    engine derives both for its pre-construction pruning).
    """
    root = t1.root
    if uni:
        state = uni_state if uni_state is not None else uni_merge_state(t1, t2)
        if state is None:
            return None
        arb_root, root_in_deg = state
    else:
        arb_root = None
        root_in_deg = 0
    pool = t1.pool
    return SearchTree(
        pool=pool,
        root=root,
        eset=eset if eset is not None else pool.union2(t1.eset, t2.eset),
        size=t1.size + t2.size,
        nodes=t1.nodes | t2.nodes,
        node_mask=t1.node_mask | t2.node_mask,
        sat=t1.sat | t2.sat,
        weight=t1.weight + t2.weight,
        kind=MERGE,
        mo_tainted=t1.mo_tainted or t2.mo_tainted,
        path_seed=None,
        arb_root=arb_root,
        root_in_deg=root_in_deg,
    )


def make_mo(tree: SearchTree, new_root: int, new_root_in_deg: int) -> SearchTree:
    """``Mo(t, r)`` — re-root ``tree`` at the seed ``new_root`` (Section 4.5).

    The edge set is unchanged; the copy is merge-only (``mo_tainted``).
    ``new_root_in_deg`` is the in-degree of ``new_root`` inside the tree,
    which the engine computes from the graph (needed for UNI merges).
    """
    return SearchTree(
        pool=tree.pool,
        root=new_root,
        eset=tree.eset,
        size=tree.size,
        nodes=tree.nodes,
        node_mask=tree.node_mask,
        sat=tree.sat,
        weight=tree.weight,
        kind=MO,
        mo_tainted=True,
        path_seed=None,
        arb_root=tree.arb_root,
        root_in_deg=new_root_in_deg,
    )
