"""Unit tests for SearchTree construction (Definition 4.1 + UNI rules)."""

from repro.ctp.interning import EdgeSetPool
from repro.ctp.tree import GROW, INIT, MERGE, MO, SearchTree, make_merge, make_mo
from repro.ctp.tree import make_grow as _make_grow
from repro.ctp.tree import make_init as _make_init

# Trees are built against an edge-set pool (repro.ctp.interning); the tests
# here are about tree *shape* rules, so they share one module-level pool
# and use the node id itself as the mask bit index.
_POOL = EdgeSetPool()


def make_init(node, sat, uni):
    return _make_init(_POOL, node, sat, uni, node_bit=1 << node)


def make_grow(tree, edge_id, new_root, new_root_sat, new_root_is_seed, edge_weight, outgoing, uni):
    return _make_grow(
        tree, edge_id, new_root, new_root_sat, new_root_is_seed, edge_weight, outgoing, uni,
        node_bit=1 << new_root,
    )


def test_init_tree_fields():
    tree = make_init(7, 0b10, uni=False)
    assert tree.root == 7
    assert tree.edges == frozenset()
    assert tree.nodes == frozenset({7})
    assert tree.sat == 0b10
    assert tree.size == 0
    assert tree.kind == INIT
    assert tree.path_seed == 7
    assert tree.arb_root is None
    assert not tree.mo_tainted


def test_init_uni_arb_root():
    tree = make_init(3, 1, uni=True)
    assert tree.arb_root == 3
    assert tree.root_in_deg == 0


def test_grow_adds_edge_and_moves_root():
    base = make_init(0, 0b1, uni=False)
    grown = make_grow(base, 10, 1, 0, False, 1.5, outgoing=True, uni=False)
    assert grown.root == 1
    assert grown.edges == frozenset({10})
    assert grown.nodes == frozenset({0, 1})
    assert grown.sat == 0b1
    assert grown.weight == 1.5
    assert grown.kind == GROW


def test_grow_into_seed_updates_sat_and_clears_path():
    base = make_init(0, 0b1, uni=False)
    grown = make_grow(base, 10, 1, 0b10, True, 1.0, outgoing=True, uni=False)
    assert grown.sat == 0b11
    assert grown.path_seed is None  # two seeds: no longer an (n, s)-path


def test_grow_keeps_path_seed_through_non_seeds():
    base = make_init(0, 0b1, uni=False)
    step1 = make_grow(base, 10, 1, 0, False, 1.0, outgoing=True, uni=False)
    step2 = make_grow(step1, 11, 2, 0, False, 1.0, outgoing=False, uni=False)
    assert step1.path_seed == 0
    assert step2.path_seed == 0


class TestUniGrow:
    def test_outgoing_keeps_arb_root(self):
        base = make_init(0, 1, uni=True)
        grown = make_grow(base, 10, 1, 0, False, 1.0, outgoing=True, uni=True)
        assert grown is not None
        assert grown.arb_root == 0
        assert grown.root_in_deg == 1

    def test_incoming_moves_arb_root(self):
        base = make_init(0, 1, uni=True)
        grown = make_grow(base, 10, 1, 0, False, 1.0, outgoing=False, uni=True)
        assert grown is not None
        assert grown.arb_root == 1
        assert grown.root_in_deg == 0

    def test_incoming_rejected_when_root_not_arb_root(self):
        base = make_init(0, 1, uni=True)
        # 0 -> 1: arborescence root stays 0, current root is 1
        step1 = make_grow(base, 10, 1, 0, False, 1.0, outgoing=True, uni=True)
        # 2 -> 1 would give node 1 in-degree 2: rejected
        step2 = make_grow(step1, 11, 2, 0, False, 1.0, outgoing=False, uni=True)
        assert step2 is None

    def test_chain_of_incoming_edges(self):
        # 2 -> 1 -> 0 built by growing backwards from 0 is an arborescence
        base = make_init(0, 1, uni=True)
        step1 = make_grow(base, 10, 1, 0, False, 1.0, outgoing=False, uni=True)
        step2 = make_grow(step1, 11, 2, 0, False, 1.0, outgoing=False, uni=True)
        assert step2 is not None
        assert step2.arb_root == 2


class TestMerge:
    def _two_trees_at_root(self, uni: bool):
        left = make_grow(make_init(0, 0b1, uni), 10, 2, 0, False, 1.0, outgoing=True, uni=uni)
        right = make_grow(make_init(1, 0b10, uni), 11, 2, 0, False, 1.0, outgoing=True, uni=uni)
        return left, right

    def test_merge_combines(self):
        left, right = self._two_trees_at_root(uni=False)
        merged = make_merge(left, right, uni=False)
        assert merged.root == 2
        assert merged.edges == frozenset({10, 11})
        assert merged.nodes == frozenset({0, 1, 2})
        assert merged.sat == 0b11
        assert merged.kind == MERGE
        assert merged.path_seed is None

    def test_merge_uni_both_arborescences_into_root(self):
        # edges 0->2 and 1->2: node 2 would have in-degree 2 — invalid
        left, right = self._two_trees_at_root(uni=True)
        assert left.arb_root == 0 and right.arb_root == 1
        assert make_merge(left, right, uni=True) is None

    def test_merge_uni_valid_when_one_side_rooted_at_shared_node(self):
        # 2 -> 0 (arb root 2 is the shared node) merged with 1 -> 2
        left = make_grow(make_init(0, 0b1, True), 10, 2, 0, False, 1.0, outgoing=False, uni=True)
        right = make_grow(make_init(1, 0b10, True), 11, 2, 0, False, 1.0, outgoing=True, uni=True)
        merged = make_merge(left, right, uni=True)
        assert merged is not None
        assert merged.arb_root == 1

    def test_merge_taints_from_mo(self):
        left, right = self._two_trees_at_root(uni=False)
        mo = make_mo(left, 0, 0)
        merged = make_merge(mo, right, uni=False)
        assert merged.mo_tainted


def test_mo_copy_re_roots_without_new_edges():
    base = make_grow(make_init(0, 0b1, False), 10, 1, 0b10, True, 1.0, outgoing=True, uni=False)
    copy = make_mo(base, 0, 1)
    assert copy.kind == MO
    assert copy.mo_tainted
    assert copy.root == 0
    assert copy.edges == base.edges
    assert copy.sat == base.sat
    assert copy.root_in_deg == 1


def test_rooted_key_identity():
    t1 = make_init(0, 1, False)
    t2 = make_init(0, 1, False)
    assert t1.rooted_key() == t2.rooted_key()
    grown = make_grow(t1, 5, 1, 0, False, 1.0, True, False)
    assert grown.rooted_key() != t1.rooted_key()
