"""Dense search-local node identity: dense and legacy runs are bit-identical.

The dense-ids refactor (``repro.ctp.idremap`` + the flat pools in
``repro.ctp.interning``) re-keys every node bitmask by a search-local
compact index and moves the interning pool's hot maps into flat arrays.
All of it is *representation*: because the remap is injective, every mask
predicate (Merge1's shared-node test, BFT's common-mask recovery) decides
exactly what it decided over global-id masks, so the search trajectory —
and with it every row, seed tuple, weight, and order-sensitive counter —
must be identical with ``dense_ids=True`` and ``dense_ids=False``.

Three layers:

* the **matrix**: all 8 search algorithms x the golden workload graphs,
  dense vs legacy snapshots compared field by field (pool counters
  included — the flat pools must also assign the *same handle numbering*);
* **DPBF**: packed small-int DP state keys vs legacy ``(v, X)`` tuples;
* a **Hypothesis property** over graphs with sparse huge node ids (up to
  10^9, a handful of nodes): the dense path's outcome depends only on the
  graph's shape, never on the magnitude of its node ids.  This is the
  scenario the refactor exists for — a legacy ``1 << node_id`` mask at
  id 10^9 is a 125MB integer per tree.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctp.bft import BFTAMSearch, BFTMSearch, BFTSearch
from repro.ctp.config import SearchConfig
from repro.ctp.esp import ESPSearch
from repro.ctp.gam import GAMSearch
from repro.ctp.idremap import IDENTITY_REMAP, IdRemap, make_remap
from repro.ctp.interning import EdgeSetPool, FlatEdgeSetPool, ShardedFlatEdgeSetPool
from repro.ctp.lesp import LESPSearch
from repro.ctp.moesp import MoESPSearch
from repro.ctp.molesp import MoLESPSearch
from repro.baselines.dpbf import dpbf_optimal_tree
from repro.graph.datasets import figure1, figure1_seed_sets, figure3, figure5, figure6
from repro.testing import random_graph, random_seed_sets
from repro.workloads.synthetic import chain_graph, comb_graph, star_graph

ALGORITHMS = {
    "gam": GAMSearch,
    "esp": ESPSearch,
    "moesp": MoESPSearch,
    "lesp": LESPSearch,
    "molesp": MoLESPSearch,
    "bft": BFTSearch,
    "bft-m": BFTMSearch,
    "bft-am": BFTAMSearch,
}

#: Only timing may differ between the two runs.  Unlike the interning
#: equivalence suite we keep ``merges_attempted``: dense vs legacy use the
#: *same* engine code path, so even that counter must replay exactly.
UNSTABLE_STATS = {"elapsed_seconds"}


def _graphs():
    fig1 = figure1()
    g3, s3 = figure3()
    g5, s5 = figure5()
    g6, s6 = figure6()
    chain, chain_seeds = chain_graph(5)
    star, star_seeds = star_graph(4, 2)
    comb, comb_seeds = comb_graph(2, 1, 2)
    rng = random.Random(11)
    rnd = random_graph(rng, 10, 16, num_labels=3)
    rnd_seeds = random_seed_sets(random.Random(12), rnd, 3, max_size=2)
    return {
        "fig1": (fig1, figure1_seed_sets(fig1)),
        "fig3": (g3, s3),
        "fig5": (g5, s5),
        "fig6": (g6, s6),
        "chain5": (chain, chain_seeds),
        "star": (star, star_seeds),
        "comb": (comb, comb_seeds),
        "random": (rnd, rnd_seeds),
    }


def _snapshot(result_set):
    results = sorted(
        (
            tuple(sorted(r.edges)),
            tuple(sorted(r.nodes)),
            r.seeds,
            round(r.weight, 9),
            r.score,
        )
        for r in result_set
    )
    stats = {k: v for k, v in result_set.stats.as_dict().items() if k not in UNSTABLE_STATS}
    return {
        "results": results,
        "stats": stats,
        "complete": result_set.complete,
        "algorithm": result_set.algorithm,
    }


#: Counters that exist only because of the edge-set pool and the
#: sat-bucketed partner index; the recorded frozenset run has no say on them.
POOL_STATS = {"merges_attempted", "merge_buckets_skipped", "pool_sets", "pool_union_hits", "pool_union_misses"}


def _without_pool_stats(snapshot):
    stats = {k: v for k, v in snapshot["stats"].items() if k not in POOL_STATS}
    return {**snapshot, "stats": stats}


MAX_TREES = {"bft": 3000, "bft-m": 3000, "bft-am": 3000}


def _run(algo_name, graph, seeds, dense_ids, **overrides):
    overrides.setdefault("max_trees", MAX_TREES.get(algo_name, 20000))
    config = SearchConfig(dense_ids=dense_ids, **overrides)
    return ALGORITHMS[algo_name]().run(graph, seeds, config)


#: Digests of the legacy run (global-id masks, dict pools, tuple DP keys)
#: of every case below — ``python tests/test_dense_ids.py --regen``.
GOLDEN_PATH = Path(__file__).parent / "data" / "dense_ids_golden.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# the matrix: 8 algorithms x workload graphs, dense vs recorded legacy
# ----------------------------------------------------------------------
def _matrix_cases():
    for graph_name, (graph, seeds) in _graphs().items():
        for algo_name in ALGORITHMS:
            yield graph_name, graph, seeds, algo_name


@pytest.mark.parametrize(
    "graph_name,graph,seeds,algo_name",
    [pytest.param(*case, id=f"{case[0]}|{case[3]}") for case in _matrix_cases()],
)
def test_dense_matches_legacy(golden, graph_name, graph, seeds, algo_name):
    dense = _snapshot(_run(algo_name, graph, seeds, dense_ids=True))
    legacy = _snapshot(_run(algo_name, graph, seeds, dense_ids=False))
    assert dense == legacy, f"{graph_name}|{algo_name}: dense ids changed the outcome"
    assert _digest(dense) == golden[f"{graph_name}|{algo_name}"]


VARIANTS = [
    {"uni": True},
    {"limit": 5},
    {"max_edges": 4},
    {"balanced_queues": True},
    {"interning": False},
    {"backend": "csr"},
]


@pytest.mark.parametrize("algo_name", sorted(ALGORITHMS))
@pytest.mark.parametrize("overrides", VARIANTS, ids=lambda o: next(iter(o)))
def test_dense_matches_legacy_under_config_variants(golden, algo_name, overrides):
    graph = figure1()
    seeds = figure1_seed_sets(graph)
    dense = _snapshot(_run(algo_name, graph, seeds, dense_ids=True, **overrides))
    legacy = _snapshot(_run(algo_name, graph, seeds, dense_ids=False, **overrides))
    assert dense == legacy
    if "interning" in overrides:
        # Recorded from the frozenset fallback, whose pool counters are zero
        # and whose linear partner scan attempts more merges: the default
        # path must reproduce everything else.
        dense = _without_pool_stats(_snapshot(_run(algo_name, graph, seeds, dense_ids=True)))
    assert _digest(dense) == golden[f"fig1|{next(iter(overrides))}|{algo_name}"]


# ----------------------------------------------------------------------
# DPBF: packed state keys vs recorded legacy tuples
# ----------------------------------------------------------------------
DPBF_GRAPHS = ["fig1", "fig3", "chain5", "star", "comb", "random"]


def _dpbf_row(graph, seeds, uni, **representation):
    tree = dpbf_optimal_tree(graph, seeds, uni=uni, **representation)
    return None if tree is None else (sorted(tree.edges), sorted(tree.nodes), tree.seeds, tree.weight)


@pytest.mark.parametrize("graph_name", DPBF_GRAPHS)
def test_dpbf_dense_matches_legacy(golden, graph_name):
    graph, seeds = _graphs()[graph_name]
    for uni in (False, True):
        dense = _dpbf_row(graph, seeds, uni)
        assert dense == _dpbf_row(graph, seeds, uni, dense_ids=False)
        assert _digest(dense) == golden[f"dpbf|{graph_name}|{uni}"]


# ----------------------------------------------------------------------
# sparse huge node ids: outcome independent of id magnitude (Hypothesis)
# ----------------------------------------------------------------------
class RelabeledGraph:
    """Test-only ``GraphBackend`` view exposing huge sparse node ids.

    Wraps a dense graph and an injective dense-id -> huge-id relabeling.
    Edge ids stay dense (the pool's Zobrist code table is sized by the max
    edge id, which production graphs keep dense), so the wrapper stresses
    exactly the axis the remap handles: node-id magnitude.
    """

    def __init__(self, base, mapping):
        self._base = base
        self._fwd = mapping
        self._rev = {huge: dense for dense, huge in mapping.items()}

    @property
    def num_nodes(self):
        return self._base.num_nodes

    @property
    def num_edges(self):
        return self._base.num_edges

    def node(self, node_id):
        return self._base.node(self._rev[node_id])

    def degree(self, node_id):
        return self._base.degree(self._rev[node_id])

    def adjacent(self, node_id):
        fwd = self._fwd
        return tuple((e, fwd[other], out) for e, other, out in self._base.adjacent(self._rev[node_id]))

    def adjacent_filtered(self, node_id, labels=None):
        fwd = self._fwd
        return tuple(
            (e, fwd[other], out)
            for e, other, out in self._base.adjacent_filtered(self._rev[node_id], labels)
        )

    def edge_endpoints(self, edge_id):
        source, target = self._base.edge_endpoints(edge_id)
        return self._fwd[source], self._fwd[target]

    def edge_target(self, edge_id):
        return self._fwd[self._base.edge_target(edge_id)]

    def edge_weight(self, edge_id):
        return self._base.edge_weight(edge_id)


def _relabeled(seed: int, huge: bool):
    rng = random.Random(seed)
    base = random_graph(rng, rng.randint(4, 9), rng.randint(4, 14), num_labels=2)
    seeds = random_seed_sets(random.Random(seed + 1), base, rng.randint(2, 3), max_size=2)
    bound = 10**9 if huge else 10 * base.num_nodes
    ids = random.Random(seed + 2).sample(range(bound), base.num_nodes)
    mapping = dict(zip(range(base.num_nodes), ids))
    relabeled_seeds = [tuple(mapping[n] for n in s) for s in seeds]
    return base, seeds, RelabeledGraph(base, mapping), relabeled_seeds, mapping


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), algo_name=st.sampled_from(["gam", "molesp", "bft"]))
def test_huge_sparse_ids_match_dense_twin(seed, algo_name):
    """Relabeling nodes to ids up to 10^9 changes nothing but the labels.

    The huge-id graph runs the dense path only (a legacy mask at id 10^9
    is a ~125MB bigint per tree — the pathology the remap removes); its
    rows must be the dense twin's rows under the relabeling.
    """
    base, seeds, relabeled, relabeled_seeds, mapping = _relabeled(seed, huge=True)
    expected = _run(algo_name, base, seeds, dense_ids=True)
    got = _run(algo_name, relabeled, relabeled_seeds, dense_ids=True)
    remap_rows = sorted(
        (tuple(sorted(r.edges)), tuple(sorted(mapping[n] for n in r.nodes)),
         tuple(None if s is None else mapping[s] for s in r.seeds), round(r.weight, 9))
        for r in expected
    )
    got_rows = sorted(
        (tuple(sorted(r.edges)), tuple(sorted(r.nodes)), r.seeds, round(r.weight, 9))
        for r in got
    )
    assert got_rows == remap_rows
    assert got.complete == expected.complete


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_moderately_relabeled_dense_matches_legacy(seed):
    """Where legacy masks are still tractable, dense == legacy on the
    relabeled graph too (both paths, same rows)."""
    _, _, relabeled, relabeled_seeds, _ = _relabeled(seed, huge=False)
    dense = _snapshot(_run("molesp", relabeled, relabeled_seeds, dense_ids=True))
    legacy = _snapshot(_run("molesp", relabeled, relabeled_seeds, dense_ids=False))
    assert dense == legacy


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_dpbf_huge_sparse_ids_match_dense_twin(seed):
    base, seeds, relabeled, relabeled_seeds, mapping = _relabeled(seed, huge=True)
    expected = dpbf_optimal_tree(base, seeds)
    got = dpbf_optimal_tree(relabeled, relabeled_seeds)
    if expected is None or got is None:
        assert expected is None and got is None
        return
    assert got.edges == expected.edges
    assert got.nodes == frozenset(mapping[n] for n in expected.nodes)
    assert got.weight == expected.weight


# ----------------------------------------------------------------------
# the remap itself
# ----------------------------------------------------------------------
def test_idremap_assigns_first_touch_order_and_inverts():
    remap = IdRemap()
    assert remap.index(10**9) == 0
    assert remap.index(7) == 1
    assert remap.index(10**9) == 0  # stable on re-touch
    assert remap.bit(7) == 1 << 1
    assert remap.bit(123456789) == 1 << 2
    assert remap.node(0) == 10**9
    assert remap.node(2) == 123456789
    assert len(remap) == 3


def test_identity_remap_is_the_legacy_semantics():
    assert IDENTITY_REMAP.index(42) == 42
    assert IDENTITY_REMAP.bit(42) == 1 << 42
    assert IDENTITY_REMAP.node(42) == 42
    assert make_remap(False) is IDENTITY_REMAP
    assert isinstance(make_remap(True), IdRemap)


def test_dense_mask_width_is_bounded_by_nodes_touched():
    """The point of the refactor, stated directly: masks scale with the
    number of distinct nodes touched, not with the largest node id."""
    remap = IdRemap()
    for node in (10**9, 5 * 10**8, 999_999_937):
        remap.bit(node)
    combined = remap.bit(10**9) | remap.bit(5 * 10**8) | remap.bit(999_999_937)
    assert combined.bit_length() <= 3
    assert IDENTITY_REMAP.bit(10**9).bit_length() == 10**9 + 1


# ----------------------------------------------------------------------
# flat pools: exact parity with the dict pools, op for op
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flat_cls", [FlatEdgeSetPool, ShardedFlatEdgeSetPool])
def test_flat_pool_exact_parity_with_dict_pool(flat_cls):
    """Randomized op-sequence parity: identical handles, sets, and
    counters — the property that makes dense and legacy searches (and
    their pool stats) bit-identical."""
    rng = random.Random(7)
    legacy, flat = EdgeSetPool(), flat_cls()
    handles = [(legacy.EMPTY, flat.EMPTY)]
    for step in range(8000):
        op = rng.random()
        if op < 0.5:
            l, f = handles[rng.randrange(len(handles))]
            edge = rng.randrange(300)
            a, b = legacy.union1(l, edge), flat.union1(f, edge)
        elif op < 0.8:
            (l1, f1), (l2, f2) = (handles[rng.randrange(len(handles))] for _ in range(2))
            a, b = legacy.union2(l1, l2), flat.union2(f1, f2)
        else:
            edges = [rng.randrange(300) for _ in range(rng.randrange(6))]
            a, b = legacy.intern(edges), flat.intern(edges)
        assert a == b, f"step {step}: handle divergence"
        assert legacy.edges(a) == flat.edges(b)
        handles.append((a, b))
    assert len(legacy) == len(flat)
    assert (legacy.union_hits, legacy.union_misses, legacy.collisions) == (
        flat.union_hits,
        flat.union_misses,
        flat.collisions,
    )


def test_flat_pool_grows_past_initial_capacity():
    """Push well past the tables' initial 1024 slots so growth (and the
    rehash it implies) is exercised, then verify exactness survived."""
    pool = FlatEdgeSetPool()
    handle = pool.EMPTY
    chain = [handle]
    for edge in range(3000):
        handle = pool.union1(handle, edge)
        chain.append(handle)
    assert pool.size(handle) == 3000
    # Every prefix re-derives to the same handle (memo or fingerprint hit).
    probe = pool.EMPTY
    for edge in range(3000):
        probe = pool.union1(probe, edge)
        assert probe == chain[edge + 1]
    assert len(pool) == 3001


def test_flat_pool_accepts_overlapping_unions():
    pool, dictpool = FlatEdgeSetPool(), EdgeSetPool()
    for p in (pool, dictpool):
        a = p.intern([1, 2, 3])
        b = p.intern([3, 4])
        u = p.union2(a, b)
        assert p.edges(u) == frozenset({1, 2, 3, 4})
        assert p.union1(u, 2) == u  # already-present edge is a no-op
    assert len(pool) == len(dictpool)


def _legacy_digests():
    """Every golden case, run on the legacy representation (after checking
    the dense path agrees with it)."""
    out = {}

    def record(key, algo_name, graph, seeds, **overrides):
        legacy = _snapshot(_run(algo_name, graph, seeds, dense_ids=False, **overrides))
        assert legacy == _snapshot(_run(algo_name, graph, seeds, dense_ids=True, **overrides)), key
        if "interning" in overrides:
            legacy = _without_pool_stats(legacy)
            assert legacy == _without_pool_stats(_snapshot(_run(algo_name, graph, seeds, dense_ids=True))), key
        out[key] = _digest(legacy)

    for graph_name, graph, seeds, algo_name in _matrix_cases():
        record(f"{graph_name}|{algo_name}", algo_name, graph, seeds)
    fig1 = figure1()
    for overrides in VARIANTS:
        for algo_name in ALGORITHMS:
            record(f"fig1|{next(iter(overrides))}|{algo_name}", algo_name, fig1, figure1_seed_sets(fig1), **overrides)
    for graph_name in DPBF_GRAPHS:
        graph, seeds = _graphs()[graph_name]
        for uni in (False, True):
            legacy = _dpbf_row(graph, seeds, uni, dense_ids=False)
            assert legacy == _dpbf_row(graph, seeds, uni), (graph_name, uni)
            out[f"dpbf|{graph_name}|{uni}"] = _digest(legacy)
    return out


if __name__ == "__main__":
    if "--regen" in sys.argv:
        GOLDEN_PATH.write_text(json.dumps(_legacy_digests(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
