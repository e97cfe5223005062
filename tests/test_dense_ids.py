"""Dense search-local node identity: rows are those of global-id masks.

The engines key every node bitmask by a search-local compact index
(``repro.ctp.idremap``) and keep the interning pool's hot maps in flat
arrays (``repro.ctp.interning``).  All of it is *representation*: because
the remap is injective, every mask predicate (Merge1's shared-node test,
BFT's common-mask recovery) decides exactly what it decided over
global-id masks, so the search trajectory — and with it every row, seed
tuple, weight, and order-sensitive counter — is the one the global-id
implementation produced.

Four layers:

* the **matrix**: all 8 search algorithms x the golden workload graphs
  (and figure-1 config variants), snapshots compared by digest with what
  the legacy implementation — global-id masks, dict-backed pool — recorded
  in ``tests/data/dense_ids_golden.json`` before it was deleted
  (``pool_sets`` included: the flat pool assigns the *same handle
  numbering*; the union hit/miss counters are left out);
* **DPBF**: packed small-int DP state keys vs the recorded result of the
  legacy ``(v, X)`` tuple keys;
* a **Hypothesis property** over graphs relabelled into sparse node ids
  (up to 10^9, a handful of nodes): the outcome depends only on the
  graph's shape, never on the magnitude of its node ids.  This is the
  scenario the remap exists for — a ``1 << node_id`` mask at id 10^9 is a
  125MB integer per tree;
* the **pool against a set model**: 20 000 random operations, handles
  equal iff sets equal, numbering reproducible.

``python tests/test_dense_ids.py --regen`` rewrites the golden file from
the current engines (only meaningful on a commit whose engines are
trusted).
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
from repro.ctp.idremap import IdRemap
from repro.ctp.interning import EdgeSetPool, fingerprint_of
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

#: Timing differs run to run, and the two union counters describe how the
#: pool answered a union, not what the search did (their meaning is the
#: pool's to define), so the digests leave them out.  Unlike the interning
#: equivalence suite we keep ``merges_attempted``: the recorded legacy run
#: used the *same* engine code path, so even that counter — like
#: ``pool_sets`` and ``merge_buckets_skipped`` — must replay exactly.
UNSTABLE_STATS = {"elapsed_seconds", "pool_union_hits", "pool_union_misses"}


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
POOL_STATS = {"merges_attempted", "merge_buckets_skipped", "pool_sets"}


def _without_pool_stats(snapshot):
    stats = {k: v for k, v in snapshot["stats"].items() if k not in POOL_STATS}
    return {**snapshot, "stats": stats}


MAX_TREES = {"bft": 3000, "bft-m": 3000, "bft-am": 3000}


def _run(algo_name, graph, seeds, **overrides):
    overrides.setdefault("max_trees", MAX_TREES.get(algo_name, 20000))
    if overrides.pop("frozen", False):
        graph = graph.freeze()
    return ALGORITHMS[algo_name]().run(graph, seeds, SearchConfig(**overrides))


#: Digests of the legacy run (global-id masks, dict pools, tuple DP keys)
#: of every case below.
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
    got = _snapshot(_run(algo_name, graph, seeds))
    assert _digest(got) == golden[f"{graph_name}|{algo_name}"]


#: ``interning`` is the default config against the run recorded from the
#: frozenset fallback (no edge-set pool, linear partner scans) over
#: global-id masks: everything but the pool's own counters must match.
VARIANTS = {
    "uni": {"uni": True},
    "limit": {"limit": 5},
    "max_edges": {"max_edges": 4},
    "balanced_queues": {"balanced_queues": True},
    "interning": {},
    "backend": {"frozen": True},  # the search runs on graph.freeze()
}


@pytest.mark.parametrize("algo_name", sorted(ALGORITHMS))
@pytest.mark.parametrize("variant", VARIANTS)
def test_dense_matches_legacy_under_config_variants(golden, algo_name, variant):
    graph = figure1()
    got = _snapshot(_run(algo_name, graph, figure1_seed_sets(graph), **VARIANTS[variant]))
    if variant == "interning":
        got = _without_pool_stats(got)
    assert _digest(got) == golden[f"fig1|{variant}|{algo_name}"]


# ----------------------------------------------------------------------
# DPBF: packed state keys vs recorded legacy tuples
# ----------------------------------------------------------------------
DPBF_GRAPHS = ["fig1", "fig3", "chain5", "star", "comb", "random"]


def _dpbf_row(graph, seeds, uni):
    tree = dpbf_optimal_tree(graph, seeds, uni=uni)
    return None if tree is None else (sorted(tree.edges), sorted(tree.nodes), tree.seeds, tree.weight)


@pytest.mark.parametrize("graph_name", DPBF_GRAPHS)
def test_dpbf_dense_matches_legacy(golden, graph_name):
    graph, seeds = _graphs()[graph_name]
    for uni in (False, True):
        assert _digest(_dpbf_row(graph, seeds, uni)) == golden[f"dpbf|{graph_name}|{uni}"]


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


@settings(max_examples=45, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    algo_name=st.sampled_from(["gam", "molesp", "bft"]),
    huge=st.booleans(),
)
def test_huge_sparse_ids_match_dense_twin(seed, algo_name, huge):
    """Relabeling nodes changes nothing but the labels.

    Whether the new ids are sampled from ``range(10**9)`` (where a
    global-id mask would be a ~125MB bigint per tree — the pathology the
    remap removes) or merely made non-contiguous (``range(10 * n)``), the
    relabelled graph's rows must be the base graph's rows under the
    relabeling.
    """
    base, seeds, relabeled, relabeled_seeds, mapping = _relabeled(seed, huge)
    expected = _run(algo_name, base, seeds)
    got = _run(algo_name, relabeled, relabeled_seeds)
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


def test_dense_mask_width_is_bounded_by_nodes_touched():
    """The point of the remap, stated directly: masks scale with the
    number of distinct nodes touched, not with the largest node id."""
    remap = IdRemap()
    for node in (10**9, 5 * 10**8, 999_999_937):
        remap.bit(node)
    combined = remap.bit(10**9) | remap.bit(5 * 10**8) | remap.bit(999_999_937)
    assert combined.bit_length() <= 3


# ----------------------------------------------------------------------
# the flat pool against a plain-set model
# ----------------------------------------------------------------------
def _pool_program(pool, steps=20_000, seed=7):
    """Drive ``pool`` with random ops; return each step's ``(handle, edge set)``."""
    rng = random.Random(seed)
    trace = [(pool.EMPTY, frozenset())]
    for _ in range(steps):
        op = rng.random()
        if op < 0.5:
            handle, edges = trace[rng.randrange(len(trace))]
            edge = rng.randrange(300)
            trace.append((pool.union1(handle, edge), edges | {edge}))
        elif op < 0.8:
            (h1, e1), (h2, e2) = (trace[rng.randrange(len(trace))] for _ in range(2))
            trace.append((pool.union2(h1, h2), e1 | e2))
        else:
            edges = frozenset(rng.randrange(300) for _ in range(rng.randrange(6)))
            trace.append((pool.intern(edges), edges))
    return trace


@pytest.mark.parametrize("thread_safe", [False, True], ids=["plain", "thread_safe"])
def test_flat_pool_matches_set_model(thread_safe):
    """Handles are equal iff the sets are equal, every accessor is exact,
    and one operation sequence always yields one handle numbering."""
    pool = EdgeSetPool(thread_safe)
    trace = _pool_program(pool)
    first_handle = {}
    for handle, edges in trace:
        assert first_handle.setdefault(edges, handle) == handle
        assert pool.edges(handle) == edges
        assert pool.size(handle) == len(edges)
        assert pool.fingerprint(handle) == fingerprint_of(edges)
    assert len(set(first_handle.values())) == len(first_handle) == len(pool)
    assert pool.collisions == 0
    again = EdgeSetPool(thread_safe)
    assert [handle for handle, _ in _pool_program(again)] == [handle for handle, _ in trace]
    assert (again.union_hits, again.union_misses) == (pool.union_hits, pool.union_misses)


def test_flat_pool_grows_past_initial_capacity():
    """Push well past the tables' initial 1024 slots so growth (and the
    rehash it implies) is exercised, then verify exactness survived."""
    pool = EdgeSetPool()
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
    pool = EdgeSetPool()
    a = pool.intern([1, 2, 3])
    b = pool.intern([3, 4])
    u = pool.union2(a, b)
    assert pool.edges(u) == frozenset({1, 2, 3, 4})
    assert pool.union1(u, 2) == u  # already-present edge is a no-op
    assert len(pool) == 4


def _golden_digests():
    out = {}
    for graph_name, graph, seeds, algo_name in _matrix_cases():
        out[f"{graph_name}|{algo_name}"] = _digest(_snapshot(_run(algo_name, graph, seeds)))
    fig1 = figure1()
    for variant, overrides in VARIANTS.items():
        for algo_name in ALGORITHMS:
            got = _snapshot(_run(algo_name, fig1, figure1_seed_sets(fig1), **overrides))
            out[f"fig1|{variant}|{algo_name}"] = _digest(_without_pool_stats(got) if variant == "interning" else got)
    for graph_name in DPBF_GRAPHS:
        graph, seeds = _graphs()[graph_name]
        for uni in (False, True):
            out[f"dpbf|{graph_name}|{uni}"] = _digest(_dpbf_row(graph, seeds, uni))
    return out


if __name__ == "__main__":
    if "--regen" in sys.argv:
        GOLDEN_PATH.write_text(json.dumps(_golden_digests(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
